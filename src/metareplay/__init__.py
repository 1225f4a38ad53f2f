"""Single-pass continual learning with first-order meta-learning and sparse
experience replay, plus SEQ/REPLAY/A-GEM/MTL baselines and gradient-alignment
diagnostics. Pure numpy, float64 throughout."""

__version__ = "0.1.0"

from .diagnostics import (
    AlignmentSample,
    MetricsRecord,
    gate_stats,
    grad_dot,
    macro_accuracy,
)
from .episodes import Episode, ReplaySchedule, meta_test_episode, next_episode, replay_frequency
from .learners import (
    LearnerConfig,
    agem_project,
    inner_adapt,
    meta_outer_step,
    run_meta_testing,
    run_meta_training,
    train_mtl,
    train_sequential,
)
from .memory import EpisodicMemory
from .model import Classifier, GateRecord, ModelConfig
from .numerics import (
    InputError,
    LossMode,
    NumericalError,
    ParameterSet,
    Partition,
    adam_step,
    grad_check,
    sgd_step,
)
from .stream import (
    Batch,
    BatchStream,
    FeaturizerConfig,
    StreamConfig,
    Suite,
    TaskSpec,
    featurize,
    load_text_task,
    make_synthetic_suite,
    pooled_batches,
)
