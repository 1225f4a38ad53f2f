"""Single-pass continual learning with first-order meta-learning and sparse
experience replay, plus SEQ/REPLAY/A-GEM/MTL baselines and gradient-alignment
diagnostics. Pure numpy, float64 throughout."""

__version__ = "0.1.0"

from .episodes import ReplaySchedule
from .learners import LearnerConfig
from .memory import EpisodicMemory
from .stream import make_synthetic_suite
