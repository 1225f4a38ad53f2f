"""Training procedures: meta-learning with replay and the baselines.

Meta methods (OML-ER, ANML-ER, MAML-ER) train in episodes: the inner loop
takes one SGD step per support batch on the adapted partitions; the outer
loop computes first-order meta-gradients at the adapted parameters and
applies them to the original parameters with Adam. Baselines (SEQ, REPLAY,
A-GEM, MTL) take one Adam step per batch. ``train`` runs every method as one
step function over one batch stream.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .blas import one_blas_thread
from .diagnostics import AlignmentSample, grad_dot
from .episodes import MEMORY, Episode, ReplaySchedule, meta_test_episode, next_episode
from .memory import EpisodicMemory
from .model import Classifier, score_accuracy
from .numerics import Adam, InputError, adam_step, sgd_step
from .rngs import named_rngs
from .stream import BatchStream, one_split

META_METHODS = ("OML_ER", "ANML_ER", "MAML_ER")
BASELINE_METHODS = ("SEQ", "REPLAY", "AGEM", "MTL")
METHODS = META_METHODS + BASELINE_METHODS
_OWN_ARCHITECTURE = {"ANML_ER": "ANML", "MAML_ER": "MAML"}  # every other method trains OML


def architecture_for(method: str) -> str:
    """The model architecture ``method`` trains when none is named."""
    return _OWN_ARCHITECTURE.get(method, "OML")


@dataclass
class LearnerConfig:
    method: str
    schedule: ReplaySchedule
    inner_lr: float = 0.008      # alpha: inner-loop / meta-test SGD
    outer_lr: float = 0.025      # beta: meta (or plain) Adam
    p_write: float = 1.0
    no_replay: bool = False
    no_meta_test_finetune: bool = False
    epochs: int = 1              # MTL only (>= 1); continual methods are single-pass
    record_alignment: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise InputError(f"unknown method {self.method!r} (choose from {METHODS})")
        if self.method == "MTL" and self.epochs < 1:
            raise InputError("MTL needs epochs >= 1")
        if self.method != "MTL" and self.epochs != 1:
            raise InputError("continual methods are single-pass (epochs must be 1)")
        if not 0.0 <= self.p_write <= 1.0:
            raise InputError("p_write must be in [0, 1]")
        if not all(0.0 <= lr < math.inf for lr in (self.inner_lr, self.outer_lr)):
            raise InputError("learning rates must be finite and non-negative")
        if (self.method in META_METHODS and not self.no_meta_test_finetune
                and self.p_write == 0):
            raise InputError("p_write 0 leaves memory empty, but meta-test fine-tuning "
                             "samples from it (set ablations.no_meta_test_finetune)")


class StepRecord(NamedTuple):
    """What one training step did: a meta episode, whose ``source`` is where
    its query came from, or a baseline step (``source`` None)."""

    source: str | None
    support: int            # support batches (0 for a baseline step)
    examples: int           # query examples (0: no query, no update), or the batch's
    replayed: bool = False  # a memory query, or REPLAY's step on a memory sample
    skipped: bool = False   # a replay was due but memory was empty
    alignment: AlignmentSample | None = None
    violated: int | None = None  # A-GEM: task of a batch whose gradient was projected


@dataclass(frozen=True)
class TrainingTrace:
    """A run's step records, in order, reduced once to what its outputs read."""

    steps: list
    replay_episodes: int
    replay_skips: int
    optimizer_steps: int
    alignment: list
    violations_per_task: dict


# ---------------------------------------------------------------------------
# Meta-learning core
# ---------------------------------------------------------------------------

def inner_adapt(model, params, support, alpha: float):
    """One SGD step per support batch on the inner-loop partitions.

    Returns adapted parameters; ``params`` itself is never modified and
    parameters outside the inner partition set stay bit-identical.
    """
    if not support:
        raise InputError("support must be non-empty")
    adapted = params.clone()
    parts = model.inner_partitions()
    for batch in support:  # each gradient is freed once the step has consumed it
        sgd_step(adapted, model.loss_and_grad(adapted, batch, parts)[1], alpha, parts)
    return adapted


def meta_outer_step(model, adam: Adam, adapted, query) -> float:
    """First-order meta update: gradients at the adapted parameters, applied
    to the original ones (``adam.params``) via Adam. Returns the query loss."""
    loss, grads = model.loss_and_grad(adapted, query, model.outer_partitions())
    adam_step(adam, grads)
    return loss


def _meta_episode(model, adam: Adam, batches, memory, config: LearnerConfig,
                  index: int) -> StepRecord | None:
    """Episode ``index`` of meta-training; None once the stream is spent.

    ``next_episode`` draws the episode and offers its stream batches to
    memory; this adapts on the support, samples the alignment of a replay
    episode when asked, and meta-updates. The episode's batches and adapted
    parameters are freed when it returns, before the next episode draws.
    """
    ep = next_episode(batches, memory, config.schedule, index,
                      allow_replay=not config.no_replay)
    if ep is None:
        return None
    replayed = ep.query_source == MEMORY
    sample = None
    if ep.query is not None:
        adapted = inner_adapt(model, adam.params, ep.support, config.inner_lr)
        if config.record_alignment and replayed:
            sample = _support_query_alignment(model, adam.params, ep, index)
        meta_outer_step(model, adam, adapted, ep.query)
    return StepRecord(ep.query_source, len(ep.support),
                      len(ep.query) if ep.query is not None else 0,
                      replayed, ep.replay_skipped, sample)


def _support_query_alignment(model, params, ep: Episode, step: int) -> AlignmentSample:
    """Dot product between the summed support gradient and the query gradient
    at the current parameters (the quantity sparse replay tries to keep
    positive). Diagnostics only; doubles the gradient work on the episode."""
    parts = model.outer_partitions()
    _, total = model.loss_and_grad(params, ep.support[0], parts)
    for batch in ep.support[1:]:
        total += model.loss_and_grad(params, batch, parts)[1]
    _, gq = model.loss_and_grad(params, ep.query, parts)
    return grad_dot(total, gq, step)


def run_meta_testing(model, params, memory, test_tasks, config: LearnerConfig):
    """Per-task accuracy after fine-tuning on memory samples (Algorithm-2 style).

    Each task gets its own memory draw and a fresh copy of the trained
    parameters; the trained parameters are never mutated. The ablation flag
    skips fine-tuning and scores the trained parameters directly.
    """
    if config.no_meta_test_finetune:
        return evaluate_direct(model, lambda task: params, test_tasks)
    m, b = config.schedule.support_size, config.schedule.batch_size
    return evaluate_direct(model, lambda task: inner_adapt(
        model, params, meta_test_episode(memory, m, b), config.inner_lr), test_tasks)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

def agem_project(g: np.ndarray, g_ref: np.ndarray):
    """A-GEM projection of one gradient vector against a reference over the
    same span.

    If dot(g, g_ref) < 0, returns (g - (g.g_ref / g_ref.g_ref) g_ref, True);
    otherwise g is returned unchanged. A zero-norm reference skips projection.
    """
    if g.shape != g_ref.shape:
        raise InputError("gradients must cover the same parameter span")
    dot = float(g @ g_ref)
    if dot >= 0:
        return g, False
    ref_sq = float(g_ref @ g_ref)
    if ref_sq == 0.0:
        return g, False
    return g - (dot / ref_sq) * g_ref, True


def _baseline_step(model, adam: Adam, batches, memory, config: LearnerConfig,
                   step: int) -> StepRecord | None:
    """Baseline step ``step`` (1-based): an Adam step on the next batch; None
    once ``batches`` is spent. Every ceil(R_I/b) steps, A-GEM projects the
    batch gradient against a memory sample's when they conflict, and REPLAY
    takes one more Adam step on floor(r*R_I) memory samples. ``memory`` is
    None for MTL. The batch and its gradients are freed when the step
    returns, before the next batch is drawn.
    """
    batch = next(batches, None)
    if batch is None:
        return None
    schedule, parts = config.schedule, model.outer_partitions()
    due = not config.no_replay and step % schedule.baseline_frequency == 0
    _, grads = model.loss_and_grad(adam.params, batch, parts)
    sample = violated = None
    if config.method == "AGEM" and due and len(memory) > 0:
        _, g_ref = model.loss_and_grad(adam.params, memory.sample(schedule.replay_batch_size),
                                       parts)
        sample = grad_dot(grads, g_ref, step)
        grads, projected = agem_project(grads, g_ref)
        if projected:  # keyed by the task of the batch's first row
            violated = int(memory.task_ids(batch.rows[:1])[0])
    adam_step(adam, grads)
    del grads  # REPLAY's memory step below never holds the batch gradient
    replayed = False
    if memory is not None:
        memory.write(batch)
        replayed = config.method == "REPLAY" and due and len(memory) > 0
        if replayed:
            adam_step(adam, model.loss_and_grad(
                adam.params, memory.sample(schedule.replay_batch_size), parts)[1])
    return StepRecord(None, 0, len(batch), replayed, False, sample, violated)


def evaluate_direct(model, params_for, test_tasks):
    """Per-task accuracy, each task scored at ``params_for(task)``, and the
    GateRecords of an ANML model (an empty list for the others).

    ``params_for`` returns before the task is densified, so a fine-tuning
    support it draws is freed first.
    """
    accs, gates = [], []
    for task in test_tasks:
        scores, gate = model.predict(params_for(task), task.full_batch())
        accs.append(score_accuracy(scores, task.labels))
        if gate is not None:
            gates.append(gate)
    return accs, gates


# ---------------------------------------------------------------------------
# Training loop and dispatch
# ---------------------------------------------------------------------------

@one_blas_thread()
def train(model, tasks, config: LearnerConfig, seed: int, stream_order=None):
    """Train with the configured method; returns (params, memory, trace).

    Continual methods make one pass over the tasks in ``stream_order``; MTL
    makes ``config.epochs`` passes over i.i.d. batches of the pooled split
    and keeps no memory. Each episode or baseline step is one
    ``_meta_episode`` or ``_baseline_step`` call, until the stream is spent;
    the trace is built once, from the ``StepRecord`` each call returns. A
    meta run that fine-tunes at meta-test raises ``InputError`` before its
    first step if its memory will admit none of the stream. Like ``run``,
    it trains with numpy's OpenBLAS on the calling thread.
    """
    rngs = named_rngs(seed)
    params = model.init_params(rngs["init"])
    b = config.schedule.batch_size
    if config.method == "MTL":
        stream, memory = BatchStream([one_split(tasks)], (0,), b, rngs["mtl"]), None
    else:
        order = range(len(tasks)) if stream_order is None else stream_order
        stream = BatchStream(tasks, order, b, rngs["stream"])
        memory = EpisodicMemory(config.p_write, tasks, rngs["memory_write"], rngs["memory_sample"])
        if (config.method in META_METHODS and not config.no_meta_test_finetune
                and not memory.admits_any()):  # a meta run offers each example once
            raise InputError(f"p_write {config.p_write:g} admits none of the {memory.capacity} "
                             "training examples, but meta-test fine-tuning samples from "
                             "memory (set ablations.no_meta_test_finetune)")
    batches = itertools.chain.from_iterable(itertools.repeat(stream, config.epochs))
    adam, steps = Adam(params, config.outer_lr), []
    step = _meta_episode if config.method in META_METHODS else _baseline_step
    while (record := step(model, adam, batches, memory, config, len(steps) + 1)) is not None:
        steps.append(record)
    return params, memory, TrainingTrace(
        steps, sum(s.replayed for s in steps), sum(s.skipped for s in steps), adam.t,
        [s.alignment for s in steps if s.alignment is not None],
        dict(Counter(s.violated for s in steps if s.violated is not None)))


@one_blas_thread()
def run(model: Classifier, suite, config: LearnerConfig, seed: int,
        stream_order=None, combined_test: bool = False):
    """Train with the configured method and evaluate on the suite's test sets.

    With ``combined_test`` the test split is scored as one task, so every
    method reports a single accuracy over all test examples.
    Training and scoring run with numpy's OpenBLAS on the calling thread
    (``blas.one_blas_thread``), so two Python threads must not call run or train at once.
    Returns (per_task_accuracies, params, memory, trace, gate_records).
    """
    test = [one_split(suite.test)] if combined_test and suite.test else suite.test
    params, memory, trace = train(model, suite.train, config, seed, stream_order)
    if config.method in META_METHODS:
        accs, gates = run_meta_testing(model, params, memory, test, config)
    else:
        accs, gates = evaluate_direct(model, lambda task: params, test)
    return accs, params, memory, trace, gates
