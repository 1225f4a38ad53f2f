"""Training procedures: meta-learning with replay and the baselines.

Meta methods (OML-ER, ANML-ER, MAML-ER) train in episodes: the inner loop
takes one SGD step per support batch on the adapted partitions; the outer
loop computes first-order meta-gradients at the adapted parameters and
applies them to the original parameters with Adam. Baselines (SEQ, REPLAY,
A-GEM, MTL) take one Adam step per batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import AlignmentSample, grad_dot
from .episodes import MEMORY, STREAM, Episode, ReplaySchedule, meta_test_episode, next_episode
from .memory import EpisodicMemory
from .model import Classifier, score_accuracy
from .numerics import Adam, InputError, adam_step, sgd_step
from .rngs import named_rngs
from .stream import BatchStream, one_split, pooled_batches

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


@dataclass
class TrainingTrace:
    """Per-run bookkeeping used by diagnostics and protocol tests."""

    episodes: list = field(default_factory=list)  # (index, source, n_support, n_query)
    replay_episodes: int = 0
    replay_skips: int = 0
    optimizer_steps: int = 0
    alignment: list = field(default_factory=list)
    violations_per_task: dict = field(default_factory=dict)


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
    for batch in support:
        _, grads = model.loss_and_grad(adapted, batch, parts)
        sgd_step(adapted, grads, alpha, parts)
    return adapted


def meta_outer_step(model, adam: Adam, adapted, query) -> float:
    """First-order meta update: gradients at the adapted parameters, applied
    to the original ones (``adam.params``) via Adam. Returns the query loss."""
    loss, grads = model.loss_and_grad(adapted, query, model.outer_partitions())
    adam_step(adam, grads)
    return loss


def _single_pass_setup(model, tasks, config: LearnerConfig, seed: int, stream_order):
    """Initial parameters, stream, memory and trace of a single-pass continual run."""
    rngs = named_rngs(seed)
    params = model.init_params(rngs["init"])
    order = range(len(tasks)) if stream_order is None else stream_order
    stream = BatchStream(tasks, order, config.schedule.batch_size, rngs["stream"])
    memory = EpisodicMemory(config.p_write, tasks, rngs["memory_write"],
                            rngs["memory_sample"])
    return params, stream, memory, TrainingTrace()


def run_meta_training(model, tasks, config: LearnerConfig, seed: int,
                      stream_order=None):
    """Single-pass episodic meta-training over the task stream.

    Per episode: draw the support from the stream; on replay episodes sample
    the query from memory, otherwise take the next stream batch and offer it
    to memory; offer the support to memory; adapt; meta-update.
    """
    params, stream, memory, trace = _single_pass_setup(model, tasks, config, seed,
                                                       stream_order)
    adam = Adam(params, model.outer_partitions(), config.outer_lr)
    schedule = config.schedule
    it = iter(stream)
    index = 0
    while True:
        index += 1
        ep = next_episode(it, memory, schedule, index, allow_replay=not config.no_replay)
        if ep is None:
            break
        if ep.query_source == STREAM and ep.query is not None:
            memory.write(ep.query)
        for batch in ep.support:
            memory.write(batch)
        if ep.query_source == MEMORY:
            trace.replay_episodes += 1
        if ep.replay_skipped:
            trace.replay_skips += 1
        if ep.query is not None:
            adapted = inner_adapt(model, params, ep.support, config.inner_lr)
            if config.record_alignment and ep.query_source == MEMORY:
                trace.alignment.append(_support_query_alignment(
                    model, params, ep, index))
            meta_outer_step(model, adam, adapted, ep.query)
            trace.optimizer_steps += 1
        trace.episodes.append(
            (ep.index, ep.query_source, len(ep.support),
             len(ep.query) if ep.query is not None else 0))
    return params, memory, trace


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


def train_sequential(model, tasks, config: LearnerConfig, seed: int,
                     stream_order=None):
    """SEQ / REPLAY / A-GEM: one Adam step per stream batch, single pass.

    REPLAY performs one extra gradient update on floor(r*R_I) memory samples
    every ceil(R_I/b) steps. A-GEM instead uses such a sample as a reference
    gradient and projects the current gradient when they conflict.
    """
    params, stream, memory, trace = _single_pass_setup(model, tasks, config, seed,
                                                       stream_order)
    schedule = config.schedule
    parts = model.outer_partitions()
    adam = Adam(params, parts, config.outer_lr)
    replay = config.method == "REPLAY" and not config.no_replay
    agem = config.method == "AGEM" and not config.no_replay
    cadence = schedule.baseline_frequency

    step = 0
    for batch in stream:
        step += 1
        _, grads = model.loss_and_grad(params, batch, parts)
        if agem and step % cadence == 0 and len(memory) > 0:
            ref_batch = memory.sample(schedule.replay_batch_size)
            _, g_ref = model.loss_and_grad(params, ref_batch, parts)
            sample = grad_dot(grads, g_ref, step)
            trace.alignment.append(sample)
            grads, violated = agem_project(grads, g_ref)
            if violated:  # keyed by the task of the batch's first row
                tid = int(memory.task_ids(batch.rows[:1])[0])
                trace.violations_per_task[tid] = trace.violations_per_task.get(tid, 0) + 1
        adam_step(adam, grads)
        trace.optimizer_steps += 1
        memory.write(batch)
        if replay and step % cadence == 0 and len(memory) > 0:
            replay_batch = memory.sample(schedule.replay_batch_size)
            _, grads = model.loss_and_grad(params, replay_batch, parts)
            adam_step(adam, grads)
            trace.optimizer_steps += 1
            trace.replay_episodes += 1
    return params, memory, trace


def train_mtl(model, tasks, config: LearnerConfig, seed: int):
    """Multi-task upper bound: i.i.d. pooled batches for several epochs."""
    rngs = named_rngs(seed)
    params = model.init_params(rngs["init"])
    trace = TrainingTrace()
    parts = model.outer_partitions()
    adam = Adam(params, parts, config.outer_lr)
    for batch in pooled_batches(tasks, config.schedule.batch_size, rngs["mtl"],
                                epochs=config.epochs):
        _, grads = model.loss_and_grad(params, batch, parts)
        adam_step(adam, grads)
        trace.optimizer_steps += 1
    return params, None, trace


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
# Dispatch
# ---------------------------------------------------------------------------

def run(model: Classifier, suite, config: LearnerConfig, seed: int,
        stream_order=None, combined_test: bool = False):
    """Train with the configured method and evaluate on the suite's test sets.

    With ``combined_test`` the test split is scored as one task, so every
    method reports a single accuracy over all test examples.
    Returns (per_task_accuracies, params, memory, trace, gate_records).
    """
    test = [one_split(suite.test)] if combined_test and suite.test else suite.test
    if config.method in META_METHODS:
        params, memory, trace = run_meta_training(model, suite.train, config, seed,
                                                  stream_order)
    elif config.method == "MTL":
        params, memory, trace = train_mtl(model, suite.train, config, seed)
    else:
        params, memory, trace = train_sequential(model, suite.train, config, seed,
                                                 stream_order)
    if config.method in META_METHODS:
        accs, gates = run_meta_testing(model, params, memory, test, config)
    else:
        accs, gates = evaluate_direct(model, lambda task: params, test)
    return accs, params, memory, trace, gates
