"""Training procedures: meta-learning with replay and the baselines.

Meta methods (OML-ER, ANML-ER, MAML-ER) train in episodes: the inner loop
takes one SGD step per support batch on the adapted partitions; the outer
loop computes first-order meta-gradients at the adapted parameters and
applies them to the original parameters with Adam. Baselines (SEQ, REPLAY,
A-GEM, MTL) take one Adam step per batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import AlignmentSample, grad_dot
from .episodes import MEMORY, STREAM, Episode, ReplaySchedule, meta_test_episode, next_episode
from .memory import EpisodicMemory
from .model import Classifier, score_accuracy
from .numerics import InputError, adam_step, sgd_step
from .rngs import named_rngs
from .stream import BatchStream, StreamConfig, TaskSpec, pooled_batches

META_METHODS = ("OML_ER", "ANML_ER", "MAML_ER")
BASELINE_METHODS = ("SEQ", "REPLAY", "AGEM", "MTL")
METHODS = META_METHODS + BASELINE_METHODS


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
            raise InputError(f"unknown method {self.method!r}")
        if self.method == "MTL" and self.epochs < 1:
            raise InputError("MTL needs epochs >= 1")
        if self.method != "MTL" and self.epochs != 1:
            raise InputError("continual methods are single-pass (epochs must be 1)")
        if not 0.0 <= self.p_write <= 1.0:
            raise InputError("p_write must be in [0, 1]")
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


def meta_outer_step(model, params, adapted, query, beta: float) -> float:
    """First-order meta update: gradients at the adapted parameters, applied
    to the original ones via Adam. Returns the query loss."""
    parts = model.outer_partitions()
    loss, grads = model.loss_and_grad(adapted, query, parts)
    adam_step(params, grads, beta, parts)
    return loss


def run_meta_training(model, tasks, config: LearnerConfig, seed: int,
                      stream_order=None):
    """Single-pass episodic meta-training over the task stream.

    Per episode: draw the support from the stream; on replay episodes sample
    the query from memory, otherwise take the next stream batch and offer it
    to memory; offer the support to memory; adapt; meta-update.
    """
    rngs = named_rngs(seed)
    params = model.init_params(rngs["init"])
    schedule = config.schedule
    order = tuple(stream_order) if stream_order is not None else tuple(range(len(tasks)))
    stream = BatchStream(tasks, StreamConfig(order, schedule.batch_size), rngs["stream"])
    memory = EpisodicMemory(config.p_write, tasks, rngs["memory_write"],
                            rngs["memory_sample"])
    trace = TrainingTrace()

    it = stream.with_task_ids()
    index = 0
    while True:
        index += 1
        ep = next_episode(it, memory, schedule, index, allow_replay=not config.no_replay)
        if ep is None:
            break
        if ep.query_source == STREAM and ep.query is not None:
            memory.write(ep.query, ep.query_task_id)
        for batch, tid in zip(ep.support, ep.support_task_ids):
            memory.write(batch, tid)
        if ep.query_source == MEMORY:
            trace.replay_episodes += 1
        if ep.replay_skipped:
            trace.replay_skips += 1
        if ep.query is not None:
            adapted = inner_adapt(model, params, ep.support, config.inner_lr)
            if config.record_alignment and ep.query_source == MEMORY:
                trace.alignment.append(_support_query_alignment(
                    model, params, ep, index))
            meta_outer_step(model, params, adapted, ep.query, config.outer_lr)
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
    skips fine-tuning entirely.
    """
    schedule = config.schedule
    finetune = not config.no_meta_test_finetune
    gate_records = []

    def evaluate(query_task):
        ep = meta_test_episode(memory, query_task.full_batch(),
                               schedule.support_size, schedule.batch_size,
                               finetune=finetune)
        eval_params = params
        if ep.support:
            eval_params = inner_adapt(model, params, ep.support, config.inner_lr)
        scores, gate = model.predict(eval_params, ep.query)
        if gate is not None:
            gate_records.append(gate)
        return score_accuracy(scores, ep.query.labels)

    return [evaluate(task) for task in test_tasks], gate_records


def _concat_tasks(tasks):
    return TaskSpec(-1,
                    np.concatenate([t.features for t in tasks]),
                    np.concatenate([t.labels for t in tasks]))


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
    rngs = named_rngs(seed)
    params = model.init_params(rngs["init"])
    schedule = config.schedule
    order = tuple(stream_order) if stream_order is not None else tuple(range(len(tasks)))
    stream = BatchStream(tasks, StreamConfig(order, schedule.batch_size), rngs["stream"])
    memory = EpisodicMemory(config.p_write, tasks, rngs["memory_write"],
                            rngs["memory_sample"])
    trace = TrainingTrace()
    parts = model.outer_partitions()
    replay = config.method == "REPLAY" and not config.no_replay
    agem = config.method == "AGEM" and not config.no_replay
    cadence = schedule.baseline_frequency

    step = 0
    for batch, tid in stream.with_task_ids():
        step += 1
        _, grads = model.loss_and_grad(params, batch, parts)
        if agem and step % cadence == 0 and len(memory) > 0:
            ref_batch = memory.sample(schedule.replay_batch_size)
            _, g_ref = model.loss_and_grad(params, ref_batch, parts)
            sample = grad_dot(grads, g_ref, step)
            trace.alignment.append(sample)
            grads, violated = agem_project(grads, g_ref)
            if violated:
                trace.violations_per_task[tid] = trace.violations_per_task.get(tid, 0) + 1
        adam_step(params, grads, config.outer_lr, parts)
        trace.optimizer_steps += 1
        memory.write(batch, tid)
        if replay and step % cadence == 0 and len(memory) > 0:
            replay_batch = memory.sample(schedule.replay_batch_size)
            _, grads = model.loss_and_grad(params, replay_batch, parts)
            adam_step(params, grads, config.outer_lr, parts)
            trace.optimizer_steps += 1
            trace.replay_episodes += 1
    return params, memory, trace


def train_mtl(model, tasks, config: LearnerConfig, seed: int):
    """Multi-task upper bound: i.i.d. pooled batches for several epochs."""
    rngs = named_rngs(seed)
    params = model.init_params(rngs["init"])
    trace = TrainingTrace()
    parts = model.outer_partitions()
    for batch in pooled_batches(tasks, config.schedule.batch_size, rngs["mtl"],
                                epochs=config.epochs):
        _, grads = model.loss_and_grad(params, batch, parts)
        adam_step(params, grads, config.outer_lr, parts)
        trace.optimizer_steps += 1
    return params, None, trace


def evaluate_direct(model, params, test_tasks):
    """Per-task accuracy at the given parameters, with no adaptation."""
    return [model.accuracy(params, task.full_batch()) for task in test_tasks]


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def run(model: Classifier, suite, config: LearnerConfig, seed: int,
        stream_order=None, combined_test: bool = False):
    """Train with the configured method and evaluate on the suite's test sets.

    With ``combined_test`` the test sets are concatenated into one, so every
    method reports a single accuracy over all test examples.
    Returns (per_task_accuracies, params, memory, trace, gate_records).
    """
    test = [_concat_tasks(suite.test)] if combined_test and suite.test else suite.test
    if config.method == "MTL":
        params, memory, trace = train_mtl(model, suite.train, config, seed)
        accs = evaluate_direct(model, params, test)
        return accs, params, memory, trace, []
    if config.method in BASELINE_METHODS:
        params, memory, trace = train_sequential(model, suite.train, config, seed,
                                                 stream_order)
        accs = evaluate_direct(model, params, test)
        return accs, params, memory, trace, []
    params, memory, trace = run_meta_training(model, suite.train, config, seed,
                                              stream_order)
    accs, gates = run_meta_testing(model, params, memory, test, config)
    return accs, params, memory, trace, gates
