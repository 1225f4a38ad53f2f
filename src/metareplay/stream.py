"""Task streams, featurization, and synthetic task suites.

A continual run makes exactly one pass over a stream of tasks. Examples are
shuffled within a task (locally i.i.d.) but tasks are never interleaved, and
batches never span a task boundary. Batches visible to learners carry
features and labels only; task identity is tracked separately for
diagnostics.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import InitVar, dataclass, field

import numpy as np

from .numerics import InputError


@dataclass(frozen=True)
class Batch:
    """What a learner sees: features and labels, nothing else.

    Class-label mode: ``features`` is (n, d) and ``labels`` holds class
    indices. Candidate-ranking mode: ``features`` is (n, K, d), one
    (input, candidate) pair row per candidate, and ``labels`` holds the index
    of the true candidate in [0, K).

    ``rows`` holds the row indices into the task a batch was taken from
    (``TaskSpec.take`` sets it; any other batch has None). It is not a
    field: learners never read it, the episodic memory stores it instead of
    copying features.
    """

    features: np.ndarray
    labels: np.ndarray  # (n,)
    rows: InitVar[np.ndarray | None] = None

    def __post_init__(self, rows):
        object.__setattr__(self, "rows", rows)

    def __len__(self):
        return self.features.shape[0]


@dataclass
class TaskSpec:
    """One task's labelled examples. The id is for evaluation/diagnostics only."""

    task_id: int
    features: np.ndarray
    labels: np.ndarray

    @property
    def size(self) -> int:
        return self.features.shape[0]

    def take(self, idx):
        """A copy of the rows at an integer index array ``idx``, recording it."""
        return Batch(self.features[idx], self.labels[idx], idx)

    def full_batch(self):
        """The whole task as a read-only batch over the task's own arrays."""
        features, labels = self.features.view(), self.labels.view()
        features.flags.writeable = labels.flags.writeable = False
        return Batch(features, labels)


@dataclass(frozen=True)
class StreamConfig:
    order: tuple          # permutation of positions into the task list
    batch_size: int


@dataclass(frozen=True)
class FeaturizerConfig:
    dim: int = 2048
    truncate: int | None = None  # max tokens kept per text
    l2_normalize: bool = True

    def __post_init__(self):
        if self.dim < 2:
            raise InputError("featurizer dim must be >= 2")


_TOKEN_RE = re.compile(r"[\w']+")


def featurize(text: str, config: FeaturizerConfig, out: np.ndarray | None = None) -> np.ndarray:
    """Hashed bag-of-words: lowercase, split on non-word chars, hash to [0, D).

    The vector is written into ``out`` (a float64 row of length D) if given.
    """
    tokens = _TOKEN_RE.findall(text.lower())
    if config.truncate is not None:
        tokens = tokens[: config.truncate]
    hashes = np.fromiter((zlib.crc32(tok.encode("utf-8")) for tok in tokens),
                         dtype=np.int64, count=len(tokens))
    counts = np.bincount(hashes % config.dim, minlength=config.dim)
    if out is None:
        out = np.empty(config.dim)
    out[:] = counts
    if config.l2_normalize:
        norm = np.linalg.norm(out)
        if norm > 0:
            out /= norm
    return out


class BatchStream:
    """Single-pass batch iterator over an ordered sequence of tasks.

    Iterating yields plain ``Batch`` objects; ``with_task_ids`` additionally
    yields the originating task id for harness-side diagnostics and memory
    tagging. Each example is emitted exactly once.
    """

    def __init__(self, tasks, config: StreamConfig, rng: np.random.Generator):
        if not tasks:
            raise InputError("empty task list")
        if sorted(config.order) != list(range(len(tasks))):
            raise InputError("order must be a permutation of task positions")
        for t in tasks:
            if t.size == 0:
                raise InputError(f"task {t.task_id} is empty")
        if len({t.features.shape[1:] for t in tasks}) > 1:
            raise InputError("all tasks need one feature shape (one candidate count K per run)")
        self.tasks = [tasks[i] for i in config.order]
        self.config = config
        self._rng = rng

    def total_batches(self) -> int:
        b = self.config.batch_size
        return sum(-(-t.size // b) for t in self.tasks)

    def with_task_ids(self):
        b = self.config.batch_size
        for task in self.tasks:
            perm = self._rng.permutation(task.size)
            for start in range(0, task.size, b):
                yield task.take(perm[start : start + b]), task.task_id

    def __iter__(self):
        for batch, _ in self.with_task_ids():
            yield batch


def pooled_batches(tasks, batch_size: int, rng: np.random.Generator, epochs: int = 1):
    """I.i.d. batches from the pool of all tasks, reshuffled every epoch (MTL)."""
    features = np.vstack([t.features for t in tasks])
    labels = np.concatenate([t.labels for t in tasks])
    n = features.shape[0]
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = perm[start : start + batch_size]
            yield Batch(features[idx], labels[idx])


# ---------------------------------------------------------------------------
# Synthetic suites
# ---------------------------------------------------------------------------

@dataclass
class Suite:
    """Train and test TaskSpecs plus the generator settings that made them."""

    train: list
    test: list
    meta: dict = field(default_factory=dict)

    @property
    def num_classes(self) -> int:
        return int(max(t.labels.max() for t in self.train)) + 1


def make_synthetic_suite(
    kind: str,
    num_tasks: int,
    classes_per_task: int,
    examples_per_class: int,
    input_dim: int,
    seed: int,
    test_per_class: int = 0,
    separation: float = 4.0,
) -> Suite:
    """Gaussian-cluster task suite with disjoint class ids across tasks.

    BALANCED gives every task the same size. IMBALANCED reassigns the total
    example budget so one or two tasks hold at least half of all examples,
    while test sets stay balanced for comparable per-task accuracy.
    """
    if num_tasks < 2:
        raise InputError("need at least 2 tasks")
    if kind not in ("BALANCED", "IMBALANCED"):
        raise InputError(f"unknown suite kind {kind!r}")
    if seed < 0:
        raise InputError("suite seed must be non-negative")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5017E]))
    num_classes = num_tasks * classes_per_task

    # Unit-variance clusters with the closest pair of class means exactly
    # `separation` apart, so task difficulty tracks the separation knob.
    means = rng.normal(0.0, 1.0, size=(num_classes, input_dim))
    dists = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=-1)
    np.fill_diagonal(dists, np.inf)
    means *= separation / dists.min()

    total = num_tasks * classes_per_task * examples_per_class
    if kind == "BALANCED":
        task_sizes = [classes_per_task * examples_per_class] * num_tasks
    else:
        # One dominant task (~50%) and one secondary (~20%) of the budget.
        shares = np.full(num_tasks, 0.3 / max(num_tasks - 2, 1))
        big, second = rng.choice(num_tasks, size=2, replace=False)
        shares[big], shares[second] = 0.5, 0.2
        task_sizes = np.maximum((shares * total).astype(int), classes_per_task)
        task_sizes[big] += total - int(task_sizes.sum())  # keep the total budget
        task_sizes = task_sizes.tolist()

    train, test = [], []
    for t in range(num_tasks):
        classes = np.arange(t * classes_per_task, (t + 1) * classes_per_task)
        n = task_sizes[t]
        labels = classes[np.arange(n) % classes_per_task]
        feats = means[labels] + rng.standard_normal((n, input_dim))
        perm = rng.permutation(n)
        train.append(TaskSpec(t, feats[perm], labels[perm]))
        if test_per_class > 0:
            nt = classes_per_task * test_per_class
            tlabels = classes[np.arange(nt) % classes_per_task]
            tfeats = means[tlabels] + rng.standard_normal((nt, input_dim))
            test.append(TaskSpec(t, tfeats, tlabels))

    meta = dict(
        kind=kind,
        num_tasks=num_tasks,
        classes_per_task=classes_per_task,
        examples_per_class=examples_per_class,
        input_dim=input_dim,
        seed=seed,
        test_per_class=test_per_class,
        separation=separation,
        task_sizes=task_sizes,
    )
    return Suite(train, test, meta)


def load_text_task(path, task_id: int, config: FeaturizerConfig) -> TaskSpec:
    """Load one task from a UTF-8 file of ``label<TAB>text`` lines.

    Labels are non-negative integers in the global label space.
    """
    labels, texts = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                label, text = line.split("\t", 1)
                labels.append(int(label))
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: expected 'label<TAB>text'") from exc
            texts.append(text)
    if not texts:
        raise InputError(f"{path}: no records")
    feats = np.empty((len(texts), config.dim))
    for row, text in zip(feats, texts):
        featurize(text, config, row)
    return TaskSpec(task_id, feats, np.array(labels))
