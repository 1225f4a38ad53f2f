"""Task streams, featurization, and synthetic task suites.

A continual run makes exactly one pass over a stream of tasks. Examples are
shuffled within a task (locally i.i.d.) but tasks are never interleaved, and
batches never span a task boundary. A batch carries features, labels and
the split rows it was taken from, never a task id.

A suite's train (or test) side is one split: one features store and one
labels array. The store is a dense array, or for hashed text a
``HashedRows`` (sparse rows that read as dense ones). Each task is a
consecutive row range of its split, so the task of a split row follows from
the tasks' offsets.
"""

from __future__ import annotations

import itertools
import re
import zlib
from dataclasses import dataclass, field

import numpy as np

from .numerics import InputError


@dataclass(frozen=True)
class Batch:
    """What a learner sees: features, labels and the split rows, no task id.

    Class-label mode: ``features`` is (n, d) and ``labels`` holds class
    indices. Candidate-ranking mode: ``features`` is (n, K, d), one
    (input, candidate) pair row per candidate, and ``labels`` holds the index
    of the true candidate in [0, K).

    ``rows`` holds the split rows a batch was taken from (``TaskSpec.take``
    sets it; any other batch has None). The episodic memory stores them
    instead of copying features, and A-GEM reads the task of a batch's
    first row from them.
    """

    features: np.ndarray
    labels: np.ndarray  # (n,)
    rows: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __len__(self):
        return self.features.shape[0]


@dataclass
class TaskSpec:
    """One task's labelled examples: rows [offset, offset + size) of a split.

    ``features`` and ``labels`` are views of the split's features store
    (an array or ``HashedRows``) and labels array, and
    ``whole`` is the split as a TaskSpec of its own. A TaskSpec built by hand
    (no ``whole``) is its own split, at offset 0. The id is for
    evaluation/diagnostics only.
    """

    task_id: int
    features: np.ndarray | HashedRows
    labels: np.ndarray
    offset: int = 0
    whole: TaskSpec | None = field(default=None, repr=False)

    @property
    def split(self) -> TaskSpec:
        return self if self.whole is None else self.whole

    @property
    def size(self) -> int:
        return self.features.shape[0]

    def take(self, idx):
        """A copy of the rows at an integer index array ``idx`` into this
        task, recording them as split rows."""
        rows = idx if self.whole is None else np.arange(self.offset, self.offset + self.size)[idx]
        return Batch(self.features.take(idx, axis=0), self.labels.take(idx), rows)

    def full_batch(self):
        """The whole task as a read-only batch over the task's own arrays
        (over a dense copy of ``HashedRows`` features)."""
        features, labels = np.asarray(self.features).view(), self.labels.view()
        features.flags.writeable = labels.flags.writeable = False
        return Batch(features, labels)


def split_tasks(task_ids, features, labels, sizes) -> list:
    """TaskSpecs over consecutive row ranges of one split, ``sizes[i]`` rows
    for the i-th id; ``features`` and ``labels`` hold every row of the split."""
    if sum(sizes) != features.shape[0] or labels.shape != features.shape[:1]:
        raise InputError("task sizes must add up to the split's rows")
    whole = TaskSpec(-1, features, labels)
    tasks, offset = [], 0
    for task_id, size in zip(task_ids, sizes):
        stop = offset + size
        tasks.append(TaskSpec(task_id, features[offset:stop], labels[offset:stop],
                              offset, whole))
        offset = stop
    return tasks


def one_split(tasks) -> TaskSpec:
    """The split that ``tasks`` cover in list order, without gaps or overlaps."""
    if not tasks:
        raise InputError("empty task list")
    split = tasks[0].split
    starts = np.cumsum([0] + [t.size for t in tasks]).tolist()
    if starts[-1] == split.size and all(t.split is split and t.offset == start
                                        for t, start in zip(tasks, starts)):
        return split
    raise InputError("tasks must be the consecutive row ranges of one split: one features "
                     "array, so one row shape (one candidate count K per run)")


@dataclass(frozen=True)
class FeaturizerConfig:
    dim: int = 2048
    truncate: int | None = None  # max tokens kept per text
    l2_normalize: bool = True

    def __post_init__(self):
        if not 2 <= self.dim <= 2**32:  # crc32 reaches no bucket past 2**32
            raise InputError("featurizer dim must be in [2, 2**32]")
        if self.truncate is not None and self.truncate < 0:
            raise InputError("featurizer truncate must be >= 0")


_TOKEN_RE = re.compile(r"[\w']+")
# ASCII code point -> its lowercase if _TOKEN_RE can match it, else a space.
# On ASCII text ``str.lower`` changes only A-Z, and no token character is
# whitespace, so ``text.translate(_ASCII_SEPARATORS).split()`` gives the
# tokens of ``_TOKEN_RE.findall(text.lower())``.
_ASCII_SEPARATORS = "".join(c.lower() if _TOKEN_RE.fullmatch(c) else " "
                            for c in map(chr, range(128)))


class _Buckets(dict):
    """token -> its hashed bucket in [0, dim); each distinct token is hashed
    once per table, and one ``load_text_tasks`` call builds one table."""

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim

    def __missing__(self, token):
        bucket = self[token] = zlib.crc32(token.encode("utf-8")) % self.dim
        return bucket


class HashedRows:
    """The hashed bag-of-words rows of a text split, stored sparse (CSR).

    Row i has the bucket counts ``counts[indptr[i]:indptr[i + 1]]`` at the
    buckets ``cols[indptr[i]:indptr[i + 1]]``, in ascending bucket order,
    and its values are those counts divided by ``norms[i]`` (its L2 norm,
    or 1.0 in a split that is not normalized). That is an int64 row pointer
    and a float64 norm per row, and per entry a count in the smallest
    unsigned type that holds the split's largest count and a bucket in the
    smallest one that holds ``dim - 1`` (at most 4 bytes). It stands in for
    the dense float64 ``(n, dim)`` array wherever a split's features are
    read: a row-range slice is a view over the same arrays, and indexing
    with an integer array, ``take(rows, axis=0)`` and ``np.asarray`` return
    dense float64 rows, each value computed as it is read. Negative and
    out-of-range rows behave as in numpy.
    """

    def __init__(self, indptr, cols, counts, norms, dim: int):
        self.indptr, self.cols, self.counts, self.norms = indptr, cols, counts, norms
        self.shape = (len(norms), dim)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            rows = range(self.shape[0])[idx]
            if rows.step != 1:
                raise IndexError("a HashedRows slice must be a row range (step 1)")
            stop = rows.start + len(rows)
            return HashedRows(self.indptr[rows.start:stop + 1], self.cols, self.counts,
                              self.norms[rows.start:stop], self.shape[1])
        return self.take(idx)

    def take(self, rows, axis=0):
        """Dense float64 copies of the rows at the integer index array ``rows``,
        as ``ndarray.take(rows, axis=0)`` gives them; rows are the only axis."""
        if axis != 0:
            raise ValueError("HashedRows.take gathers rows: axis must be 0")
        starts = self.indptr[:-1].take(rows)
        lengths = self.indptr[1:].take(rows) - starts
        dim = self.shape[1]
        out = np.zeros((len(starts), dim))
        # pos: the selected rows' cols/counts positions, run after run; flat:
        # where each entry lands in ``out``.
        ends = lengths.cumsum()
        pos = np.repeat(starts - ends + lengths, lengths)
        pos += np.arange(len(pos))
        flat = np.repeat(np.arange(0, len(starts) * dim, dim), lengths)
        flat += self.cols.take(pos)
        out.ravel()[flat] = self.counts.take(pos) / np.repeat(self.norms.take(rows), lengths)
        return out

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("densifying HashedRows always copies, so copy=False cannot be met")
        return self.take(np.arange(self.shape[0]))


def _hashed_rows(lengths, keys, config: FeaturizerConfig) -> tuple:
    """(indptr, cols, counts, norms) of the bucket-count rows of documents of
    ``lengths`` tokens whose int64 buckets are concatenated in ``keys``
    (overwritten); the norms are 1.0 unless the config L2-normalizes.

    A row's norm is the square root of the exact integer sum of its squared
    counts, equal to ``np.linalg.norm`` of the dense row while that sum is
    below 2**53, so each count / norm is bit-identical to the dense value.
    """
    dim, n = config.dim, len(lengths)
    keys += np.repeat(np.arange(0, n * dim, dim, dtype=np.int64), lengths)
    keys, counts = np.unique(keys, return_counts=True)
    indptr = keys.searchsorted(np.arange(0, (n + 1) * dim, dim, dtype=np.int64))
    cols = np.remainder(keys, dim, out=keys).astype(np.min_scalar_type(dim - 1))
    if config.l2_normalize:
        squares = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts * counts, out=squares[1:])
        norms = np.sqrt(np.diff(squares[indptr]))
    else:
        norms = np.ones(n)
    return indptr, cols, counts.astype(np.min_scalar_type(counts.max(initial=0))), norms


class BatchStream:
    """Batch iterator over an ordered sequence of tasks, one pass per iteration.

    The tasks, taken in ``order`` (a permutation of their positions), must
    cover one split. Iterating yields plain ``Batch`` objects taken from the
    split, so their ``rows`` are split rows; each example once per iteration.
    """

    def __init__(self, tasks, order, batch_size: int, rng: np.random.Generator):
        self.split = one_split(tasks)
        if sorted(order) != list(range(len(tasks))):
            raise InputError("order must be a permutation of task positions")
        for t in tasks:
            if t.size == 0:
                raise InputError(f"task {t.task_id} is empty")
        self.tasks = [tasks[i] for i in order]
        self.batch_size = batch_size
        self._rng = rng

    def __iter__(self):
        b = self.batch_size
        take = self.split.take
        for task in self.tasks:
            rows = self._rng.permutation(task.size) + task.offset
            for start in range(0, task.size, b):
                yield take(rows[start : start + b])


# ---------------------------------------------------------------------------
# Synthetic suites
# ---------------------------------------------------------------------------

@dataclass
class Suite:
    """Train and test TaskSpecs."""

    train: list
    test: list

    @property
    def num_classes(self) -> int:
        return int(max(t.labels.max() for t in self.train)) + 1


# The largest separation whose square is a finite float64.
_MAX_SEPARATION = float(np.sqrt(np.finfo(np.float64).max))
# Pairwise differences per block of _closest_distance (8 MB), or one row's.
_PAIR_BLOCK = 2**20


def _closest_distance(points) -> np.float64:
    """The smallest Euclidean distance between two rows of ``points``, with
    the bits of one ``(n, n, d)`` broadcast's; a block of rows at a time is
    compared with all rows, so the temporary stays bounded."""
    rows = max(1, _PAIR_BLOCK // max(points.size, 1))

    def block_min(lo):
        dists = np.linalg.norm(points[lo:lo + rows, None] - points, axis=-1)
        dists[np.arange(len(dists)), np.arange(lo, lo + len(dists))] = np.inf
        return dists.min()

    return min(map(block_min, range(0, len(points), rows)))


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
    if min(classes_per_task, input_dim) < 1:
        raise InputError("classes_per_task and input_dim must be >= 1")
    if kind not in ("BALANCED", "IMBALANCED"):
        raise InputError(f"unknown suite kind {kind!r}")
    if seed < 0:
        raise InputError("suite seed must be non-negative")
    if not abs(separation) <= _MAX_SEPARATION:
        raise InputError(f"suite separation {separation} is too large: squared distances "
                         "between class means would overflow float64")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5017E]))
    num_classes = num_tasks * classes_per_task

    # Unit-variance clusters with the closest pair of class means exactly
    # `separation` apart, so task difficulty tracks the separation knob.
    means = rng.normal(0.0, 1.0, size=(num_classes, input_dim))
    means *= separation / _closest_distance(means)

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
        if task_sizes[big] < classes_per_task:  # a class of it would never be trained
            raise InputError(f"an IMBALANCED budget of {total} examples is too small: its dominant "
                             f"task would get {task_sizes[big]} for its {classes_per_task} classes")
        task_sizes = task_sizes.tolist()

    # One train split and one test split, filled task by task with the draws
    # in the order per-task arrays would take them.
    starts = np.cumsum([0] + task_sizes).tolist()
    train_f, train_l = np.empty((starts[-1], input_dim)), np.empty(starts[-1], dtype=np.int64)
    nt = classes_per_task * test_per_class
    test_f, test_l = np.empty((num_tasks * nt, input_dim)), np.empty(num_tasks * nt, dtype=np.int64)
    for t in range(num_tasks):
        classes = np.arange(t * classes_per_task, (t + 1) * classes_per_task)
        n = task_sizes[t]
        labels = classes[np.arange(n) % classes_per_task]
        feats = means[labels] + rng.standard_normal((n, input_dim))
        perm = rng.permutation(n)
        train_f[starts[t]:starts[t + 1]] = feats[perm]
        train_l[starts[t]:starts[t + 1]] = labels[perm]
        if nt > 0:
            tlabels = classes[np.arange(nt) % classes_per_task]
            test_l[t * nt:(t + 1) * nt] = tlabels
            test_f[t * nt:(t + 1) * nt] = means[tlabels] + rng.standard_normal((nt, input_dim))
    train = split_tasks(range(num_tasks), train_f, train_l, task_sizes)
    test = split_tasks(range(num_tasks), test_f, test_l, [nt] * num_tasks) if nt > 0 else []
    return Suite(train, test)


def _records(path):
    """The (label, text) of each non-blank ``label<TAB>text`` line of a UTF-8
    file, which may start with a byte-order mark."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    raw, text = line.split("\t", 1)
                    label = int(raw)
                except ValueError as exc:
                    raise InputError(f"{path}:{lineno}: expected 'label<TAB>text'") from exc
                if label < 0:
                    raise InputError(f"{path}:{lineno}: label {label} is negative")
                if not (raw.isascii() and raw.isdigit()):  # int() also takes 1_0, +1, ' 0'
                    raise InputError(f"{path}:{lineno}: expected 'label<TAB>text'")
                if label >= 2**63:
                    raise InputError(f"{path}:{lineno}: label {label} does not fit in int64")
                yield label, text
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: cannot read dataset file: {exc}") from exc


_BLOCK_DOCS = 4096  # documents featurized at once; bounds the loader's temporaries


def _file_rows(path, bucket, config: FeaturizerConfig):
    """Yield (labels, indptr, cols, counts, norms) of each block of up to
    ``_BLOCK_DOCS`` consecutive documents of one file, in file order;
    ``bucket`` maps a token to its bucket."""
    records, truncate = _records(path), config.truncate

    def documents(labels, lengths):
        for label, text in itertools.islice(records, _BLOCK_DOCS):
            labels.append(label)
            words = (text.translate(_ASCII_SEPARATORS).split() if text.isascii()
                     else _TOKEN_RE.findall(text.lower()))
            if truncate is not None:
                words = words[:truncate]
            lengths.append(len(words))
            yield words

    while True:
        labels, lengths = [], []
        tokens = itertools.chain.from_iterable(documents(labels, lengths))
        buckets = np.fromiter(map(bucket, tokens), dtype=np.int64)
        if not labels:
            return
        yield (labels, *_hashed_rows(lengths, buckets, config))


def _extend(store: np.ndarray, piece: np.ndarray) -> np.ndarray:
    """``store`` with ``piece`` appended, grown in place (one realloc) so the
    entries stored so far are never held twice, unless ``piece`` needs a wider
    dtype: then ``store`` is promoted to it first. No view of ``store`` may exist."""
    dtype = np.promote_types(store.dtype, piece.dtype)
    if dtype != store.dtype:
        store = store.astype(dtype)
    start = len(store)
    store.resize(start + len(piece), refcheck=False)
    store[start:] = piece
    return store


def load_text_tasks(splits, config: FeaturizerConfig) -> list:
    """Load each split of ``splits`` (a list of path lists) from UTF-8 files
    of ``label<TAB>text`` lines, one task per file, with the file's position
    in its split as its task id; return each split's task list.

    Labels are non-negative int64 integers in the global label space. Each
    text is tokenized (lowercased, split into runs of word characters and
    apostrophes, cut to ``truncate`` tokens) as it is read and each distinct
    token is hashed to a bucket in [0, dim) once per call: the splits share
    one token table. A split's features are the ``HashedRows`` of the bucket
    counts, never a dense array. Each file is featurized in blocks of
    ``_BLOCK_DOCS`` documents, each block's rows appended to the store, so
    the temporaries of loading are bounded by the block size, not by the
    size of a file or of the split.
    """
    bucket = _Buckets(config.dim).__getitem__
    loaded = []
    for paths in splits:
        labels, sizes, ends, norms = [], [], [np.zeros(1, dtype=np.int64)], []
        cols, counts = np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.uint8)
        for path in paths:
            start = len(labels)
            for block_labels, indptr, block_cols, block_counts, block_norms in _file_rows(
                    path, bucket, config):
                labels += block_labels
                ends.append(indptr[1:] + len(cols))
                norms.append(block_norms)
                cols, counts = _extend(cols, block_cols), _extend(counts, block_counts)
            if len(labels) == start:
                raise InputError(f"{path}: no records")
            sizes.append(len(labels) - start)
        features = HashedRows(np.concatenate(ends), cols, counts, np.concatenate(norms),
                              config.dim)
        loaded.append(split_tasks(range(len(paths)), features,
                                  np.array(labels, dtype=np.int64), sizes))
    return loaded
