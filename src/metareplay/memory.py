"""Episodic memory with probabilistic writes and uniform sampling."""

from __future__ import annotations

import numpy as np

from .numerics import InputError
from .stream import Batch, one_split


class EpisodicMemory:
    """Append-only store of seen examples, held as row references into a split.

    The memory is built over the run's training tasks, which must cover one
    split (see ``stream.split_tasks``), and keeps no feature buffer: for each
    admitted example it stores one split row, read from the written batch's
    ``rows`` (set by ``TaskSpec.take``). A sample gathers the rows from the
    split's features and labels, so the split's arrays must not be mutated
    while the memory is in use.

    Each offered example is admitted independently with probability
    ``p_write``. Sampling is uniform without replacement within a call; task
    ids follow from the rows and the tasks' offsets, for composition
    diagnostics only, and never reach learners.

    The capacity is the split's size, the number of examples a single-pass
    stream offers, so the arrays are allocated once and never grow; offering
    more raises ``InputError``. Their size does not depend on the feature
    width.

    Admission uses one uniform from ``write_rng`` per offered example, in
    offer order, all drawn here: the i-th offered example is admitted if the
    i-th draw is below ``p_write``. Drawing them one write at a time would
    give the same values. ``p_write`` 1 admits everything, since every draw
    is below 1; no other draw reads ``write_rng``.
    """

    def __init__(self, p_write: float, tasks, write_rng: np.random.Generator,
                 sample_rng: np.random.Generator):
        if not 0.0 <= p_write <= 1.0:
            raise InputError("p_write must be in [0, 1]")
        self._split = one_split(tasks)
        self._offsets = np.array([t.offset for t in tasks], dtype=np.int64)
        self._task_ids = np.array([t.task_id for t in tasks], dtype=np.int64)
        self.capacity = capacity = self._split.size
        self._admit = write_rng.random(capacity) < p_write
        self._sample_rng = sample_rng
        self._rows = np.empty(capacity, dtype=np.int64)
        self._size = 0
        self.offers = 0

    def __len__(self):
        return self._size

    def admits_any(self) -> bool:
        """Whether any of the ``capacity`` offers of one pass will be admitted."""
        return bool(self._admit.any())

    def write(self, batch) -> int:
        """Offer every example in the batch; returns the number admitted.

        ``batch`` must come from ``TaskSpec.take`` on the memory's split or
        one of its tasks.
        """
        rows = batch.rows
        if rows is None:
            raise InputError("a written batch needs the split rows it was taken from")
        row_shape = self._split.features.shape[1:]
        if batch.features.shape[1:] != row_shape:
            raise InputError(f"feature rows of shape {batch.features.shape[1:]} do not "
                             f"match the split's {row_shape}")
        n = len(rows)
        offered = self.offers
        if offered + n > self.capacity:
            raise InputError(f"memory capacity {self.capacity} exceeded: "
                             f"{offered + n} examples offered")
        self.offers = offered + n
        start = self._size
        admitted = self._admit[offered:offered + n].nonzero()[0]
        stop = start + len(admitted)
        if stop > start:
            self._rows[start:stop] = rows[admitted]
            self._size = stop
        return stop - start

    def sample(self, n: int):
        """Uniform sample of ``n`` distinct stored examples, as a copy; all
        of them, in a random order, if ``n`` is at least the number stored."""
        size = self._size
        if size == 0:
            raise InputError("cannot sample from an empty memory")
        if n >= size:
            idx = self._sample_rng.permutation(size)
        else:
            idx = self._sample_rng.choice(size, size=n, replace=False)
        rows = self._rows.take(idx)
        return Batch(self._split.features.take(rows, axis=0), self._split.labels.take(rows))

    def task_ids(self, rows) -> np.ndarray:
        """The diagnostic task id of each split row in ``rows``."""
        pos = self._offsets.searchsorted(np.asarray(rows) % self.capacity, side="right") - 1
        return self._task_ids.take(pos)

    def composition(self) -> dict:
        """Stored-example counts keyed by diagnostic task id, in id order."""
        ids, counts = np.unique(self.task_ids(self._rows[:self._size]), return_counts=True)
        return dict(zip(ids.tolist(), counts.tolist()))

    def stored(self) -> tuple[list, list]:
        """The task ids and the labels of the stored examples, in storage order."""
        rows = self._rows[:self._size]
        return self.task_ids(rows).tolist(), self._split.labels.take(rows).tolist()
