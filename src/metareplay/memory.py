"""Episodic memory with probabilistic writes and uniform sampling."""

from __future__ import annotations

import numpy as np

from .numerics import InputError
from .stream import Batch


class EpisodicMemory:
    """Append-only store of seen examples, held in arrays sized to the stream.

    Each offered example is admitted independently with probability
    ``p_write``. Sampling is uniform without replacement within a call; task
    ids are stored for composition diagnostics only and never reach learners.

    ``capacity`` is the number of examples the stream will offer, so the
    buffers are allocated once and never grow; offering more raises
    ``InputError``. The feature buffer is allocated by the first write, with
    that batch's row shape and dtype. Pages of a buffer that no admitted row
    has touched are never resident, so resident memory is the admitted rows.

    Admission uses one uniform from ``write_rng`` per offered example, in
    offer order, all drawn here: the i-th offered example is admitted if the
    i-th draw is below ``p_write``. Drawing them one write at a time would
    give the same values. ``p_write`` 1 admits everything and draws nothing.
    """

    def __init__(self, p_write: float, capacity: int, write_rng: np.random.Generator,
                 sample_rng: np.random.Generator):
        if not 0.0 <= p_write <= 1.0:
            raise InputError("p_write must be in [0, 1]")
        if capacity < 0:
            raise InputError("memory capacity must be non-negative")
        self.p_write = p_write
        self.capacity = capacity
        self._admit = (np.ones(capacity, dtype=bool) if p_write >= 1.0
                       else write_rng.random(capacity) < p_write)
        self._sample_rng = sample_rng
        self._features = None  # (capacity, d) or (capacity, K, d)
        self._labels = np.empty(capacity, dtype=np.int64)
        self._task_ids = np.empty(capacity, dtype=np.int64)
        self._size = 0
        self.offers = 0
        self.short_samples = 0

    def __len__(self):
        return self._size

    def write(self, batch, task_id: int) -> int:
        """Offer every example in the batch; returns the number admitted."""
        features = batch.features
        n = len(features)
        offered = self.offers
        if offered + n > self.capacity:
            raise InputError(f"memory capacity {self.capacity} exceeded: "
                             f"{offered + n} examples offered")
        self.offers = offered + n
        start = self._size
        rows = self._admit[offered:offered + n].nonzero()[0]
        stop = start + len(rows)
        if stop == start:
            return 0
        store = self._features
        if store is None:
            store = self._features = np.empty((self.capacity,) + features.shape[1:],
                                              features.dtype)
        elif features.shape[1:] != store.shape[1:]:
            raise InputError(f"feature rows of shape {features.shape[1:]} do not match "
                             f"the stored {store.shape[1:]}")
        # every index is in range, so "clip" only skips take's buffered check
        features.take(rows, axis=0, out=store[start:stop], mode="clip")
        self._labels[start:stop] = batch.labels[rows]
        self._task_ids[start:stop] = task_id
        self._size = stop
        return stop - start

    def sample(self, n: int):
        """Uniform sample of ``n`` distinct stored examples, as a copy.

        If fewer than ``n`` items are stored, returns everything and counts a
        short sample.
        """
        size = self._size
        if size == 0:
            raise InputError("cannot sample from an empty memory")
        if n >= size:
            if n > size:
                self.short_samples += 1
            idx = self._sample_rng.permutation(size)
        else:
            idx = self._sample_rng.choice(size, size=n, replace=False)
        return Batch(self._features.take(idx, axis=0), self._labels.take(idx))

    def composition(self) -> dict:
        """Stored-example counts keyed by diagnostic task id, in id order."""
        ids, counts = np.unique(self._task_ids[:self._size], return_counts=True)
        return dict(zip(ids.tolist(), counts.tolist()))

    def dump(self, path):
        """Write (task id, label) lines for composition audits."""
        size = self._size
        with open(path, "w", encoding="utf-8") as fh:
            for tid, label in zip(self._task_ids[:size].tolist(), self._labels[:size].tolist()):
                fh.write(f"{tid}\t{label}\n")
