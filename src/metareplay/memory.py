"""Episodic memory with probabilistic writes and uniform sampling."""

from __future__ import annotations

from collections import Counter

import numpy as np

from .numerics import InputError
from .stream import Batch


class EpisodicMemory:
    """Append-only store of seen examples.

    Each offered example is admitted independently with probability
    ``p_write``. Sampling is uniform without replacement within a call; task
    ids are stored for composition diagnostics only and never reach learners.
    """

    def __init__(self, p_write: float, write_rng: np.random.Generator, sample_rng: np.random.Generator):
        if not 0.0 <= p_write <= 1.0:
            raise InputError("p_write must be in [0, 1]")
        self.p_write = p_write
        self._write_rng = write_rng
        self._sample_rng = sample_rng
        self._features: list = []   # one (d,) or (K, d) feature row per example
        self._labels: list = []
        self._task_ids: list = []
        self.offers = 0
        self.short_samples = 0

    def __len__(self):
        return len(self._labels)

    def write(self, batch, task_id=None) -> int:
        """Offer every example in the batch; returns the number admitted."""
        n = len(batch)
        self.offers += n
        if self.p_write >= 1.0:
            admit = np.ones(n, dtype=bool)
        elif self.p_write <= 0.0:
            self._write_rng.random(n)  # keep the RNG stream aligned across p_write
            return 0
        else:
            admit = self._write_rng.random(n) < self.p_write
        for i in np.flatnonzero(admit):
            self._features.append(batch.features[i])
            self._labels.append(int(batch.labels[i]))
            self._task_ids.append(task_id)
        return int(admit.sum())

    def sample(self, n: int):
        """Uniform sample of ``n`` distinct stored examples.

        If fewer than ``n`` items are stored, returns everything and counts a
        short sample.
        """
        size = len(self)
        if size == 0:
            raise InputError("cannot sample from an empty memory")
        if n >= size:
            if n > size:
                self.short_samples += 1
            idx = self._sample_rng.permutation(size)
        else:
            idx = self._sample_rng.choice(size, size=n, replace=False)
        return Batch(
            np.array([self._features[i] for i in idx]),
            np.array([self._labels[i] for i in idx]),
        )

    def composition(self) -> dict:
        """Stored-example counts keyed by diagnostic task id."""
        return dict(Counter(self._task_ids))

    def dump(self, path):
        """Write (task id, label) lines for composition audits."""
        with open(path, "w", encoding="utf-8") as fh:
            for tid, label in zip(self._task_ids, self._labels):
                fh.write(f"{tid}\t{label}\n")
