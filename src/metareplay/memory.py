"""Episodic memory with probabilistic writes and uniform sampling."""

from __future__ import annotations

import numpy as np

from .numerics import InputError
from .stream import Batch


class EpisodicMemory:
    """Append-only store of seen examples, held as references into the tasks.

    The memory is built over the run's training tasks and keeps no feature
    buffer: for each admitted example it stores the position of its task,
    its row index in that task (read from the written batch's ``rows``, set
    by ``TaskSpec.take``), its label and, through the task, its diagnostic
    task id. A sample gathers the rows from the tasks' features, so the
    tasks' arrays must not be mutated while the memory is in use.

    Each offered example is admitted independently with probability
    ``p_write``. Sampling is uniform without replacement within a call; task
    ids are stored for composition diagnostics only and never reach learners.

    The capacity is the tasks' total size, the number of examples a
    single-pass stream offers, so the arrays are allocated once and never
    grow; offering more raises ``InputError``. Their size does not depend on
    the feature width.

    Admission uses one uniform from ``write_rng`` per offered example, in
    offer order, all drawn here: the i-th offered example is admitted if the
    i-th draw is below ``p_write``. Drawing them one write at a time would
    give the same values. ``p_write`` 1 admits everything and draws nothing.
    """

    def __init__(self, p_write: float, tasks, write_rng: np.random.Generator,
                 sample_rng: np.random.Generator):
        if not 0.0 <= p_write <= 1.0:
            raise InputError("p_write must be in [0, 1]")
        kinds = {(t.features.shape[1:], t.features.dtype) for t in tasks}
        if len(kinds) != 1:
            raise InputError("the memory needs tasks with one feature row shape and dtype")
        (self._row_shape, self._dtype), = kinds
        self.p_write = p_write
        self.capacity = capacity = sum(t.size for t in tasks)
        self._tasks = list(tasks)
        self._task_ids = np.array([t.task_id for t in tasks], dtype=np.int64)
        self._positions = {}  # task id -> task position, or -1 if ambiguous
        for pos, t in enumerate(tasks):
            self._positions[t.task_id] = -1 if t.task_id in self._positions else pos
        self._admit = (np.ones(capacity, dtype=bool) if p_write >= 1.0
                       else write_rng.random(capacity) < p_write)
        self._sample_rng = sample_rng
        self._task_pos = np.empty(capacity, dtype=np.int64)
        self._rows = np.empty(capacity, dtype=np.int64)
        self._labels = np.empty(capacity, dtype=np.int64)
        self._size = 0
        self.offers = 0
        self.short_samples = 0

    def __len__(self):
        return self._size

    def write(self, batch, task_id: int) -> int:
        """Offer every example in the batch; returns the number admitted.

        ``batch`` must come from ``TaskSpec.take`` on the task ``task_id``
        names among the memory's tasks.
        """
        rows = batch.rows
        if rows is None:
            raise InputError("a written batch needs the task rows it was taken from")
        pos = self._positions.get(task_id)
        if pos is None:
            raise InputError(f"task id {task_id} is not one of the memory's tasks")
        if pos < 0:
            raise InputError(f"task id {task_id} is used by two of the memory's tasks")
        if batch.features.shape[1:] != self._row_shape:
            raise InputError(f"feature rows of shape {batch.features.shape[1:]} do not "
                             f"match the tasks' {self._row_shape}")
        n = len(rows)
        offered = self.offers
        if offered + n > self.capacity:
            raise InputError(f"memory capacity {self.capacity} exceeded: "
                             f"{offered + n} examples offered")
        self.offers = offered + n
        start = self._size
        admitted = self._admit[offered:offered + n].nonzero()[0]
        stop = start + len(admitted)
        if stop == start:
            return 0
        self._rows[start:stop] = rows[admitted]
        self._labels[start:stop] = batch.labels[admitted]
        self._task_pos[start:stop] = pos
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
        # Gather task by task into a buffer grouped by task (in any order
        # within a task), then put the rows back in sampled order.
        pos = self._task_pos.take(idx)
        order = pos.argsort()
        rows = self._rows.take(idx.take(order))
        grouped = np.empty((len(idx),) + self._row_shape, self._dtype)
        start = 0
        ends = np.bincount(pos, minlength=len(self._tasks)).cumsum().tolist()
        for task, end in zip(self._tasks, ends):
            if end > start:
                # every row index came from a take on this task, so "wrap"
                # only maps negative indices and skips the buffered check
                task.features.take(rows[start:end], axis=0, out=grouped[start:end],
                                   mode="wrap")
            start = end
        features = np.empty_like(grouped)
        features[order] = grouped
        return Batch(features, self._labels.take(idx))

    def composition(self) -> dict:
        """Stored-example counts keyed by diagnostic task id, in id order."""
        ids, counts = np.unique(self._stored_task_ids(), return_counts=True)
        return dict(zip(ids.tolist(), counts.tolist()))

    def dump(self, path):
        """Write (task id, label) lines for composition audits."""
        labels = self._labels[:self._size].tolist()
        with open(path, "w", encoding="utf-8") as fh:
            for tid, label in zip(self._stored_task_ids().tolist(), labels):
                fh.write(f"{tid}\t{label}\n")

    def _stored_task_ids(self):
        return self._task_ids.take(self._task_pos[:self._size])
