"""Episodic memory: probabilistic admission and uniform sampling."""

from collections import Counter

import numpy as np
import pytest
from scipy import stats

from metareplay.memory import EpisodicMemory
from metareplay.numerics import InputError
from metareplay.episodes import ReplaySchedule
from metareplay.learners import LearnerConfig, train
from metareplay.model import Classifier, ModelConfig
from metareplay.stream import Batch, TaskSpec, make_synthetic_suite, split_tasks


def _rngs(seed):
    rng = np.random.default_rng(seed)
    return (np.random.default_rng(rng.integers(2**31)),
            np.random.default_rng(rng.integers(2**31)))


def _task(n, tag=0.0, task_id=0):
    """Rows (tag, row index), so a sampled row shows where it came from."""
    feats = np.full((n, 2), tag)
    feats[:, 1] = np.arange(n)
    return TaskSpec(task_id, feats, np.zeros(n, dtype=int))


def _split(*tasks):
    """The hand-built ``tasks`` as consecutive row ranges of one split."""
    return split_tasks([t.task_id for t in tasks],
                       np.concatenate([t.features for t in tasks]),
                       np.concatenate([t.labels for t in tasks]), [t.size for t in tasks])


TASK = _task(5000)


def _memory(p_write, seed=0, tasks=(TASK,)):
    return EpisodicMemory(p_write, tasks, *_rngs(seed))


def _batch(n, start=0, task=TASK):
    return task.take(np.arange(start, start + n))


class ListMemory:
    """Reference: the original list-of-rows memory, which copied every row."""

    def __init__(self, p_write, write_rng, sample_rng):
        self.p_write = p_write
        self._write_rng = write_rng
        self._sample_rng = sample_rng
        self._features, self._labels, self._task_ids = [], [], []
        self.offers = 0

    def __len__(self):
        return len(self._labels)

    def write(self, batch, task_id):
        n = len(batch)
        self.offers += n
        if self.p_write >= 1.0:
            admit = np.ones(n, dtype=bool)
        elif self.p_write <= 0.0:
            self._write_rng.random(n)
            return 0
        else:
            admit = self._write_rng.random(n) < self.p_write
        for i in np.flatnonzero(admit):
            self._features.append(batch.features[i])
            self._labels.append(int(batch.labels[i]))
            self._task_ids.append(task_id)
        return int(admit.sum())

    def sample(self, n):
        size = len(self)
        if n >= size:
            idx = self._sample_rng.permutation(size)
        else:
            idx = self._sample_rng.choice(size, size=n, replace=False)
        return Batch(np.array([self._features[i] for i in idx]),
                     np.array([self._labels[i] for i in idx]))

    def composition(self):
        return dict(Counter(self._task_ids))


def test_p_write_one_admits_everything():
    mem = _memory(1.0)
    admitted = mem.write(_batch(37))
    assert admitted == 37 and len(mem) == 37 and mem.offers == 37


def test_p_write_zero_admits_nothing():
    mem = _memory(0.0)
    assert mem.write(_batch(50)) == 0
    assert len(mem) == 0 and mem.offers == 50


def test_partial_p_write_within_binomial_bounds():
    p, n = 0.3, 5000
    mem = _memory(p, seed=4)
    mem.write(_batch(n))
    sigma = np.sqrt(n * p * (1 - p))
    assert abs(len(mem) - n * p) <= 3 * sigma


def test_writes_are_per_example_not_per_batch():
    # Across many small batches, admission still tracks p per example.
    p = 0.5
    mem = _memory(p, seed=8)
    for i in range(200):
        mem.write(_batch(10, start=10 * i))
    sigma = np.sqrt(2000 * p * (1 - p))
    assert abs(len(mem) - 1000) <= 3 * sigma


def test_sampling_is_uniform_chi_square():
    mem = _memory(1.0, seed=1)
    mem.write(_batch(40))
    counts = np.zeros(40)
    for _ in range(2000):
        sample = mem.sample(5)
        counts[sample.features[:, 1].astype(int)] += 1
    assert stats.chisquare(counts).pvalue > 1e-3


def test_sample_has_no_duplicates_within_a_call():
    mem = _memory(1.0, seed=2)
    mem.write(_batch(30))
    for _ in range(50):
        ids = mem.sample(12).features[:, 1]
        assert len(np.unique(ids)) == 12


def test_short_sample_returns_everything_and_counts():
    mem = _memory(1.0)
    mem.write(_batch(4))
    for n in (10, 4):  # more than stored, and exactly as many
        assert sorted(mem.sample(n).features[:, 1]) == [0, 1, 2, 3]


def test_empty_sample_raises():
    with pytest.raises(InputError):
        _memory(1.0).sample(1)


def test_composition_tracks_task_ids():
    zero, other = _split(_task(5), _task(5, task_id=2))
    mem = _memory(1.0, tasks=(zero, other))
    mem.write(_batch(5, task=zero))
    mem.write(_batch(3, task=other))
    mem.write(_batch(2, start=3, task=other))
    assert mem.composition() == {0: 5, 2: 5}


def test_invalid_p_write_raises():
    with pytest.raises(InputError):
        _memory(1.5)


def test_dump_format():
    """``stored`` gives each stored example's task id and label as plain
    ints, in storage order (the stored records of ``events.jsonl``)."""
    first, second = _split(TaskSpec(3, np.zeros((2, 2)), np.array([4, 7])),
                           TaskSpec(1, np.zeros((2, 2)), np.array([5, 6])))
    mem = _memory(1.0, tasks=(first, second))
    assert mem.stored() == ([], [])
    mem.write(first.take(np.arange(1)))
    mem.write(second.take(np.arange(2)))
    mem.write(first.take(np.arange(1, 2)))
    task_ids, labels = mem.stored()
    assert (task_ids, labels) == ([3, 1, 1, 3], [4, 5, 6, 7])
    assert {type(v) for v in task_ids + labels} == {int}


# -- the row-reference store against the list reference ----------------------

@pytest.mark.parametrize("row_shape", [(3,), (4, 3)], ids=["n-d", "n-K-d"])
@pytest.mark.parametrize("p_write", [0.0, 0.3, 1.0])
def test_matches_list_reference(p_write, row_shape):
    rng = np.random.default_rng(5)
    sizes = [16, 7, 16, 1, 16, 16, 3, 16, 16, 16]
    tids = [[3, 0, 2][step % 3] for step in range(len(sizes))]
    tasks = []
    for tid in (3, 0, 2):  # each task holds exactly the rows the stream takes from it
        n = sum(size for size, t in zip(sizes, tids) if t == tid)
        tasks.append(TaskSpec(tid, rng.standard_normal((n,) + row_shape), rng.integers(0, 5, n)))
    tasks = {t.task_id: t for t in _split(*tasks)}
    perms = {tid: iter(rng.permutation(t.size)) for tid, t in tasks.items()}
    mem = _memory(p_write, seed=11, tasks=list(tasks.values()))
    ref = ListMemory(p_write, *_rngs(11))
    assert mem.capacity == sum(sizes)
    for n, tid in zip(sizes, tids):
        batch = tasks[tid].take(np.fromiter(perms[tid], dtype=np.int64, count=n))
        assert mem.write(batch) == ref.write(batch, tid)
        assert len(mem) == len(ref)
        if len(ref) > 0:
            for k in (1, 5, len(ref), len(ref) + 4):  # the last two return every row
                got, want = mem.sample(k), ref.sample(k)
                assert got.features.dtype == want.features.dtype
                assert got.labels.dtype == want.labels.dtype
                np.testing.assert_array_equal(got.features, want.features)
                np.testing.assert_array_equal(got.labels, want.labels)
    assert mem.offers == ref.offers
    comp = mem.composition()
    assert comp == ref.composition()
    assert all(type(k) is int and type(v) is int for k, v in comp.items())


def test_write_past_capacity_raises():
    task = _task(10)
    mem = _memory(1.0, tasks=(task,))
    assert mem.capacity == 10
    mem.write(_batch(8, task=task))
    with pytest.raises(InputError, match="capacity"):
        mem.write(_batch(3, task=task))
    assert len(mem) == 8 and mem.offers == 8
    mem.write(_batch(2, start=8, task=task))
    assert len(mem) == 10


def test_write_with_other_row_shape_raises():
    mem = _memory(1.0)
    mem.write(_batch(3))
    with pytest.raises(InputError):
        mem.write(Batch(np.zeros((2, 3)), np.zeros(2, dtype=int), np.arange(2)))
    with pytest.raises(InputError):  # one row shape for all tasks
        _memory(1.0, tasks=(TASK, TaskSpec(1, np.zeros((2, 3)), np.zeros(2, dtype=int))))


def test_write_of_a_batch_without_rows_raises():
    mem = _memory(1.0)
    with pytest.raises(InputError, match="rows"):
        mem.write(Batch(np.zeros((2, 2)), np.zeros(2, dtype=int)))
    sample = _memory(1.0)
    sample.write(_batch(4))
    with pytest.raises(InputError, match="rows"):  # a memory sample has none
        mem.write(sample.sample(2))
    assert len(mem) == 0 and mem.offers == 0


def test_memory_needs_tasks_covering_one_split():
    tasks = _split(_task(4), _task(4, tag=1.0), _task(4, task_id=5))
    for bad in (tasks[1:], tasks[::-1], (TASK, _task(3))):
        with pytest.raises(InputError, match="one split"):
            _memory(1.0, tasks=bad)
    mem = _memory(1.0, tasks=tasks)  # a task id may repeat: ids are diagnostic
    assert mem.capacity == 12
    mem.write(tasks[2].take(np.arange(3)))
    mem.write(tasks[1].take(np.arange(2)))
    assert mem.composition() == {0: 2, 5: 3}


def test_sampled_batch_is_a_copy():
    task = _task(6, tag=1.0)
    mem = _memory(1.0, tasks=(task,))
    mem.write(_batch(6, task=task))
    out = mem.sample(6)
    out.features[:] = -1.0
    out.labels[:] = 9
    again = mem.sample(6)
    assert (again.features[:, 0] == 1.0).all() and (again.labels == 0).all()
    assert (task.features[:, 0] == 1.0).all() and (task.labels == 0).all()


def test_samples_gather_across_tasks_in_sampled_order():
    tasks = _split(*(_task(20, tag=float(t), task_id=t) for t in range(3)))
    mem = _memory(1.0, seed=3, tasks=tasks)
    for t in (2, 0, 1):  # task 0's rows are given as negative indices
        mem.write(tasks[t].take(np.arange(19, -1, -2) - 20 * (t == 0)))
    stored = np.concatenate([tasks[t].features[19::-2] for t in (2, 0, 1)])
    ref_rng = _rngs(3)[1]
    for k in (12, 30, 31):
        idx = (ref_rng.permutation(30) if k >= 30 else ref_rng.choice(30, size=k, replace=False))
        np.testing.assert_array_equal(mem.sample(k).features, stored[idx])


@pytest.mark.parametrize("method", ["OML_ER", "REPLAY"])
def test_memory_bytes_do_not_depend_on_feature_width(method):
    config = LearnerConfig(method, ReplaySchedule(8, 2, 16, 0.5), p_write=0.5)
    nbytes = []
    for dim in (4, 2048):
        suite = make_synthetic_suite("BALANCED", num_tasks=3, classes_per_task=2,
                                     examples_per_class=30, input_dim=dim, seed=0)
        model = Classifier(ModelConfig(input_dim=dim, encoder_dims=(8,), num_classes=6))
        _, memory, _ = train(model, suite.train, config, seed=0)
        assert len(memory) > 0
        assert memory.offers == memory.capacity == sum(t.size for t in suite.train)
        nbytes.append(sum(a.nbytes for a in vars(memory).values()
                          if isinstance(a, np.ndarray)))
    assert nbytes[0] == nbytes[1] < 2048 * 8 * len(memory)
