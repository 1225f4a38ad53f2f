"""Replay schedule arithmetic and episode assembly."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from metareplay.episodes import (
    MEMORY,
    STREAM,
    ReplaySchedule,
    meta_test_episode,
    next_episode,
    replay_frequency,
)
from metareplay.memory import EpisodicMemory
from metareplay.numerics import InputError
from metareplay.stream import Batch, TaskSpec

# The longest stream below offers 120 batches of 4; every row of batch i is i.
TASK = TaskSpec(0, np.repeat(np.arange(120.0), 4)[:, None].repeat(2, axis=1),
                np.zeros(480, dtype=int))


def _mem(seed=0):
    return EpisodicMemory(1.0, [TASK], np.random.default_rng(seed),
                          np.random.default_rng(seed + 1))


def _batch(i):
    return TASK.take(np.arange(4 * i, 4 * i + 4))


def _stream(n_batches):
    def gen():
        for i in range(n_batches):
            yield _batch(i), 0
    return gen()


def test_replay_frequency_reference_values():
    assert replay_frequency(9600, 16, 5) == 101
    assert replay_frequency(1600, 4, 5) == 67
    assert replay_frequency(1920, 16, 5) == 21


def test_schedule_derived_quantities():
    sched = ReplaySchedule(batch_size=16, support_size=5,
                           replay_interval=9600, replay_rate=0.01)
    assert sched.frequency == 101
    assert sched.replay_batch_size == 96
    assert sched.baseline_frequency == 600


def test_schedule_validation():
    with pytest.raises(InputError):
        ReplaySchedule(16, 5, 9600, 1.5)
    with pytest.raises(InputError):
        ReplaySchedule(16, 0, 9600, 0.01)
    with pytest.raises(InputError):
        ReplaySchedule(16, 5, 8, 0.5)   # interval shorter than one batch
    with pytest.raises(InputError):
        ReplaySchedule(16, 5, 9600, 0.00001)  # replay batch would be empty


@given(st.integers(min_value=1, max_value=64),
       st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=2000))
def test_at_least_interval_examples_between_replays(b, m, k):
    """Between consecutive memory-sourced queries the stream advances by
    (R_F - 1) full episodes plus the replay episode's support, which must
    cover at least R_I examples."""
    r_i = b * k
    r_f = replay_frequency(r_i, b, m)
    assert b * ((r_f - 1) * (m + 1) + m) >= r_i
    # And R_F is the smallest such integer.
    if r_f > 1:
        assert b * ((r_f - 2) * (m + 1) + m) < r_i


def test_memory_query_count_matches_floor_formula():
    sched = ReplaySchedule(batch_size=4, support_size=3, replay_interval=40,
                           replay_rate=0.1)
    n_batches = 120
    episodes = []
    it = _stream(n_batches)
    mem = _mem()
    index = 0
    while True:
        index += 1
        ep = next_episode(it, mem, sched, index)
        if ep is None:
            break
        if ep.query_source == STREAM and ep.query is not None:
            mem.write(ep.query, 0)
        for b in ep.support:
            mem.write(b, 0)
        episodes.append(ep)
    total = len(episodes)
    # Independent consumption simulation: support eats up to m batches; a
    # stream query eats one more unless the episode index lands on R_F.
    remaining, expected_total, expected_memory, idx = n_batches, 0, 0, 0
    while remaining > 0:
        idx += 1
        remaining -= min(sched.support_size, remaining)
        if idx % sched.frequency == 0 and idx > 1:
            expected_memory += 1
        elif remaining > 0:
            remaining -= 1
        expected_total += 1
    assert total == expected_total
    n_memory = sum(1 for e in episodes if e.query_source == MEMORY)
    assert n_memory == expected_memory
    consumed = sum(len(e.support) +
                   (1 if e.query_source == STREAM and e.query is not None else 0)
                   for e in episodes)
    assert consumed == n_batches
    assert n_memory == total // sched.frequency
    # Memory-sourced queries land exactly on multiples of R_F.
    assert all(e.index % sched.frequency == 0
               for e in episodes if e.query_source == MEMORY)


def test_replay_skipped_when_memory_empty():
    sched = ReplaySchedule(batch_size=4, support_size=3, replay_interval=16,
                           replay_rate=0.5)
    assert sched.frequency == 2
    it = _stream(8)
    mem = _mem()  # never written: every due replay must fall back to the stream
    ep1 = next_episode(it, mem, sched, 1)
    ep2 = next_episode(it, mem, sched, 2)
    assert ep1.query_source == STREAM and not ep1.replay_skipped
    assert ep2.query_source == STREAM and ep2.replay_skipped


def test_no_replay_flag_suppresses_memory_queries():
    sched = ReplaySchedule(batch_size=4, support_size=1, replay_interval=4,
                           replay_rate=1.0)
    it = _stream(20)
    mem = _mem()
    mem.write(_batch(0), 0)
    for index in range(1, 11):
        ep = next_episode(it, mem, sched, index, allow_replay=False)
        if ep is None:
            break
        assert ep.query_source == STREAM


def test_replay_query_does_not_consume_stream():
    sched = ReplaySchedule(batch_size=4, support_size=1, replay_interval=4,
                           replay_rate=1.0)
    assert sched.frequency == 1
    it = _stream(4)
    mem = _mem()
    mem.write(_batch(1), 0)
    seen = []
    for index in range(1, 10):
        ep = next_episode(it, mem, sched, index)
        if ep is None:
            break
        assert ep.query_source == MEMORY
        seen.extend(float(b.features[0, 0]) for b in ep.support)
    # All four stream batches became support; none was eaten by a query.
    assert seen == [0.0, 1.0, 2.0, 3.0]


def test_tail_promotes_last_support_batch_to_query():
    sched = ReplaySchedule(batch_size=4, support_size=3, replay_interval=40,
                           replay_rate=0.1)
    it = _stream(2)  # fewer batches than one support set
    ep = next_episode(it, _mem(), sched, 1)
    assert len(ep.support) == 1
    assert ep.query is not None and ep.query_source == STREAM
    assert float(ep.query.features[0, 0]) == 1.0  # the later batch is the query


def test_lone_tail_batch_has_no_query():
    sched = ReplaySchedule(batch_size=4, support_size=3, replay_interval=40,
                           replay_rate=0.1)
    it = _stream(1)
    ep = next_episode(it, _mem(), sched, 1)
    assert len(ep.support) == 1 and ep.query is None


def test_exhausted_stream_returns_none():
    sched = ReplaySchedule(batch_size=4, support_size=2, replay_interval=40,
                           replay_rate=0.1)
    assert next_episode(iter([]), _mem(), sched, 1) is None


def test_meta_test_episode_shapes():
    mem = _mem()
    mem.write(TASK.take(np.arange(100)), 0)
    test_batch = Batch(np.zeros((7, 2)), np.zeros(7, dtype=int))
    ep = meta_test_episode(mem, test_batch, support_size=5, batch_size=8)
    assert len(ep.support) == 5
    assert sum(len(b) for b in ep.support) == 40
    assert ep.query is test_batch


def test_meta_test_episode_without_finetune_is_support_free():
    test_batch = Batch(np.zeros((3, 2)), np.zeros(3, dtype=int))
    ep = meta_test_episode(_mem(), test_batch, 5, 8, finetune=False)
    assert ep.support == [] and ep.query is test_batch


def test_meta_test_episode_needs_memory_when_finetuning():
    with pytest.raises(InputError):
        meta_test_episode(_mem(), Batch(np.zeros((1, 2)), np.zeros(1, dtype=int)), 5, 8)
