"""Episode construction and the sparse replay schedule.

A meta-training episode is ``m`` support batches from the stream plus one
query batch. Every ``R_F``-th episode the query is sampled from memory
instead of the stream, sized so that roughly ``r * R_I`` stored examples are
replayed after each window of ``R_I`` stream examples.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

from .numerics import InputError
from .stream import Batch

STREAM = "STREAM"
MEMORY = "MEMORY"


def replay_frequency(replay_interval: int, batch_size: int, support_size: int) -> int:
    """Episodes between memory-sourced queries: ceil((R_I/b + 1)/(m + 1))."""
    if replay_interval <= 0 or batch_size <= 0 or support_size <= 0:
        raise InputError("schedule values must be positive")
    if replay_interval < batch_size:
        raise InputError("replay interval must be at least one batch")
    return math.ceil((replay_interval / batch_size + 1) / (support_size + 1))


@dataclass(frozen=True)
class ReplaySchedule:
    batch_size: int
    support_size: int          # m support batches per episode
    replay_interval: int       # R_I, in examples
    replay_rate: float         # r, fraction of R_I drawn at each replay

    def __post_init__(self):
        if not 0.0 <= self.replay_rate <= 1.0:
            raise InputError("replay rate must be in [0, 1]")
        if self.support_size < 1:
            raise InputError("support size must be >= 1")
        # The schedule is float arithmetic; a value no float can hold overflows it.
        for name in ("replay_interval", "batch_size", "support_size"):
            value = getattr(self, name)
            if value > sys.float_info.max:
                raise InputError(f"{name} ({len(str(value))} digits) is beyond a float")
        if self.support_size > sys.maxsize:  # next_episode's islice takes no larger stop
            raise InputError(f"support_size must be at most {sys.maxsize}")
        replay_frequency(self.replay_interval, self.batch_size, self.support_size)
        if self.replay_batch_size < 1:
            raise InputError("replay batch size floor(r * R_I) must be >= 1")

    @property
    def frequency(self) -> int:
        return replay_frequency(self.replay_interval, self.batch_size, self.support_size)

    @property
    def replay_batch_size(self) -> int:
        return math.floor(self.replay_rate * self.replay_interval)

    @property
    def baseline_frequency(self) -> int:
        """Optimizer steps between replays for non-episodic learners: ceil(R_I/b)."""
        return math.ceil(self.replay_interval / self.batch_size)


@dataclass
class Episode:
    """Support batches plus one query batch and the query's provenance.

    ``query`` is None only on a degenerate stream tail (a single leftover
    batch), in which case the outer update is skipped.
    """

    index: int
    support: list
    query: object | None
    query_source: str
    replay_skipped: bool = False  # replay was due but memory was empty


def next_episode(stream_iter, memory, schedule: ReplaySchedule, index: int,
                 allow_replay: bool = True) -> Episode | None:
    """Build episode ``index`` (1-based) from the stream, or None at stream end.

    ``stream_iter`` yields batches. On a memory-sourced query the stream is
    not advanced for the query. If the stream ends mid-support, the last
    collected batch becomes the query; a lone final batch yields an episode
    with no query.
    """
    support = list(itertools.islice(stream_iter, schedule.support_size))
    if not support:
        return None

    replay_due = allow_replay and index % schedule.frequency == 0
    if replay_due and len(memory) > 0:
        query = memory.sample(schedule.replay_batch_size)
        return Episode(index, support, query, MEMORY)

    query = next(stream_iter, None)
    if query is None and len(support) >= 2:
        query = support.pop()
    return Episode(index, support, query, STREAM, replay_skipped=replay_due)


def meta_test_episode(memory, support_size: int, batch_size: int) -> list:
    """The support of a meta-test episode: m batches of memory samples. Its
    query, a whole test task, is the caller's."""
    if len(memory) == 0:
        raise InputError("meta-test fine-tuning needs a non-empty memory")
    drawn = memory.sample(support_size * batch_size)
    n = len(drawn)
    per = max(1, math.ceil(n / support_size))
    return [Batch(drawn.features[s : s + per], drawn.labels[s : s + per])
            for s in range(0, n, per)]
