"""
How the sparse replay schedule spaces memory-sourced episodes.

Every episode bundles m support batches and one query batch. The replay
frequency R_F = ceil((R_I/b + 1)/(m + 1)) guarantees at least R_I stream
examples pass between two memory-sourced queries, and each of those queries
carries floor(r * R_I) stored examples. The demo prints the derived numbers
for a few configurations and then traces an actual episode sequence.
"""

import numpy as np

from metareplay import EpisodicMemory, ReplaySchedule
from metareplay.episodes import MEMORY, next_episode
from metareplay.stream import TaskSpec


def show(schedule: ReplaySchedule):
    between = schedule.batch_size * (
        (schedule.frequency - 1) * (schedule.support_size + 1) + schedule.support_size)
    print(f"  b={schedule.batch_size:3d} m={schedule.support_size} "
          f"R_I={schedule.replay_interval:5d} r={schedule.replay_rate:.0%}"
          f"  ->  R_F={schedule.frequency:4d} episodes, "
          f"replay batch {schedule.replay_batch_size:3d}, "
          f"{between} stream examples between replays")


def trace_episodes(schedule: ReplaySchedule, n_batches: int):
    size = schedule.batch_size
    task = TaskSpec(0, np.zeros((n_batches * size, 2)), np.zeros(n_batches * size, dtype=int))

    def stream():
        for i in range(n_batches):
            yield task.take(np.arange(i * size, (i + 1) * size)), 0

    memory = EpisodicMemory(1.0, [task], np.random.default_rng(0), np.random.default_rng(1))
    it = stream()
    index, marks = 0, []
    while True:
        index += 1
        ep = next_episode(it, memory, schedule, index)
        if ep is None:
            break
        if ep.query_source != MEMORY and ep.query is not None:
            memory.write(ep.query, 0)
        for b in ep.support:
            memory.write(b, 0)
        marks.append("R" if ep.query_source == MEMORY else ".")
    print(f"  episode trace ({len(marks)} episodes, R = memory query):")
    for start in range(0, len(marks), 60):
        print("    " + "".join(marks[start:start + 60]))


def main():
    print("schedule arithmetic:")
    show(ReplaySchedule(16, 5, 9600, 0.01))
    show(ReplaySchedule(4, 5, 1600, 0.01))
    show(ReplaySchedule(16, 5, 1920, 0.01))
    show(ReplaySchedule(16, 5, 1920, 0.04))

    print("\nsimulated stream, b=16 m=5 R_I=1920 r=1%:")
    trace_episodes(ReplaySchedule(16, 5, 1920, 0.01), n_batches=625)


if __name__ == "__main__":
    main()
