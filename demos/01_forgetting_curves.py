"""
Catastrophic forgetting across a task stream, method by method.

Trains each method once over the same 5-task stream and prints the per-task
test accuracy at the end. SEQ shows the classic staircase of forgetting,
sparse replay recovers part of it, and the meta-learned variants keep most
tasks alive with the same memory budget.
"""

import argparse

import numpy as np

from metareplay import LearnerConfig, ReplaySchedule, make_synthetic_suite
from metareplay.learners import META_METHODS, METHODS, architecture_for, run
from metareplay.model import Classifier, ModelConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--input-dim", type=int, default=10)
    args = parser.parse_args()

    suite = make_synthetic_suite("BALANCED", num_tasks=5, classes_per_task=2,
                                 examples_per_class=1000, input_dim=args.input_dim,
                                 seed=7, test_per_class=250)
    schedule = ReplaySchedule(batch_size=16, support_size=5,
                              replay_interval=1920, replay_rate=0.01)

    print(f"{'method':10s} " + " ".join(f"task{t}" for t in range(5)) + "  macro")
    for method in METHODS:
        model = Classifier(ModelConfig(input_dim=args.input_dim, encoder_dims=(32,),
                                       num_classes=10, architecture=architecture_for(method)))
        if method in META_METHODS:
            cfg = LearnerConfig(method, schedule, inner_lr=0.008, outer_lr=0.025)
        elif method == "MTL":
            cfg = LearnerConfig(method, schedule, outer_lr=0.01, epochs=2)
        else:
            cfg = LearnerConfig(method, schedule, outer_lr=0.01)
        accs, _, memory, trace, _ = run(model, suite, cfg, seed=args.seed)
        row = " ".join(f"{a:5.2f}" for a in accs)
        print(f"{method:10s} {row}  {np.mean(accs):5.3f}"
              + (f"   ({trace.replay_episodes} replay episodes)"
                 if trace.replay_episodes else ""))


if __name__ == "__main__":
    main()
