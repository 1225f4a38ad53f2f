"""
Transfer vs. interference through gradient dot products.

Two diagnostics over the same stream:

* During meta-training, the dot product between the summed support gradient
  and the memory-query gradient at the current parameters. Positive values
  mean rehearsing the past also helps the present (transfer); negative
  values mean interference.
* During A-GEM training, the dot product between the current batch gradient
  and a reference gradient from memory, plus how often the projection fired
  per task.
"""

import argparse

import numpy as np

from metareplay import LearnerConfig, ReplaySchedule, make_synthetic_suite
from metareplay.learners import train
from metareplay.model import Classifier, ModelConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    suite = make_synthetic_suite("BALANCED", num_tasks=5, classes_per_task=2,
                                 examples_per_class=1000, input_dim=10,
                                 seed=7, test_per_class=250)
    schedule = ReplaySchedule(batch_size=16, support_size=5,
                              replay_interval=480, replay_rate=0.04)

    model = Classifier(ModelConfig(input_dim=10, encoder_dims=(32,), num_classes=10))
    cfg = LearnerConfig("OML_ER", schedule, inner_lr=0.05, outer_lr=0.025,
                        record_alignment=True)
    _, _, trace = train(model, suite.train, cfg, seed=args.seed)
    print("meta-training support/query alignment on memory episodes:")
    for s in trace.alignment:
        tag = "transfer" if s.dot > 0 else "interference"
        print(f"  episode {s.step:3d}: dot={s.dot:+9.4f} cos={s.cosine:+.3f} ({tag})")
    cosines = [s.cosine for s in trace.alignment]
    print(f"  mean cosine {np.mean(cosines):+.3f} over {len(cosines)} replay episodes")

    cfg = LearnerConfig("AGEM", schedule, outer_lr=0.01)
    _, _, trace = train(model, suite.train, cfg, seed=args.seed)
    neg = sum(1 for s in trace.alignment if s.dot < 0)
    print(f"\nA-GEM reference checks: {len(trace.alignment)} cadence steps, "
          f"{neg} conflicts projected away")
    for tid, count in sorted(trace.violations_per_task.items()):
        print(f"  task {tid}: {count} violations")


if __name__ == "__main__":
    main()
