"""Golden-output check: a digest of every cell's outputs, compared by field.

A cell's digest holds its per-task accuracies, trace counters, memory size,
offers and composition, gate and alignment summaries, and a hash of each
final parameter tensor by name. The committed digests in ``golden/`` were
made by ``python3 benchmarks/digest.py`` from the package as it was when the
benchmark was added; a refactor or speed-up must leave every field unchanged.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import workloads

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _hash(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def cell_digest(accs, params, memory, trace, gates) -> dict:
    """JSON-ready summary of one ``learners.run`` result; floats kept exact."""
    out = {
        "accuracy": [float(a) for a in accs],
        "replay_episodes": trace.replay_episodes,
        "replay_skips": trace.replay_skips,
        "optimizer_steps": trace.optimizer_steps,
        "violations": {str(k): v for k, v in sorted(trace.violations_per_task.items())},
        "memory_size": len(memory) if memory is not None else 0,
        "memory_offers": memory.offers if memory is not None else 0,
        "memory_composition": ({str(k): v for k, v in sorted(memory.composition().items())}
                               if memory is not None else {}),
        "alignment": _hash(np.array([(s.step, s.dot, s.norm_a, s.norm_b)
                                     for s in trace.alignment], dtype=float)),
        "gates": _hash(*(g.values for g in gates)),
    }
    for name in sorted(params.tensors):
        out[f"params.{name}"] = _hash(params.tensors[name])
    return out


def diff(expected: dict, actual: dict) -> list:
    """Names of the fields that differ, including ones present on one side only."""
    return sorted(k for k in expected.keys() | actual.keys()
                  if expected.get(k) != actual.get(k))


def cell_key(method: str, seed: int) -> str:
    return f"{method}/seed{seed}"


def load(workload_name: str) -> dict:
    """{variant (str): {cell key: digest}} for one workload."""
    with open(GOLDEN_DIR / f"{workload_name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def generate(workload, variants, root: Path) -> dict:
    """Digests of every cell of the given variants, from the current code."""
    import run as harness  # run imports this module

    if not harness.use_checkout_package():
        raise SystemExit(f"error: no package source under {harness.SRC}")
    table = {}
    for variant in variants:
        work = root / f"golden-{workload.name}-{variant}"
        try:
            setup = harness.Setup(workload, workloads.write_inputs(workload, variant, work))
            table[str(variant)] = {
                cell_key(method, seed): cell_digest(*setup.run_cell(method, seed, work))
                for method, seed in workload.grid()
            }
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the committed golden digests from the current code.")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), action="append",
                        help="workload to regenerate (repeatable; default: all)")
    args = parser.parse_args(argv)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in args.workload or sorted(workloads.WORKLOADS):
        table = generate(workloads.WORKLOADS[name], range(workloads.VARIANTS),
                          Path(__file__).resolve().parent / "out")
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}: {len(table)} variants x {len(next(iter(table.values())))} cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
