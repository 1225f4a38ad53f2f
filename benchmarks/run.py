"""metareplay benchmark: one workload per process, closed loop, golden-checked.

    python3 benchmarks/run.py --workload replay-heavy --seed 0 --seconds 55 --trace 0

Runs from the root of a checkout and imports the package from its ``src/``.
The workload's inputs are generated from ``--seed`` (see ``workloads.py``).
Passes over the workload's cell grid run one cell at a time until
``--seconds`` have passed; before each pass the inputs are built again
through the package (``setup_s``). Every cell's outputs are compared with
the committed golden digests.

With ``--trace 0`` the result holds the end-to-end metrics. With
``--trace 1`` passes alternate untraced and traced (see ``spans.py``) and
the result holds the per-layer metrics, per traced pass of the grid (setup
layers: per setup), plus the tracing overhead.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}. The line before it is the full record, which also holds the run
metadata, the tail percentile used and every golden mismatch; the record is
also written under ``benchmarks/out/``, as are the spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import digest
import spans as spanlib
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Set-up is rebuilt before every pass, repeated until this many seconds are
# spent, so its samples span the whole run like the cells do; setup_s is
# their median.
SETUP_S_PER_PASS = 0.05
# cell_s_tail needs at least ten cells beyond it; a run measures at least
# 2 * TAIL_BEYOND + 1 cells so that the tail is never below the median.
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "examples_per_s": "1/s",
    "cell_s_p50": "s",
    "cell_s_tail": "s",
    "peak_rss_mb": "MB",
    "cell_ok_frac": "frac",
}

# Span names reported as .calls and .s (self time).
_CALLS_AND_S = (
    "stream.featurize", "stream.take", "memory.write", "memory.sample",
    "episodes.next_episode", "episodes.meta_test_episode",
    "model.loss_and_grad", "model.predict",
    "numerics.adam_step", "numerics.sgd_step", "numerics.clone",
    "learners.inner_adapt", "learners.meta_outer_step", "learners.agem_project",
    "diagnostics.grad_dot", "checkpoint.save_checkpoint",
)
_S_ONLY = (
    "stream.make_synthetic_suite", "learners.run_meta_testing",
    "learners.evaluate_direct", "learners.run", "config.build_suite",
    "config.load_config",
)
# Composite spans also reported as .total_s (inclusive of their children).
_TOTAL_S = (
    "learners.inner_adapt", "learners.meta_outer_step", "learners.run_meta_testing",
    "learners.evaluate_direct", "config.build_suite",
)
# Spans that happen during setup; normalized per setup instead of per pass.
_SETUP_SPANS = {"stream.featurize", "stream.make_synthetic_suite",
                "config.build_suite", "config.load_config"}

PER_LAYER = dict(
    [(f"{n}.calls", "count") for n in _CALLS_AND_S]
    + [(f"{n}.s", "s") for n in _CALLS_AND_S + _S_ONLY]
    + [(f"{n}.total_s", "s") for n in _TOTAL_S]
    + [
        ("stream.featurize.docs_per_s", "1/s"),
        ("memory.write.offered", "count"),
        ("memory.write.admitted", "count"),
        ("memory.write.admit_ratio", "ratio"),
        ("memory.sample.examples", "count"),
        ("memory.sample.short", "count"),
        ("memory.size_end", "count"),
        ("episodes.replay_ratio", "ratio"),
        ("model.loss_and_grad.examples", "count"),
        ("model.predict.examples", "count"),
        ("learners.agem_project.projected", "count"),
        ("learners.agem_project.project_ratio", "ratio"),
        ("learners.optimizer_steps", "count"),
        ("checkpoint.save_checkpoint.bytes", "B"),
        ("trace.cell_s", "s"),
        ("trace.overhead_frac", "ratio"),
    ]
)


def use_checkout_package() -> bool:
    """Put this checkout's ``src/`` first on sys.path; False if it has none."""
    if not (SRC / "metareplay" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


class Setup:
    """A workload's inputs built through the package: configs, suite, models."""

    def __init__(self, workload, config_paths: dict):
        from metareplay import config

        self.workload = workload
        self.configs = {m: config.load_config(p) for m, p in config_paths.items()}
        self.suite = config.build_suite(self.configs[workload.methods[0]])
        self.models = {m: config.build_model(c, self.suite) for m, c in self.configs.items()}
        self.train_examples = sum(t.size for t in self.suite.train)

    def run_cell(self, method: str, seed: int, workdir: Path):
        """One cell; returns ``learners.run``'s (accs, params, memory, trace, gates)."""
        from metareplay import checkpoint, learners

        cfg, model = self.configs[method], self.models[method]
        out = learners.run(model, self.suite, cfg.learner, seed,
                           stream_order=cfg.orders[0], combined_test=cfg.combined_test)
        if self.workload.checkpoint:
            checkpoint.save_checkpoint(workdir / f"checkpoint_{method}_{seed}.npz",
                                       out[1], model.config)
        return out


def tail(times: list) -> tuple:
    """(value, percentile, cells) of the highest percentile with TAIL_BEYOND
    cells beyond it; the maximum if there are too few cells."""
    ordered = sorted(times)
    n = len(ordered)
    rank = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[rank], 100.0 * (rank + 1) / n, n


def measure(workload, seed: int, seconds: float, golden: dict, workdir: Path,
            tracer=None, log=lambda msg: print(msg, file=sys.stderr)) -> dict:
    """Run one workload; return the full record (see the module docstring).

    With a ``tracer`` the run is traced: set-up and every other pass record
    spans, and the record holds the per-layer metrics.
    """
    variant = seed % workloads.VARIANTS
    paths = workloads.write_inputs(workload, variant, workdir)
    traced = tracer is not None

    def traced_span(name, on):
        return tracer.span(name) if on else contextlib.nullcontext()

    expected = golden.get(str(variant), {})
    setup_times, setup = [], None
    cells, passes, mismatches, digests = [], [], {}, []
    begin = time.perf_counter()
    while True:
        spent = 0.0
        while spent < SETUP_S_PER_PASS:
            setup = None  # free the previous suite before building the next
            gc.collect()
            if traced:
                tracer.cell = -1  # set-up spans belong to no cell
                tracer.install()
            try:
                start = time.perf_counter()
                with traced_span("setup", traced):
                    setup = Setup(workload, paths)
                setup_times.append(time.perf_counter() - start)
            finally:
                if traced:
                    tracer.uninstall()
            spent += setup_times[-1]
        gc.collect()
        gc.freeze()

        trace_pass = traced and len(passes) % 2 == 1
        if trace_pass:
            tracer.install()
        pass_s = 0.0
        try:
            for method, cell_seed in workload.grid():
                key = digest.cell_key(method, cell_seed)
                gc.collect()
                if traced:
                    tracer.cell = len(cells)
                start = time.perf_counter()
                try:
                    with traced_span("cell", trace_pass):
                        result = setup.run_cell(method, cell_seed, workdir)
                except Exception as exc:  # a failed cell is counted, not fatal
                    elapsed = time.perf_counter() - start
                    fields = [f"raised {type(exc).__name__}: {exc}"]
                else:
                    elapsed = time.perf_counter() - start
                    got = digest.cell_digest(*result)
                    digests.append((len(passes), got))
                    want = expected.get(key)
                    fields = ["no golden digest"] if want is None else digest.diff(want, got)
                    del result
                if fields and key not in mismatches:
                    mismatches[key] = fields
                    log(f"cell failed: {workload.name} variant {variant} {key}: "
                        + ", ".join(fields))
                cells.append({"pass": len(passes), "traced": trace_pass,
                              "s": elapsed, "ok": not fields})
                pass_s += elapsed
        finally:
            if trace_pass:
                tracer.uninstall()
        passes.append({"traced": trace_pass, "s": pass_s,
                       "examples": setup.train_examples * len(workload.grid())})
        gc.unfreeze()
        untraced = [c for c in cells if not c["traced"]]
        done = (time.perf_counter() - begin >= seconds
                and len(untraced) > 2 * TAIL_BEYOND)
        if done and (not traced or len(passes) >= 2):
            break

    failed = sum(not c["ok"] for c in cells)
    record = {
        "workload": workload.name, "seed": seed, "variant": variant,
        "trace": int(traced), "correct": failed == 0, "attempted": len(cells),
        "failed": failed, "mismatches": mismatches,
        "passes": [{"s": p["s"], "traced": p["traced"]} for p in passes],
        "cell_s": [c["s"] for c in cells],
        "setup_reps": len(setup_times),
    }
    if traced:
        record["metrics"] = _per_layer(tracer, passes, digests, len(setup_times))
        record["absent_spans"] = tracer.absent
    else:
        record.update(_end_to_end(cells, passes, setup_times))
    return record


def _end_to_end(cells, passes, setup_times) -> dict:
    times = [c["s"] for c in cells]
    tail_s, tail_pct, n = tail(times)
    pass_medians = [statistics.median(c["s"] for c in cells if c["pass"] == i)
                    for i in range(len(passes))]
    # Totals and means over passes, not medians across them: the host's speed
    # switches between two levels for seconds at a time, and a median across
    # passes flips between the levels where a mean moves smoothly.
    values = {
        "setup_s": statistics.median(setup_times),
        "examples_per_s": sum(p["examples"] for p in passes) / sum(p["s"] for p in passes),
        "cell_s_p50": statistics.mean(pass_medians),
        "cell_s_tail": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cell_ok_frac": sum(c["ok"] for c in cells) / len(cells),
    }
    return {"metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()},
            "cell_s_tail_percentile": tail_pct, "cell_count": n}


def _per_layer(tracer, passes, digests, setup_reps) -> dict:
    traced_passes = [i for i, p in enumerate(passes) if p["traced"]]
    n_pass = len(traced_passes)
    totals = spanlib.by_name(tracer.spans)
    counters = tracer.counters
    values = {}

    def per(name):
        return setup_reps if name in _SETUP_SPANS else n_pass

    for name in _CALLS_AND_S + _S_ONLY:
        calls, self_s, total_s = totals.get(name, (0, 0.0, 0.0))
        if name in _CALLS_AND_S:
            values[f"{name}.calls"] = calls / per(name)
        values[f"{name}.s"] = self_s / per(name)
        if name in _TOTAL_S:
            values[f"{name}.total_s"] = total_s / per(name)
    for name in ("memory.write.offered", "memory.write.admitted", "memory.sample.examples",
                 "memory.sample.short", "model.loss_and_grad.examples",
                 "model.predict.examples", "learners.agem_project.projected",
                 "checkpoint.save_checkpoint.bytes"):
        values[name] = counters[name] / n_pass

    def ratio(a, b):
        return a / b if b else 0.0

    values["stream.featurize.docs_per_s"] = ratio(values["stream.featurize.calls"],
                                                  values["stream.featurize.s"])
    values["memory.write.admit_ratio"] = ratio(counters["memory.write.admitted"],
                                               counters["memory.write.offered"])
    values["memory.size_end"] = max(d["memory_size"] for _, d in digests)
    values["episodes.replay_ratio"] = ratio(
        counters["episodes.replays"],
        counters["episodes.replays"] + counters["episodes.replay_skips"])
    values["learners.agem_project.project_ratio"] = ratio(
        values["learners.agem_project.projected"], values["learners.agem_project.calls"])
    values["learners.optimizer_steps"] = sum(
        d["optimizer_steps"] for i, d in digests if i in traced_passes) / n_pass
    values["trace.cell_s"] = sum(passes[i]["s"] for i in traced_passes) / n_pass
    values["trace.overhead_frac"] = (
        statistics.median(p["s"] for p in passes if p["traced"])
        / statistics.median(p["s"] for p in passes if not p["traced"]) - 1.0)
    return {k: {"value": float(v), "unit": PER_LAYER[k]} for k, v in values.items()}


# ---------------------------------------------------------------------------
# Run metadata
# ---------------------------------------------------------------------------

def _blas() -> tuple:
    """(vendor and version, thread count or None) of numpy's BLAS."""
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{dep.get('name')} {dep.get('version')}"
    except (KeyError, TypeError, AttributeError):
        vendor = "unknown"
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = fn()
                    break
    except OSError:
        pass
    return vendor, threads


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata() -> dict:
    vendor, threads = _blas()
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": threads,
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_checkout_package():
        print(f"error: no package source at {SRC}/metareplay; run from a checkout",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    try:
        golden = digest.load(workload.name)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read golden digests: {exc}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{workload.name}-{os.getpid()}"
    tracer = spanlib.Tracer() if args.trace else None
    try:
        record = measure(workload, args.seed, args.seconds, golden, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        tracer.write(OUT_DIR / f"spans-{workload.name}.jsonl")
    record["metadata"] = run_metadata()
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                          encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
