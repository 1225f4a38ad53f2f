"""Self-tests of the benchmark harness (not part of the package's test suite).

    python3 benchmarks/selftest.py

Runs each workload at a tiny scale in-process, with golden digests made on
the spot, and checks the harness itself: metric names and units match
``BENCHMARK.json``, a golden mismatch counts as a failed cell, traced self
times are consistent, a missing trace target is reported rather than fatal,
and the command line refuses to run without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import digest
import run as harness
import spans as spanlib
import workloads

if not harness.use_checkout_package():
    raise SystemExit(f"error: no package source under {harness.SRC}")

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
VARIANT = 3


class TinyRun(unittest.TestCase):
    """A tiny workload with golden digests made from the current code."""

    def setUp(self):
        harness.OUT_DIR.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=harness.OUT_DIR))

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def measure(self, workload, tracer=None, golden=None):
        if golden is None:
            golden = digest.generate(workload, [VARIANT], self.tmp)
        return harness.measure(workload, VARIANT, 0, golden, self.tmp / "work",
                               tracer, log=lambda msg: None)


class SmokeTest(TinyRun):
    def test_every_workload_reports_every_metric_with_its_unit(self):
        want_e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        want_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(workloads.WORKLOADS))
        for name, workload in workloads.WORKLOADS.items():
            small = workloads.tiny(workload)
            golden = digest.generate(small, [VARIANT], self.tmp)
            for traced, want in ((False, want_e2e), (True, want_layer)):
                record = self.measure(small, spanlib.Tracer() if traced else None, golden)
                got = {k: v["unit"] for k, v in record["metrics"].items()}
                self.assertEqual(got, want, (name, traced))
                self.assertTrue(record["correct"], record["mismatches"])
                if not traced:
                    print(f"\n{name}:", ", ".join(
                        f"{k}={v['value']:.4g} {v['unit']}"
                        for k, v in record["metrics"].items()), file=sys.stderr)
                    self.assertTrue(all(v["value"] > 0 for v in record["metrics"].values()))


class GoldenTest(TinyRun):
    def test_injected_mismatch_is_a_failed_cell(self):
        small = workloads.tiny(workloads.WORKLOADS["synth-d10"])
        golden = digest.generate(small, [VARIANT], self.tmp)
        cells = golden[str(VARIANT)]
        cells["SEQ/seed0"]["accuracy"][0] += 0.5
        cells["OML_ER/seed0"]["params.head.W"] = "0" * 16
        record = self.measure(small, golden=golden)
        passes = len(record["passes"])
        self.assertFalse(record["correct"])
        self.assertEqual(record["failed"], 2 * passes)
        self.assertEqual(record["mismatches"],
                         {"SEQ/seed0": ["accuracy"], "OML_ER/seed0": ["params.head.W"]})
        ok = record["metrics"]["cell_ok_frac"]["value"]
        self.assertAlmostEqual(ok, 1 - 2 / len(small.grid()))


class TraceTest(TinyRun):
    def test_self_times_are_non_negative_and_within_wall_time(self):
        small = workloads.tiny(workloads.WORKLOADS["replay-heavy"])
        tracer = spanlib.Tracer()
        record = self.measure(small, tracer)
        self.assertEqual(tracer.absent, [])
        own = spanlib.self_times(tracer.spans)
        self.assertTrue(all(t >= 0 for t in own), min(own))
        in_cells = sum(t for s, t in zip(tracer.spans, own) if s[4] >= 0)
        traced_wall = sum(p["s"] for p in record["passes"] if p["traced"])
        self.assertLessEqual(in_cells, traced_wall)
        # Each cell's self times add up to exactly its harness span.
        for span in tracer.spans:
            if span[0] == "cell":
                subtree = sum(t for s, t in zip(tracer.spans, own) if s[4] == span[4])
                self.assertAlmostEqual(subtree, (span[2] - span[1]) / 1e9, places=6)
        # Every library span sits under a harness span.
        roots = {s[0] for s in tracer.spans if s[3] < 0}
        self.assertEqual(roots, {"setup", "cell"})

    def test_missing_target_is_reported_absent(self):
        from metareplay import learners

        original = learners.run
        tracer = spanlib.Tracer(spanlib.TARGETS + (
            ("gone.function", "metareplay.learners", "no_such_function", None),
            ("gone.module", "metareplay.no_such_module", "f", None),
            ("gone.method", "metareplay.memory", "EpisodicMemory.no_such_method", None)))
        tracer.install()
        try:
            self.assertIsNot(learners.run, original)
        finally:
            tracer.uninstall()
        self.assertIs(learners.run, original)
        self.assertEqual(tracer.absent, ["gone.function", "gone.module", "gone.method"])


class CommandLineTest(unittest.TestCase):
    def run_bench(self, cwd):
        return subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "replay-heavy",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=cwd, capture_output=True, text=True, timeout=170)

    def test_result_is_the_last_line(self):
        proc = self.run_bench(harness.ROOT)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])

    def test_refuses_to_run_without_the_package_source(self):
        harness.OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=harness.OUT_DIR) as tmp:
            shutil.copy(harness.ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(harness.ROOT / path, Path(tmp) / path,
                                ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = self.run_bench(tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
