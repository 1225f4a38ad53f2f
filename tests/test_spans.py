"""The benchmark tracer's targets name functions that exist in the package."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).parents[1] / "benchmarks" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_but_featurize_resolves():
    """A renamed or deleted traced function leaves its span reading 0 in
    every benchmark record. ``stream.featurize`` names a function that the
    sparse text loader removed; retargeting it is a change to the benchmark,
    and that change updates this test too."""
    spans = _load_spans()
    absent = [name for name, module, path, _ in spans.TARGETS
              if spans._resolve(module, path) is None]
    assert absent == ["stream.featurize"]
