"""Outside-in tracer: wraps metareplay's public functions from the outside.

Nothing under ``src/`` knows about it. ``Tracer.install`` replaces each
target with a wrapper that records a span (name, start, end, parent, cell)
and, for some targets, adds to named counters; ``uninstall`` puts the
originals back, so untraced passes run the unmodified code. ``learners``
binds ``adam_step``, ``sgd_step``, ``next_episode``, ``meta_test_episode``,
``grad_dot`` and ``agem_project`` at import, so those are patched where
``learners`` looks them up; methods are patched on their classes.

A target that no longer exists is listed in ``Tracer.absent`` and skipped,
so a rename in the package cannot break a run.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    """A call's argument, whether passed by position or by keyword."""
    return args[index] if len(args) > index else kwargs[name]


def _add_len(key, index, name):
    def hook(counters, args, kwargs, result):
        counters[key] += len(_arg(args, kwargs, index, name))
    return hook


def _count_write(counters, args, kwargs, result):
    counters["memory.write.offered"] += len(_arg(args, kwargs, 1, "batch"))
    counters["memory.write.admitted"] += result


def _count_sample(counters, args, kwargs, result):
    counters["memory.sample.examples"] += len(result)
    # sample() returns everything and counts a short sample when n > size.
    counters["memory.sample.short"] += _arg(args, kwargs, 1, "n") > len(args[0])


def _count_episode(counters, args, kwargs, result):
    if result is None:
        return
    counters["episodes.replays"] += result.query_source == "MEMORY"
    counters["episodes.replay_skips"] += result.replay_skipped


def _count_projected(counters, args, kwargs, result):
    counters["learners.agem_project.projected"] += result[1]


def _count_bytes(counters, args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    counters["checkpoint.save_checkpoint.bytes"] += os.path.getsize(path)


# (span name, module, attribute path, counter hook or None)
TARGETS = (
    ("learners.run", "metareplay.learners", "run", None),
    ("stream.featurize", "metareplay.stream", "featurize", None),
    ("stream.make_synthetic_suite", "metareplay.config", "make_synthetic_suite", None),
    ("stream.take", "metareplay.stream", "TaskSpec.take", None),
    ("memory.write", "metareplay.memory", "EpisodicMemory.write", _count_write),
    ("memory.sample", "metareplay.memory", "EpisodicMemory.sample", _count_sample),
    ("episodes.next_episode", "metareplay.learners", "next_episode", _count_episode),
    ("episodes.meta_test_episode", "metareplay.learners", "meta_test_episode", None),
    ("model.loss_and_grad", "metareplay.model", "Classifier.loss_and_grad",
     _add_len("model.loss_and_grad.examples", 2, "batch")),
    ("model.predict", "metareplay.model", "Classifier.predict",
     _add_len("model.predict.examples", 2, "batch")),
    ("numerics.adam_step", "metareplay.learners", "adam_step", None),
    ("numerics.sgd_step", "metareplay.learners", "sgd_step", None),
    ("numerics.clone", "metareplay.numerics", "ParameterSet.clone", None),
    ("learners.inner_adapt", "metareplay.learners", "inner_adapt", None),
    ("learners.meta_outer_step", "metareplay.learners", "meta_outer_step", None),
    ("learners.run_meta_testing", "metareplay.learners", "run_meta_testing", None),
    ("learners.evaluate_direct", "metareplay.learners", "evaluate_direct", None),
    ("learners.agem_project", "metareplay.learners", "agem_project", _count_projected),
    ("diagnostics.grad_dot", "metareplay.learners", "grad_dot", None),
    ("config.load_config", "metareplay.config", "load_config", None),
    ("config.build_suite", "metareplay.config", "build_suite", None),
    ("checkpoint.save_checkpoint", "metareplay.checkpoint", "save_checkpoint", _count_bytes),
)


def _resolve(module: str, path: str):
    """(owner, attribute) for a dotted path inside a module, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Span recorder. Spans are kept in memory until ``write``.

    A span is (name, start_ns, end_ns, parent index or -1, cell id). The
    harness sets ``cell`` before each cell and wraps its own phases with
    ``span``, so every library span has a harness span as an ancestor.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list = []
        self.counters = defaultdict(int)
        self.cell = -1
        self.absent: list = []
        self._stack: list = []
        self._saved: list = []

    def _enter(self):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def _exit(self, name, index, parent, start):
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.cell)

    @contextlib.contextmanager
    def span(self, name):
        """Record a harness-side span around the ``with`` body."""
        index, parent = self._enter()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._exit(name, index, parent, start)

    def _wrapper(self, name, fn, hook):
        enter, exit_, counters = self._enter, self._exit, self.counters

        def wrapper(*args, **kwargs):
            index, parent = enter()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(name, index, parent, start)
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for name, module, path, hook in self.targets:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr = found
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(name, getattr(owner, attr), hook))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            if original is None:
                delattr(owner, attr)  # it was inherited, not defined on owner
            else:
                setattr(owner, attr, original)
        self._saved = []

    def write(self, path):
        """Write one JSON array per span: [name, start_ns, end_ns, parent, cell]."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")


def self_times(spans) -> list:
    """Per span, its duration minus the durations of its direct children, in s."""
    own = [(end - start) for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return [t / 1e9 for t in own]


def by_name(spans) -> dict:
    """{name: (calls, self seconds, inclusive seconds)}."""
    out: dict = {}
    for span, own in zip(spans, self_times(spans)):
        calls, self_s, total_s = out.get(span[0], (0, 0.0, 0.0))
        out[span[0]] = (calls + 1, self_s + own, total_s + (span[2] - span[1]) / 1e9)
    return out
