"""Alignment measurements and metric records."""

import numpy as np
import pytest

from metareplay.diagnostics import (
    AlignmentSample,
    MetricsRecord,
    flatten_grads,
    gate_stats,
    grad_dot,
    macro_accuracy,
)
from metareplay.model import GateRecord
from metareplay.numerics import InputError


def test_flatten_is_sorted_by_key():
    grads = {"b": np.array([3.0, 4.0]), "a": np.array([[1.0], [2.0]])}
    np.testing.assert_array_equal(flatten_grads(grads), [1.0, 2.0, 3.0, 4.0])


def test_grad_dot_against_numpy_oracle():
    rng = np.random.default_rng(0)
    g1 = {"x": rng.standard_normal((2, 3)), "y": rng.standard_normal(4)}
    g2 = {"x": rng.standard_normal((2, 3)), "y": rng.standard_normal(4)}
    sample = grad_dot(g1, g2, step=7)
    a = np.concatenate([g1["x"].ravel(), g1["y"]])
    b = np.concatenate([g2["x"].ravel(), g2["y"]])
    assert sample.step == 7
    assert sample.dot == pytest.approx(float(a @ b))
    assert sample.cosine == pytest.approx(
        float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def test_grad_dot_requires_matching_keys():
    with pytest.raises(InputError):
        grad_dot({"a": np.ones(2)}, {"b": np.ones(2)})


def test_cosine_of_zero_vectors_is_zero():
    s = AlignmentSample(0, 0.0, 0.0, 0.0)
    assert s.cosine == 0.0


def test_macro_accuracy_is_unweighted_mean():
    assert macro_accuracy([1.0, 0.0, 0.5]) == pytest.approx(0.5)
    with pytest.raises(InputError):
        macro_accuracy([])


def test_gate_stats_pools_all_records():
    g1 = GateRecord(np.array([[1.0, 0.0]]))
    g2 = GateRecord(np.array([[0.5, 0.5]]))
    mean, high, low = gate_stats([g1, g2])
    assert mean == pytest.approx(0.5)
    assert high == pytest.approx(0.25)
    assert low == pytest.approx(0.25)


def test_metrics_record_round_trips_to_dict():
    rec = MetricsRecord(method="SEQ", seed=1, per_task_accuracy=[0.5, 0.7],
                        macro_accuracy=0.6, memory_size=10)
    d = rec.to_dict()
    assert d["method"] == "SEQ" and d["per_task_accuracy"] == [0.5, 0.7]
    assert d["gate_mean"] is None
