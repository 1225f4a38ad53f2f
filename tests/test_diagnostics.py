"""Alignment measurements and accuracy and gate summaries."""

import numpy as np
import pytest

from metareplay.diagnostics import (
    AlignmentSample,
    gate_stats,
    grad_dot,
    macro_accuracy,
)
from metareplay.model import Classifier, GateRecord, ModelConfig
from metareplay.numerics import InputError, Partition
from metareplay.stream import Batch


def test_flatten_is_sorted_by_key():
    """A gradient vector is its named tensors concatenated in sorted-name
    order, the order alignment dot products were always taken in."""
    clf = Classifier(ModelConfig(input_dim=3, encoder_dims=(4, 3), num_classes=2,
                                 architecture="ANML", nm_hidden_dim=2))
    rng = np.random.default_rng(0)
    params = clf.init_params(rng)
    batch = Batch(rng.standard_normal((5, 3)), rng.integers(0, 2, size=5))
    parts = clf.outer_partitions()
    _, g = clf.loss_and_grad(params, batch, parts)
    named = {n: g[a:b].reshape(shape) for n, (a, b, shape) in params.layout(parts)[1].items()}
    assert sorted(named) == ["enc0.W", "enc0.b", "enc1.W", "enc1.b", "head.W", "head.b",
                             "nm_mid.W", "nm_mid.b", "nm_out.W", "nm_out.b"]
    np.testing.assert_array_equal(g, np.concatenate([named[k].ravel() for k in sorted(named)]))
    # Every trained parameter, in sorted-name order; the frozen NM projection
    # is kept beside ``flat``.
    order = sorted(n for n in params.tensors if not n.startswith("nm_in"))
    np.testing.assert_array_equal(
        params.flat, np.concatenate([params.tensors[k].ravel() for k in order]))
    assert params.partitions["nm_in.W"] == Partition.NM_FROZEN


def test_grad_dot_against_numpy_oracle():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(10), rng.standard_normal(10)
    sample = grad_dot(a, b, step=7)
    assert sample.step == 7
    assert sample.dot == pytest.approx(float(a @ b))
    assert sample.cosine == pytest.approx(
        float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def test_grad_dot_requires_matching_spans():
    with pytest.raises(InputError):
        grad_dot(np.ones(2), np.ones(3))


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

