"""Classifier architectures: hand-worked forwards, partitions, gating."""

import numpy as np
import pytest

from metareplay.diagnostics import gate_stats
from metareplay.model import NM_OUTPUT_BIAS, Classifier, ModelConfig, score_accuracy
from metareplay.numerics import InputError, LossMode, Partition
from metareplay.stream import Batch

RNG = np.random.default_rng(7)


def _set(params, name, value):
    params.tensors[name][...] = value


def test_oml_forward_hand_computed():
    clf = Classifier(ModelConfig(input_dim=2, encoder_dims=(2,), num_classes=2))
    params = clf.init_params(RNG)
    _set(params, "enc0.W", [[1.0, -1.0], [0.0, 1.0]])
    _set(params, "enc0.b", [0.0, 0.5])
    _set(params, "head.W", [[1.0, 0.0], [1.0, -1.0]])
    _set(params, "head.b", [0.0, 2.0])
    x = np.array([[1.0, 2.0]])
    # enc pre-activation: (1, 1.5) -> relu unchanged -> logits (2.5, 0.5)
    logits, gate = clf.predict(params, Batch(x, np.array([0])))
    np.testing.assert_allclose(logits, [[2.5, 0.5]])
    assert gate is None


def test_relu_clips_negative_path():
    clf = Classifier(ModelConfig(input_dim=1, encoder_dims=(1,), num_classes=2))
    params = clf.init_params(RNG)
    _set(params, "enc0.W", [[-3.0]])
    _set(params, "enc0.b", [0.0])
    _set(params, "head.W", [[5.0, -5.0]])
    _set(params, "head.b", [0.25, -0.25])
    logits, _ = clf.predict(params, Batch(np.array([[2.0]]), np.array([0])))
    np.testing.assert_allclose(logits, [[0.25, -0.25]])  # representation clipped to 0


def test_anml_with_saturated_gate_equals_ungated_model():
    """Forcing the NM output to a huge bias makes the gate 1, so the ANML
    prediction path must agree with a MAML model sharing its weights."""
    anml = Classifier(ModelConfig(input_dim=3, encoder_dims=(4,), num_classes=3,
                                  architecture="ANML", nm_hidden_dim=5))
    maml = Classifier(ModelConfig(input_dim=3, encoder_dims=(4,), num_classes=3,
                                  architecture="MAML"))
    p_anml = anml.init_params(np.random.default_rng(0))
    p_maml = maml.init_params(np.random.default_rng(1))
    for name in ("enc0.W", "enc0.b", "head.W", "head.b"):
        _set(p_maml, name, p_anml.tensors[name])
    _set(p_anml, "nm_out.W", np.zeros_like(p_anml.tensors["nm_out.W"]))
    _set(p_anml, "nm_out.b", 500.0)

    x = RNG.standard_normal((6, 3))
    batch = Batch(x, np.zeros(6, dtype=int))
    la, gate = anml.predict(p_anml, batch)
    lm, _ = maml.predict(p_maml, batch)
    np.testing.assert_allclose(la, lm, atol=1e-12)
    assert gate_stats([gate])[1] == 1.0


def test_initial_gate_sits_near_its_bias():
    clf = Classifier(ModelConfig(input_dim=4, encoder_dims=(8,), num_classes=2,
                                 architecture="ANML"))
    params = clf.init_params(np.random.default_rng(3))
    _, gate = clf.predict(params, Batch(RNG.standard_normal((50, 4)), np.zeros(50, dtype=int)))
    assert np.all(gate.values >= 0.0) and np.all(gate.values <= 1.0)
    # Fresh gates should hover around sigmoid(NM_OUTPUT_BIAS), not collapse.
    expected = 1.0 / (1.0 + np.exp(-NM_OUTPUT_BIAS))
    assert abs(gate_stats([gate])[0] - expected) < 0.15


@pytest.mark.parametrize("arch,inner,outer", [
    ("OML", {Partition.HEAD}, {Partition.ENCODER, Partition.HEAD}),
    ("ANML", {Partition.ENCODER, Partition.HEAD},
     {Partition.ENCODER, Partition.HEAD, Partition.NM}),
    ("MAML", {Partition.ENCODER, Partition.HEAD},
     {Partition.ENCODER, Partition.HEAD}),
])
def test_partition_sets_per_architecture(arch, inner, outer):
    clf = Classifier(ModelConfig(input_dim=3, encoder_dims=(4,), num_classes=2,
                                 architecture=arch))
    assert clf.inner_partitions() == inner
    assert clf.outer_partitions() == outer


@pytest.mark.parametrize("arch", ["OML", "ANML", "MAML"])
def test_outer_span_is_all_of_flat(arch):
    """The outer set holds every trained parameter, so Adam's state covers
    all of ``flat``; the deep encoder checks that no layer falls outside."""
    clf = Classifier(ModelConfig(input_dim=5, encoder_dims=(4, 3), num_classes=3,
                                 architecture=arch, nm_hidden_dim=2))
    params = clf.init_params(RNG)
    assert params.span(clf.outer_partitions()) == slice(0, params.flat.size)


def test_nm_first_projection_is_frozen_label():
    clf = Classifier(ModelConfig(input_dim=3, encoder_dims=(4,), num_classes=2,
                                 architecture="ANML"))
    params = clf.init_params(RNG)
    assert params.partitions["nm_in.W"] == Partition.NM_FROZEN
    assert params.partitions["nm_in.b"] == Partition.NM_FROZEN
    # No partition query ever includes the frozen label.
    assert Partition.NM_FROZEN not in clf.inner_partitions() | clf.outer_partitions()


@pytest.mark.parametrize("arch", ["OML", "ANML", "MAML"])
def test_param_shapes_describe_init_params(arch):
    clf = Classifier(ModelConfig(input_dim=5, encoder_dims=(4, 3), num_classes=3,
                                 architecture=arch, nm_hidden_dim=2))
    params = clf.init_params(RNG)
    shapes = clf.param_shapes()
    assert list(shapes) == list(params.tensors)  # checkpoint order
    assert {n: (t.shape, params.partitions[n]) for n, t in params.tensors.items()} == shapes
    assert params.flat.size == sum(np.prod(shape) for shape, part in shapes.values()
                                   if part != Partition.NM_FROZEN)


def test_gradients_respect_partition_filter():
    clf = Classifier(ModelConfig(input_dim=3, encoder_dims=(4,), num_classes=2,
                                 architecture="ANML"))
    params = clf.init_params(RNG)
    batch = Batch(RNG.standard_normal((5, 3)), RNG.integers(0, 2, size=5))
    _, g_head = clf.loss_and_grad(params, batch, {Partition.HEAD})
    assert g_head.shape == (4 * 2 + 2,)
    assert set(params.views(g_head, {Partition.HEAD})) == {"head.W", "head.b"}
    outer = clf.outer_partitions()
    _, g_outer = clf.loss_and_grad(params, batch, outer)
    # The frozen projection sits outside the outer span.
    assert set(params.views(g_outer, outer)) == {
        "enc0.W", "enc0.b", "head.W", "head.b",
        "nm_mid.W", "nm_mid.b", "nm_out.W", "nm_out.b"}
    with pytest.raises(InputError):  # encoder and NM are separated by the head
        clf.loss_and_grad(params, batch, {Partition.ENCODER, Partition.NM})


def test_candidate_mode_scores_and_accuracy():
    clf = Classifier(ModelConfig(input_dim=2, encoder_dims=(2,), num_classes=2,
                                 loss_mode=LossMode.CANDIDATE_BCE))
    params = clf.init_params(RNG)
    _set(params, "enc0.W", np.eye(2))
    _set(params, "enc0.b", [0.0, 0.0])
    _set(params, "head.W", [[1.0], [1.0]])
    _set(params, "head.b", [0.0])
    # Candidate score = sum of positive coordinates; the larger row wins.
    batch = Batch(
        np.array([[[1.0, 1.0], [3.0, 0.0]], [[0.5, 0.5], [0.0, 0.1]]]),
        np.array([1, 1]),
    )
    scores, _ = clf.predict(params, batch)
    np.testing.assert_allclose(scores, [[2.0, 3.0], [1.0, 0.1]])
    assert scores.argmax(axis=1).tolist() == [1, 0]
    # Predictions are (1, 0) against positives (1, 1): one of two correct.
    assert score_accuracy(clf.predict(params, batch)[0], batch.labels) == pytest.approx(0.5)
    with pytest.raises(InputError):  # label outside [0, K)
        clf.loss_and_grad(params, Batch(batch.features, np.array([0, 2])), {Partition.HEAD})
    with pytest.raises(InputError):  # (n, d) features are not candidate lists
        clf.predict(params, Batch(batch.features[0], np.array([0, 1])))


@pytest.mark.parametrize("loss_mode, shape, message", [
    (LossMode.MULTICLASS_CE, (4, 3), r"expected \(n, d\) features with d = 2, got \(4, 3\)"),
    (LossMode.MULTICLASS_CE, (4, 1, 2), r"expected \(n, d\) features with d = 2, got \(4, 1, 2\)"),
    (LossMode.CANDIDATE_BCE, (4, 2), r"expected \(n, K, d\) features with d = 2, got \(4, 2\)"),
    (LossMode.CANDIDATE_BCE, (4, 3, 5),
     r"expected \(n, K, d\) features with d = 2, got \(4, 3, 5\)"),
], ids=["rows-of-the-wrong-width", "candidate-lists", "rows-not-candidate-lists",
        "candidates-of-the-wrong-width"])
def test_features_of_the_wrong_shape_are_rejected(loss_mode, shape, message):
    """One check covers both modes, in predict and in loss_and_grad alike."""
    clf = Classifier(ModelConfig(input_dim=2, encoder_dims=(2,), num_classes=2,
                                 loss_mode=loss_mode))
    params = clf.init_params(RNG)
    batch = Batch(np.ones(shape), np.zeros(shape[0], dtype=int))
    with pytest.raises(InputError, match=message):
        clf.predict(params, batch)
    with pytest.raises(InputError, match=message):
        clf.loss_and_grad(params, batch, {Partition.HEAD})


def test_training_step_reduces_loss():
    clf = Classifier(ModelConfig(input_dim=4, encoder_dims=(8,), num_classes=3))
    params = clf.init_params(np.random.default_rng(5))
    batch = Batch(RNG.standard_normal((32, 4)), RNG.integers(0, 3, size=32))
    parts = clf.outer_partitions()
    loss0, grads = clf.loss_and_grad(params, batch, parts)
    from metareplay.numerics import sgd_step
    sgd_step(params, grads, 0.5, parts)
    loss1, _ = clf.loss_and_grad(params, batch, parts)
    assert loss1 < loss0


def test_input_dim_mismatch_raises():
    clf = Classifier(ModelConfig(input_dim=3, encoder_dims=(2,), num_classes=2))
    params = clf.init_params(RNG)
    with pytest.raises(InputError):
        clf.predict(params, Batch(np.zeros((1, 4)), np.array([0])))


def test_config_validation():
    with pytest.raises(InputError):
        ModelConfig(input_dim=0, encoder_dims=(2,))
    with pytest.raises(InputError):
        ModelConfig(input_dim=2, encoder_dims=())
    with pytest.raises(InputError):
        ModelConfig(input_dim=2, encoder_dims=(2,), architecture="OTHER")
    with pytest.raises(InputError):
        ModelConfig(input_dim=2, encoder_dims=(2,), num_classes=1)
