"""Layer primitives, losses, and optimizers against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metareplay.numerics import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    Adam,
    InputError,
    NumericalError,
    ParameterSet,
    Partition,
    adam_step,
    grad_check,
    relu,
    relu_backward,
    sgd_step,
    sigmoid,
    sigmoid_backward,
    sigmoid_bce,
    softmax_cross_entropy,
)

RNG = np.random.default_rng(42)


def _fd(f, x, eps=1e-6):
    """Central finite differences of a scalar function of an array."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + eps
        hi = f()
        x[i] = orig - eps
        lo = f()
        x[i] = orig
        g[i] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


def test_relu_backward_matches_finite_differences():
    x = RNG.standard_normal((6, 5)) + 0.05  # keep away from the kink
    dout = RNG.standard_normal((6, 5))

    def loss():
        return float((relu(x) * dout).sum())

    np.testing.assert_allclose(relu_backward(x, dout), _fd(loss, x), atol=1e-6)


def test_sigmoid_backward_matches_finite_differences():
    x = RNG.standard_normal((4, 3))
    dout = RNG.standard_normal((4, 3))

    def loss():
        return float((sigmoid(x) * dout).sum())

    np.testing.assert_allclose(sigmoid_backward(sigmoid(x), dout), _fd(loss, x), atol=1e-6)


def test_softmax_ce_gradient_matches_finite_differences():
    logits = RNG.standard_normal((7, 4))
    labels = RNG.integers(0, 4, size=7)

    def loss():
        return softmax_cross_entropy(logits, labels)[0]

    _, dlogits = softmax_cross_entropy(logits, labels)
    np.testing.assert_allclose(dlogits, _fd(loss, logits), atol=1e-7)


def test_softmax_ce_loss_oracle():
    # Hand-computable two-class case: logits (0, 0) give loss log(2).
    loss, _ = softmax_cross_entropy(np.zeros((3, 2)), np.array([0, 1, 0]))
    assert loss == pytest.approx(np.log(2.0))


def test_softmax_ce_rejects_bad_labels():
    with pytest.raises(InputError):
        softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(InputError):
        softmax_cross_entropy(np.zeros((2, 3)), np.array([-1, 0]))


def test_sigmoid_bce_gradient_matches_finite_differences():
    z = RNG.standard_normal(10)
    y = RNG.integers(0, 2, size=10).astype(float)

    def loss():
        return sigmoid_bce(z, y)[0]

    _, dz = sigmoid_bce(z, y)
    np.testing.assert_allclose(dz, _fd(loss, z), atol=1e-7)


def test_sigmoid_bce_stable_at_extreme_logits():
    loss, dz = sigmoid_bce(np.array([500.0, -500.0]), np.array([1.0, 0.0]))
    assert np.isfinite(loss) and loss == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.isfinite(dz))


@given(st.floats(min_value=-700, max_value=700))
def test_sigmoid_bounded_and_finite(x):
    s = sigmoid(np.array([x]))[0]
    assert 0.0 <= s <= 1.0 and np.isfinite(s)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=2, max_value=6),
       st.integers(min_value=0, max_value=10_000))
def test_softmax_ce_rows_sum_to_zero(n, c, seed):
    rng = np.random.default_rng(seed)
    logits = 10 * rng.standard_normal((n, c))
    labels = rng.integers(0, c, size=n)
    loss, dlogits = softmax_cross_entropy(logits, labels)
    assert loss >= 0.0
    # Each row of the gradient is a probability vector minus a one-hot.
    np.testing.assert_allclose(dlogits.sum(axis=1), 0.0, atol=1e-12)


def _param(vec):
    return ParameterSet({"p": np.array(vec, dtype=float)}, {"p": Partition.HEAD})


HEAD = {Partition.HEAD}


def test_sgd_step_updates_in_place():
    params = _param([1.0, 2.0])
    grads = np.array([0.5, -1.0])
    sgd_step(params, grads, 0.1, HEAD)
    np.testing.assert_allclose(params.tensors["p"], [0.95, 2.1])
    np.testing.assert_array_equal(grads, [0.5 * 0.1, -1.0 * 0.1])  # consumed: scaled in place


def test_sgd_step_shape_mismatch_raises():
    with pytest.raises(InputError):
        sgd_step(_param([1.0, 2.0]), np.zeros(3), 0.1, HEAD)


def _reference_adam(p0, grads, beta):
    """Textbook Adam with bias correction, written independently."""
    p = p0.copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1 ** t)
        v_hat = v / (1 - ADAM_BETA2 ** t)
        p = p - beta * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return p


def test_adam_matches_reference_over_many_steps():
    p0 = RNG.standard_normal(6)
    grads = [RNG.standard_normal(6) for _ in range(25)]
    params = _param(p0)
    adam = Adam(params, HEAD, 0.01)
    for g in grads:
        adam_step(adam, g.copy())
    np.testing.assert_allclose(params.tensors["p"], _reference_adam(p0, grads, 0.01),
                               rtol=1e-12)
    assert adam.t == 25


def test_adam_keeps_one_work_vector_and_consumes_its_gradient():
    # The second work vector is the gradient itself, which holds the step
    # after the call, so the parameters move by exactly what it holds.
    clf, params = _anml_params()
    parts = clf.outer_partitions()
    span = params.span(parts)
    adam = Adam(params, parts, 0.01)
    rng = np.random.default_rng(12)
    for _ in range(3):
        grads = rng.standard_normal(span.stop - span.start)
        given, before = grads.copy(), params.flat.copy()
        adam_step(adam, grads)
        assert adam._tmp.shape == (span.stop - span.start,)
        assert not np.array_equal(grads, given)
        np.testing.assert_array_equal(params.flat[span], before[span] - grads)


def test_adam_first_step_size_is_beta():
    # With bias correction the very first update has magnitude ~beta
    # regardless of the gradient scale.
    for scale in (1e-4, 1.0, 1e4):
        params = _param([0.0])
        adam_step(Adam(params, HEAD, 0.01), np.array([scale]))
        assert params.tensors["p"][0] == pytest.approx(-0.01, rel=1e-3)


def test_adam_beta_zero_is_identity_for_values():
    params = _param([3.0, -2.0])
    adam = Adam(params, HEAD, 0.0)
    adam_step(adam, np.array([1.0, 1.0]))
    np.testing.assert_allclose(params.tensors["p"], [3.0, -2.0])
    assert adam.t == 1  # state still advances


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adam_rejects_one_non_finite_gradient_entry(bad):
    params = _param([1.0, 2.0, 3.0])
    adam = Adam(params, HEAD, 0.1)
    with pytest.raises(NumericalError):
        adam_step(adam, np.array([0.5, bad, -0.5]))
    np.testing.assert_array_equal(params.tensors["p"], [1.0, 2.0, 3.0])
    assert adam.t == 0 and not adam.moments.any()


def test_sgd_on_a_clone_leaves_the_original_and_its_adam_state():
    # A clone is an inner-loop working copy: SGD steps on it touch neither
    # the parameters it was cloned from nor the Adam state over them.
    params = _param([1.0, -1.0])
    adam = Adam(params, HEAD, 0.1)
    adam_step(adam, np.array([1.0, 0.5]))
    values, moments = params.flat.copy(), adam.moments.copy()
    clone = params.clone()
    assert not np.shares_memory(clone.flat, params.flat)
    for _ in range(3):
        sgd_step(clone, np.array([2.0, -3.0]), 0.05, HEAD)
    np.testing.assert_array_equal(params.flat, values)
    np.testing.assert_array_equal(adam.moments, moments)
    assert adam.t == 1 and adam.params is params
    np.testing.assert_allclose(clone.flat, values - 3 * 0.05 * np.array([2.0, -3.0]))


def test_grad_check_accepts_true_gradient_and_rejects_wrong_one():
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    params = _param(RNG.standard_normal(2))

    def loss(p):
        th = p.tensors["p"]
        return float(0.5 * th @ A @ th)

    good = A @ params.tensors["p"]
    assert grad_check(params, loss, good, HEAD, eps=1e-5) < 1e-8
    assert grad_check(params, loss, good + 0.1, HEAD, eps=1e-5) > 1e-3


def test_parameter_set_requires_matching_partitions():
    with pytest.raises(InputError):
        ParameterSet({"a": np.zeros(2)}, {})


# -- one contiguous buffer against the per-tensor loops it replaced ------------

def _anml_params(seed=3):
    from metareplay.model import Classifier, ModelConfig

    clf = Classifier(ModelConfig(input_dim=5, encoder_dims=(4, 3), num_classes=3,
                                 architecture="ANML", nm_hidden_dim=4))
    return clf, clf.init_params(np.random.default_rng(seed))


def _random_grads(rng, params, parts):
    """Per-name gradients for ``parts`` and their sorted-name concatenation."""
    named = {n: rng.standard_normal(t.shape) for n, t in params.tensors.items()
             if params.partitions[n] in parts}
    return named, np.concatenate([named[n].ravel() for n in sorted(named)])


def test_flat_adam_equals_per_tensor_loop():
    clf, params = _anml_params()
    parts = clf.outer_partitions()
    ref = {n: t.copy() for n, t in params.tensors.items()}
    adam = Adam(params, parts, 0.01)
    m, v = {}, {}
    rng = np.random.default_rng(8)
    for t in range(1, 26):
        named, flat = _random_grads(rng, params, parts)
        adam_step(adam, flat)
        for n, g in named.items():  # the per-tensor update, same op order
            mn = m.setdefault(n, np.zeros_like(g))
            vn = v.setdefault(n, np.zeros_like(g))
            mn *= ADAM_BETA1
            mn += (1.0 - ADAM_BETA1) * g
            vn *= ADAM_BETA2
            vn += (1.0 - ADAM_BETA2) * g * g
            ref[n] -= (0.01 * (mn / (1.0 - ADAM_BETA1 ** t))
                       / (np.sqrt(vn / (1.0 - ADAM_BETA2 ** t)) + ADAM_EPS))
    assert adam.t == 25
    for n in ref:  # the frozen projection is untouched in both
        np.testing.assert_array_equal(params.tensors[n], ref[n])


def test_flat_sgd_equals_per_tensor_loop():
    clf, params = _anml_params()
    parts = clf.inner_partitions()
    ref = {n: t.copy() for n, t in params.tensors.items()}
    rng = np.random.default_rng(9)
    for _ in range(25):
        named, flat = _random_grads(rng, params, parts)
        sgd_step(params, flat, 0.05, parts)
        for n, g in named.items():
            ref[n] -= 0.05 * g
    for n in ref:
        np.testing.assert_array_equal(params.tensors[n], ref[n])


def test_flat_agem_and_grad_dot_equal_sorted_concatenation():
    from metareplay.diagnostics import grad_dot
    from metareplay.learners import agem_project

    clf, params = _anml_params()
    parts = clf.outer_partitions()
    rng = np.random.default_rng(10)
    projected_any = False
    for _ in range(25):
        g, flat_g = _random_grads(rng, params, parts)
        g_ref, flat_ref = _random_grads(rng, params, parts)
        # The dict-based projection: flatten in sorted order, unflatten back.
        dot = float(flat_g @ flat_ref)
        ref_sq = float(flat_ref @ flat_ref)
        expected = {}
        for k in sorted(g):
            expected[k] = g[k] - (dot / ref_sq) * g_ref[k] if dot < 0 else g[k]
        projected, violated = agem_project(flat_g, flat_ref)
        assert violated == (dot < 0)
        projected_any |= violated
        np.testing.assert_array_equal(
            projected, np.concatenate([expected[k].ravel() for k in sorted(expected)]))
        sample = grad_dot(flat_g, flat_ref, 3)
        assert (sample.dot, sample.norm_a, sample.norm_b) == (
            dot, float(np.linalg.norm(flat_g)), float(np.linalg.norm(flat_ref)))
    assert projected_any


def test_adam_rejects_a_gradient_of_another_length():
    # A gradient over the inner span, or one entry too long, changes neither
    # the parameters nor the state.
    clf, params = _anml_params()
    outer, inner = clf.outer_partitions(), clf.inner_partitions()
    adam = Adam(params, outer, 0.1)
    n = adam.span.stop - adam.span.start
    adam_step(adam, np.random.default_rng(11).standard_normal(n))
    values, moments = params.flat.copy(), adam.moments.copy()
    inner_len = params.span(inner).stop - params.span(inner).start
    assert inner_len != n
    for length in (inner_len, n + 1):
        with pytest.raises(InputError):
            adam_step(adam, np.ones(length))
    np.testing.assert_array_equal(params.flat, values)
    np.testing.assert_array_equal(adam.moments, moments)
    assert adam.t == 1


def test_clone_copies_one_buffer():
    _, params = _anml_params()
    before = params.flat.copy()
    twin = params.clone()
    twin.tensors["head.W"] += 1.0
    assert not np.shares_memory(twin.flat, params.flat)
    np.testing.assert_array_equal(params.flat, before)
    np.testing.assert_array_equal(twin.flat[params.span({Partition.HEAD})][:2],
                                  params.tensors["head.W"].ravel()[:2] + 1.0)
    assert list(twin.tensors) == list(params.tensors)
