"""The per-call training path against the code it replaced, kept here as oracles.

The references below are the earlier, simpler forms of ``sigmoid``,
``softmax_cross_entropy`` and ``Classifier.loss_and_grad`` (a forward pass of
``x @ W + b`` layers and a backward pass that names every gradient through
``ParameterSet.views``). The shipped code must reproduce them bit for bit.
"""

import numpy as np
import pytest

from metareplay.model import Classifier, ModelConfig
from metareplay.numerics import (
    InputError,
    LossMode,
    Partition,
    relu,
    relu_backward,
    sigmoid,
    sigmoid_backward,
    softmax_cross_entropy,
)
from metareplay.stream import Batch

RNG = np.random.default_rng(2024)


def _sigmoid_ref(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _ce_ref(logits, labels):
    n, c = logits.shape
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= c:
        raise InputError(f"label out of range [0, {c})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    true = np.arange(0, n * c, c) + labels
    loss = -np.add.reduce(logp.ravel()[true]) / n
    dlogits = np.exp(logp)
    dlogits.ravel()[true] -= 1.0
    dlogits /= n
    return loss, dlogits


def _bce_ref(z, y):
    loss = (np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))).mean()
    return loss, (_sigmoid_ref(z) - y) / z.size


def _forward_ref(cfg, t, x):
    cache = {"enc_in": [], "enc_out": []}
    h = x
    for i in range(len(cfg.encoder_dims)):
        z = h @ t[f"enc{i}.W"] + t[f"enc{i}.b"]
        cache["enc_in"].append(h)
        cache["enc_out"].append(z)
        h = relu(z)
    cache["rep"] = h
    if cfg.architecture == "ANML":
        a0 = relu(x @ t["nm_in.W"] + t["nm_in.b"])
        z1 = a0 @ t["nm_mid.W"] + t["nm_mid.b"]
        a1 = relu(z1)
        gate = _sigmoid_ref(a1 @ t["nm_out.W"] + t["nm_out.b"])
        cache.update(nm_a0=a0, nm_z1=z1, nm_a1=a1, gate=gate)
        h = h * gate
    cache["head_in"] = h
    return h @ t["head.W"] + t["head.b"], cache


def _backward_ref(cfg, params, cache, dlogits, parts):
    t = params.tensors
    span = params.span(parts)
    flat = np.empty(span.stop - span.start)
    grads = params.views(flat, parts)

    def weight_grads(layer, x, dz):
        np.matmul(x.T, dz, out=grads[f"{layer}.W"])
        np.add.reduce(dz, axis=0, out=grads[f"{layer}.b"])

    if Partition.HEAD in parts:
        weight_grads("head", cache["head_in"], dlogits)
    if not parts - {Partition.HEAD}:
        return flat
    dh = dlogits @ t["head.W"].T
    if cfg.architecture == "ANML":
        gate = cache["gate"]
        if Partition.NM in parts:
            dz2 = sigmoid_backward(gate, dh * cache["rep"])
            weight_grads("nm_out", cache["nm_a1"], dz2)
            weight_grads("nm_mid", cache["nm_a0"],
                         relu_backward(cache["nm_z1"], dz2 @ t["nm_out.W"].T))
        dh = dh * gate
    if Partition.ENCODER in parts:
        for i in reversed(range(len(cfg.encoder_dims))):
            dz = relu_backward(cache["enc_out"][i], dh)
            weight_grads(f"enc{i}", cache["enc_in"][i], dz)
            if i:
                dh = dz @ t[f"enc{i}.W"].T
    return flat


def _loss_and_grad_ref(clf, params, batch, parts):
    cfg, parts = clf.config, set(parts)
    x = batch.features
    if cfg.loss_mode == LossMode.CANDIDATE_BCE:
        logits, cache = _forward_ref(cfg, params.tensors, x.reshape(-1, x.shape[-1]))
        n, k = x.shape[:2]
        targets = np.zeros((n, k))
        targets[np.arange(n), batch.labels] = 1.0
        loss, dflat = _bce_ref(logits.ravel(), targets.ravel())
        dlogits = dflat[:, None]
    else:
        logits, cache = _forward_ref(cfg, params.tensors, x)
        loss, dlogits = _ce_ref(logits, batch.labels)
    return loss, _backward_ref(cfg, params, cache, dlogits, parts)


# -- sigmoid -----------------------------------------------------------------

@pytest.mark.parametrize("x", [
    np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan]),
    np.array([701.0, -701.0, 745.2, -745.2, 800.0, -800.0, 1e308, -1e308]),
    RNG.standard_normal((16, 32)),
    30 * RNG.standard_normal((16, 32)),
], ids=["signed-zero-inf-nan", "beyond-700", "normal", "wide"])
def test_sigmoid_matches_masked_reference(x):
    with np.errstate(over="ignore"):
        expected = _sigmoid_ref(x)
    got = sigmoid(x)
    np.testing.assert_array_equal(got, expected)  # NaN where the reference has NaN
    number = ~np.isnan(expected)  # a NaN's sign bit carries no value
    np.testing.assert_array_equal(np.signbit(got[number]), np.signbit(expected[number]))


# -- softmax cross-entropy -----------------------------------------------------

def _logit_cases():
    for n in (1, 16, 160):
        yield f"random-{n}", RNG.standard_normal((n, 10)), RNG.integers(0, 10, n)
    ties = np.zeros((16, 5))
    ties[::2, 1] = ties[::2, 3] = 2.0  # two maxima per even row
    yield "ties", ties, RNG.integers(0, 5, 16)
    spread = RNG.standard_normal((16, 6))
    spread[:, 0] += 750.0
    spread[::3, 2] -= 900.0
    yield "spread-above-700", spread, RNG.integers(0, 6, 16)
    yield "scaled", 200.0 * RNG.standard_normal((160, 4)), RNG.integers(0, 4, 160)


@pytest.mark.parametrize("name,logits,labels", list(_logit_cases()),
                         ids=[c[0] for c in _logit_cases()])
def test_softmax_ce_matches_reference(name, logits, labels):
    loss, grad = softmax_cross_entropy(logits, labels)
    ref_loss, ref_grad = _ce_ref(logits, labels)
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    np.testing.assert_array_equal(grad, ref_grad)


# -- loss_and_grad -----------------------------------------------------------

_CONFIGS = {
    "OML": ModelConfig(input_dim=10, encoder_dims=(32,), num_classes=6),
    "OML-deep": ModelConfig(input_dim=10, encoder_dims=(12, 8), num_classes=6),
    "ANML": ModelConfig(input_dim=10, encoder_dims=(32,), num_classes=6,
                        architecture="ANML", nm_hidden_dim=9),
    "MAML": ModelConfig(input_dim=10, encoder_dims=(32,), num_classes=6,
                        architecture="MAML"),
    "ANML-deep": ModelConfig(input_dim=10, encoder_dims=(12, 8), num_classes=6,
                             architecture="ANML", nm_hidden_dim=9),
    "MAML-deep": ModelConfig(input_dim=10, encoder_dims=(12, 8), num_classes=6,
                             architecture="MAML"),
}


def _partition_sets(clf, params):
    return {"inner": clf.inner_partitions(), "outer": clf.outer_partitions(),
            "all": frozenset(params.partitions.values())}


@pytest.mark.parametrize("as_frozenset", [True, False], ids=["frozenset", "set"])
@pytest.mark.parametrize("which", ["inner", "outer", "all"])
@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_loss_and_grad_matches_views_reference(name, which, as_frozenset):
    clf = Classifier(_CONFIGS[name])
    params = clf.init_params(np.random.default_rng(3))
    params.flat += 0.1 * RNG.standard_normal(params.flat.size)  # off the init
    parts = _partition_sets(clf, params)[which]
    parts = frozenset(parts) if as_frozenset else set(parts)
    batch = Batch(RNG.standard_normal((16, 10)), RNG.integers(0, 6, 16))
    if Partition.NM_FROZEN in parts:  # ANML's "all": no span holds the frozen layer
        with pytest.raises(InputError, match="NM_FROZEN"):
            clf.loss_and_grad(params, batch, parts)
        return
    loss, grad = clf.loss_and_grad(params, batch, parts)
    ref_loss, ref_grad = _loss_and_grad_ref(clf, params, batch, parts)
    assert loss == ref_loss
    np.testing.assert_array_equal(grad, ref_grad)
    # Every call hands back a gradient of its own.
    again = clf.loss_and_grad(params, batch, parts)[1]
    assert not np.shares_memory(grad, again)
    np.testing.assert_array_equal(again, grad)


def _spans(params):
    """Every set of the model's partitions that ``ParameterSet.span`` accepts."""
    names = sorted(set(params.partitions.values()))
    for bits in range(1, 2 ** len(names)):
        parts = frozenset(p for i, p in enumerate(names) if bits >> i & 1)
        try:
            params.span(parts)
        except InputError:  # not one contiguous slice, or NM_FROZEN in it
            continue
        yield parts


def test_loss_and_grad_matches_reference_over_every_span():
    """Input gradients are formed only while a requested layer lies below;
    e.g. ``{NM}`` alone and ``{HEAD, NM}`` must still match."""
    batch = Batch(RNG.standard_normal((16, 10)), RNG.integers(0, 6, 16))
    checked = 0
    for name in sorted(_CONFIGS):
        clf = Classifier(_CONFIGS[name])
        params = clf.init_params(np.random.default_rng(5))
        params.flat += 0.1 * RNG.standard_normal(params.flat.size)
        for parts in _spans(params):
            loss, grad = clf.loss_and_grad(params, batch, parts)
            ref_loss, ref_grad = _loss_and_grad_ref(clf, params, batch, parts)
            assert loss == ref_loss, (name, sorted(parts))
            np.testing.assert_array_equal(grad, ref_grad, err_msg=f"{name} {sorted(parts)}")
            checked += 1
    # OML and MAML: 3 sets each (two partitions); ANML: the 6 runs of its
    # three trained partitions in layout order (ENCODER, HEAD, NM).
    assert checked == 24


@pytest.mark.parametrize("arch", ["OML", "ANML"])
def test_candidate_loss_and_grad_matches_views_reference(arch):
    clf = Classifier(ModelConfig(input_dim=8, encoder_dims=(6,), num_classes=2,
                                 architecture=arch, nm_hidden_dim=4,
                                 loss_mode=LossMode.CANDIDATE_BCE))
    params = clf.init_params(np.random.default_rng(4))
    batch = Batch(RNG.standard_normal((5, 3, 8)), np.array([0, 2, 1, 1, 0]))
    for parts in (clf.inner_partitions(), set(clf.outer_partitions())):
        loss, grad = clf.loss_and_grad(params, batch, parts)
        ref_loss, ref_grad = _loss_and_grad_ref(clf, params, batch, parts)
        assert loss == ref_loss
        np.testing.assert_array_equal(grad, ref_grad)


def test_partition_getters_return_one_cached_frozenset():
    for config in _CONFIGS.values():
        clf = Classifier(config)
        for getter in (clf.inner_partitions, clf.outer_partitions):
            assert isinstance(getter(), frozenset)
            assert getter() is getter()
