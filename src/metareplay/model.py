"""Classifier architectures and their analytic gradients.

Three variants over a shared small dense encoder:

* ``OML``  — encoder (frozen in the inner loop) + linear head (adapted).
* ``ANML`` — prediction network (encoder + head, adapted) whose pre-head
  representation is gated elementwise by a sigmoid signal from a separate
  neuromodulatory (NM) network; the NM is fixed in the inner loop.
* ``MAML`` — ANML without the gate; the whole prediction path is adapted.

Forward and backward passes are hand-written so inner loops can request
gradients for an arbitrary subset of parameter partitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    InputError,
    LossMode,
    NumericalError,
    ParameterSet,
    Partition,
    relu,
    relu_backward,
    sigmoid,
    sigmoid_backward,
    sigmoid_bce,
    softmax_cross_entropy,
)

ARCHITECTURES = ("OML", "ANML", "MAML")

# Sigmoid bias on the NM output layer so initial gates sit near sigma(2)=0.88
# instead of collapsing the representation at the start of training.
NM_OUTPUT_BIAS = 2.0

_HEAD_ONLY = frozenset({Partition.HEAD})


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    encoder_dims: tuple = (64,)
    num_classes: int = 2
    architecture: str = "OML"
    nm_hidden_dim: int = 32
    loss_mode: LossMode = LossMode.MULTICLASS_CE

    def __post_init__(self):
        if self.input_dim < 1:
            raise InputError("input_dim must be >= 1")
        if not self.encoder_dims or min(self.encoder_dims) < 1:
            raise InputError("encoder_dims must be a non-empty list of widths >= 1")
        if self.architecture == "ANML" and self.nm_hidden_dim < 1:
            raise InputError("nm_hidden_dim must be >= 1")
        if self.architecture not in ARCHITECTURES:
            raise InputError(f"unknown architecture {self.architecture!r}")
        if self.loss_mode == LossMode.MULTICLASS_CE and self.num_classes < 2:
            raise InputError("MULTICLASS_CE needs num_classes >= 2")


@dataclass
class GateRecord:
    """Per-example NM gate values (summarized by ``diagnostics.gate_stats``)."""

    values: np.ndarray  # (n_examples, gate_width), all in [0, 1]


def _glorot(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Classifier:
    """Bundles a ModelConfig with forward/backward and partition queries."""

    def __init__(self, config: ModelConfig):
        self.config = config
        arch = config.architecture
        if arch == "OML":
            self._inner = _HEAD_ONLY
            self._outer = frozenset({Partition.ENCODER, Partition.HEAD})
        else:
            self._inner = frozenset({Partition.PN_ENCODER, Partition.HEAD})
            self._outer = self._inner | {Partition.NM} if arch == "ANML" else self._inner

    # -- parameters ---------------------------------------------------------

    def param_shapes(self) -> dict:
        """{name: (shape, partition)} of every parameter, in initialization order."""
        cfg = self.config
        enc_part = Partition.ENCODER if cfg.architecture == "OML" else Partition.PN_ENCODER
        layers = []  # (name, fan_in, fan_out, partition)
        d = cfg.input_dim
        for i, width in enumerate(cfg.encoder_dims):
            layers.append((f"enc{i}", d, width, enc_part))
            d = width
        head_out = 1 if cfg.loss_mode == LossMode.CANDIDATE_BCE else cfg.num_classes
        layers.append(("head", d, head_out, Partition.HEAD))
        if cfg.architecture == "ANML":
            h = cfg.nm_hidden_dim
            # The first NM projection stays at its random initialization.
            layers += [("nm_in", cfg.input_dim, h, Partition.NM_FROZEN),
                       ("nm_mid", h, h, Partition.NM),
                       ("nm_out", h, cfg.encoder_dims[-1], Partition.NM)]
        shapes = {}
        for name, fan_in, fan_out, part in layers:
            shapes[name + ".W"] = ((fan_in, fan_out), part)
            shapes[name + ".b"] = ((fan_out,), part)
        return shapes

    def init_params(self, rng: np.random.Generator) -> ParameterSet:
        """Glorot-uniform weights drawn in layer order, zero biases (the NM
        output bias is NM_OUTPUT_BIAS)."""
        shapes = self.param_shapes()
        tensors = {name: _glorot(rng, *shape) if name.endswith(".W") else np.zeros(shape)
                   for name, (shape, _) in shapes.items()}
        if "nm_out.b" in tensors:
            tensors["nm_out.b"][:] = NM_OUTPUT_BIAS
        return ParameterSet(tensors, {name: part for name, (_, part) in shapes.items()})

    def inner_partitions(self) -> frozenset:
        """Partitions adapted by inner-loop SGD (one cached frozenset)."""
        return self._inner

    def outer_partitions(self) -> frozenset:
        """Partitions updated by the meta (or plain) optimizer (one cached frozenset)."""
        return self._outer

    # -- forward ------------------------------------------------------------

    def _forward(self, params: ParameterSet, x: np.ndarray):
        cfg = self.config
        if x.ndim != 2 or x.shape[1] != cfg.input_dim:
            raise InputError(
                f"expected features of dimension {cfg.input_dim}, got {x.shape}"
            )
        t = params.tensors
        cache = {"x": x, "enc_in": [], "enc_out": []}
        h = x
        for i in range(len(cfg.encoder_dims)):
            z = h @ t[f"enc{i}.W"]
            z += t[f"enc{i}.b"]
            cache["enc_in"].append(h)
            cache["enc_out"].append(z)
            h = relu(z)
        cache["rep"] = h

        if cfg.architecture == "ANML":
            z0 = x @ t["nm_in.W"]
            z0 += t["nm_in.b"]
            a0 = relu(z0)
            z1 = a0 @ t["nm_mid.W"]
            z1 += t["nm_mid.b"]
            a1 = relu(z1)
            z2 = a1 @ t["nm_out.W"]
            z2 += t["nm_out.b"]
            gate = sigmoid(z2)
            cache.update(nm_z0=z0, nm_a0=a0, nm_z1=z1, nm_a1=a1, gate=gate)
            h = h * gate
            cache["gated"] = h

        logits = h @ t["head.W"]
        logits += t["head.b"]
        cache["head_in"] = h
        return logits, cache

    def _backward(self, params: ParameterSet, cache: dict, dlogits: np.ndarray,
                  parts: frozenset):
        """A fresh gradient vector over ``params.span(parts)``, filled through
        the layout's cached slots. Input gradients are formed only where a
        requested partition lies below them."""
        cfg = self.config
        t = params.tensors
        span, slots = params.layout(parts)
        flat = np.empty(span.stop - span.start)

        def weight_grads(layer, x, dz):
            a, b, shape = slots[layer + ".W"]
            np.matmul(x.T, dz, out=flat[a:b].reshape(shape))
            a, b, _ = slots[layer + ".b"]  # biases are vectors
            np.add.reduce(dz, axis=0, out=flat[a:b])

        if Partition.HEAD in parts:
            weight_grads("head", cache["head_in"], dlogits)
        # Only OML's cached inner set stops here; an equal set built
        # elsewhere takes the general path, which adds nothing to ``flat``.
        if parts is _HEAD_ONLY:
            return flat
        dh = dlogits @ t["head.W"].T

        if cfg.architecture == "ANML":
            gate = cache["gate"]
            if Partition.NM in parts or Partition.NM_FROZEN in parts:
                dz2 = sigmoid_backward(gate, dh * cache["rep"])
                dz1 = relu_backward(cache["nm_z1"], dz2 @ t["nm_out.W"].T)
                if Partition.NM in parts:
                    weight_grads("nm_out", cache["nm_a1"], dz2)
                    weight_grads("nm_mid", cache["nm_a0"], dz1)
                if Partition.NM_FROZEN in parts:
                    dz0 = relu_backward(cache["nm_z0"], dz1 @ t["nm_mid.W"].T)
                    weight_grads("nm_in", cache["x"], dz0)
            dh = dh * gate

        enc_part = Partition.ENCODER if cfg.architecture == "OML" else Partition.PN_ENCODER
        if enc_part in parts:
            for i in reversed(range(len(cfg.encoder_dims))):
                dz = relu_backward(cache["enc_out"][i], dh)
                weight_grads(f"enc{i}", cache["enc_in"][i], dz)
                if i:
                    dh = dz @ t[f"enc{i}.W"].T
        return flat

    def _scores(self, params: ParameterSet, x: np.ndarray):
        """Forward pass to per-example scores: (n, C) logits, or in
        CANDIDATE_BCE mode the (n, K) pair scores of (n, K, d) features,
        whose pair rows run through the network as one (n*K, d) matrix."""
        if self.config.loss_mode != LossMode.CANDIDATE_BCE:
            return self._forward(params, x)
        if x.ndim != 3:
            raise InputError(f"candidate features must be (n, K, d), got {x.shape}")
        logits, cache = self._forward(params, x.reshape(-1, x.shape[-1]))
        return logits.reshape(x.shape[:2]), cache

    # -- public API ---------------------------------------------------------

    def predict(self, params: ParameterSet, batch):
        """Scores per example plus a GateRecord (ANML only, else None).

        Scores are (n, C) class logits, or (n, K) candidate scores in
        CANDIDATE_BCE mode; either way the prediction is the row argmax.
        """
        scores, cache = self._scores(params, batch.features)
        gate = GateRecord(cache["gate"]) if "gate" in cache else None
        return scores, gate

    def loss_and_grad(self, params: ParameterSet, batch, partition_filter):
        """Mean batch loss and its analytic gradient: one vector over
        ``params.span(partition_filter)``, in the layout of ``params.flat``."""
        parts = frozenset(partition_filter)
        if not parts:
            raise InputError("partition filter is empty")
        if len(batch) == 0:
            raise InputError("empty batch")
        scores, cache = self._scores(params, batch.features)
        if self.config.loss_mode == LossMode.CANDIDATE_BCE:
            # One BCE term per (input, candidate) pair; only the true one is 1.
            n, k = scores.shape
            labels = np.asarray(batch.labels)
            if labels.min() < 0 or labels.max() >= k:
                raise InputError(f"candidate label out of range [0, {k})")
            targets = np.zeros((n, k))
            targets[np.arange(n), labels] = 1.0
            loss, dflat = sigmoid_bce(scores.ravel(), targets.ravel())
            dlogits = dflat[:, None]
        else:
            loss, dlogits = softmax_cross_entropy(scores, batch.labels)
        if not math.isfinite(loss):
            raise NumericalError(
                "non-finite loss", payload={"loss": loss, "logits_max": float(np.abs(scores).max())}
            )
        return loss, self._backward(params, cache, dlogits, parts)


def score_accuracy(scores: np.ndarray, labels) -> float:
    """Fraction of rows of ``predict``'s scores whose argmax is the label."""
    return float((scores.argmax(axis=1) == np.asarray(labels)).mean())
