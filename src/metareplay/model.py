"""Classifier architectures and their analytic gradients.

Three variants over a shared small dense encoder:

* ``OML``  — encoder (frozen in the inner loop) + linear head (adapted).
* ``ANML`` — prediction network (encoder + head, adapted) whose pre-head
  representation is gated elementwise by a sigmoid signal from a separate
  neuromodulatory (NM) network; the NM is fixed in the inner loop.
* ``MAML`` — ANML without the gate; the whole prediction path is adapted.

Each network is stated once, as stacks of (layer name, partition): the
encoder (``ENCODER`` in every architecture), ANML's NM network and the head.
The stacks are the one place partitions are stated: the outer set is every
stack partition but ``NM_FROZEN``, and the inner set is the one rule per
architecture. One forward helper runs a stack. The backward pass walks a
stack only when its top partition is requested and stops at the bottom layer
or where the next layer down is not requested, so inner loops can request
gradients for any contiguous set of trained partitions.
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

@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    encoder_dims: tuple = (32,)
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


def _run_stack(t: dict, stack: list, h: np.ndarray) -> list:
    """Each layer's (input, pre-activation) up a stack of ``h @ W + b`` layers
    with a ReLU between them; the caller applies the top layer's activation."""
    records = []
    for name, _ in stack:
        if records:
            h = relu(records[-1][1])
        z = h @ t[name + ".W"]
        z += t[name + ".b"]
        records.append((h, z))
    return records


class Classifier:
    """Bundles a ModelConfig with forward/backward and partition queries."""

    def __init__(self, config: ModelConfig):
        self.config = config
        arch = config.architecture
        # The layer stacks, bottom up, as (layer name, partition).
        self._encoder = [(f"enc{i}", Partition.ENCODER) for i in range(len(config.encoder_dims))]
        # ANML's NM network; its first projection stays at its random initialization.
        self._nm = [("nm_in", Partition.NM_FROZEN), ("nm_mid", Partition.NM),
                    ("nm_out", Partition.NM)] if arch == "ANML" else []
        self._head = [("head", Partition.HEAD)]
        self._outer = frozenset(part for stack in (self._encoder, self._nm, self._head)
                                for _, part in stack) - {Partition.NM_FROZEN}
        self._inner = (frozenset({Partition.HEAD}) if arch == "OML"
                       else self._outer - {Partition.NM})

    # -- parameters ---------------------------------------------------------

    def param_shapes(self) -> dict:
        """{name: (shape, partition)} of every parameter, in initialization order."""
        cfg = self.config
        rep = cfg.encoder_dims[-1]
        head_out = 1 if cfg.loss_mode == LossMode.CANDIDATE_BCE else cfg.num_classes
        shapes = {}
        for stack, fan_in, widths in (
                (self._encoder, cfg.input_dim, cfg.encoder_dims),
                (self._head, rep, (head_out,)),
                (self._nm, cfg.input_dim, (cfg.nm_hidden_dim, cfg.nm_hidden_dim, rep))):
            for (name, part), fan_out in zip(stack, widths):
                shapes[name + ".W"] = ((fan_in, fan_out), part)
                shapes[name + ".b"] = ((fan_out,), part)
                fan_in = fan_out
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
        """Per-example scores and a cache of each stack's layer records (see
        ``_run_stack``), plus the representation and the gate where the NM
        network gates it. Scores are the (n, C) logits of (n, d) features, or
        in CANDIDATE_BCE mode the (n, K) pair scores of (n, K, d) features,
        whose pair rows run through the network as one (n*K, d) matrix."""
        cfg = self.config
        candidates = cfg.loss_mode == LossMode.CANDIDATE_BCE
        if x.ndim != 2 + candidates or x.shape[-1] != cfg.input_dim:
            shape = "(n, K, d)" if candidates else "(n, d)"
            raise InputError(f"expected {shape} features with d = {cfg.input_dim}, got {x.shape}")
        rows = x.reshape(-1, cfg.input_dim) if candidates else x
        t = params.tensors
        cache = {"encoder": _run_stack(t, self._encoder, rows)}
        h = relu(cache["encoder"][-1][1])
        if self._nm:
            cache["nm"] = _run_stack(t, self._nm, rows)
            cache["rep"] = h
            cache["gate"] = gate = sigmoid(cache["nm"][-1][1])
            h = h * gate
        cache["head"] = _run_stack(t, self._head, h)
        logits = cache["head"][0][1]
        return (logits.reshape(x.shape[:2]) if candidates else logits), cache

    def _backward(self, params: ParameterSet, cache: dict, dlogits: np.ndarray,
                  parts: frozenset):
        """A fresh gradient vector over ``params.span(parts)``, filled through
        the layout's cached slots. A stack is walked only when its top
        partition is requested, and down only while the next layer is."""
        t = params.tensors
        span, slots = params.layout(parts)
        flat = np.empty(span.stop - span.start)

        def requested(stack):
            return bool(stack) and stack[-1][1] in parts

        def walk(stack, records, dz):
            """Down a stack from ``dz``, the gradient at its top pre-activation."""
            for i in reversed(range(len(stack))):
                name = stack[i][0]
                a, b, shape = slots[name + ".W"]
                np.matmul(records[i][0].T, dz, out=flat[a:b].reshape(shape))
                a, b, _ = slots[name + ".b"]  # biases are vectors
                np.add.reduce(dz, axis=0, out=flat[a:b])
                if i == 0 or stack[i - 1][1] not in parts:
                    return
                dz = relu_backward(records[i - 1][1], dz @ t[name + ".W"].T)

        if requested(self._head):
            walk(self._head, cache["head"], dlogits)
        nm, encoder = requested(self._nm), requested(self._encoder)
        if not (nm or encoder):
            return flat
        dh = dlogits @ t["head.W"].T
        if self._nm:
            gate = cache["gate"]
            if nm:
                walk(self._nm, cache["nm"], sigmoid_backward(gate, dh * cache["rep"]))
            dh = dh * gate
        if encoder:
            records = cache["encoder"]
            walk(self._encoder, records, relu_backward(records[-1][1], dh))
        return flat

    # -- public API ---------------------------------------------------------

    def predict(self, params: ParameterSet, batch):
        """Scores per example plus a GateRecord (ANML only, else None).

        Scores are (n, C) class logits, or (n, K) candidate scores in
        CANDIDATE_BCE mode; either way the prediction is the row argmax.
        """
        scores, cache = self._forward(params, batch.features)
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
        scores, cache = self._forward(params, batch.features)
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
