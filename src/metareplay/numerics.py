"""Dense-layer numerics: forward/backward primitives, losses, optimizers.

Everything runs in float64. Gradients are computed analytically, layer by
layer; ``grad_check`` verifies any loss function against central finite
differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class Partition(str, Enum):
    """Label identifying which sub-network a parameter belongs to."""

    ENCODER = "encoder"
    HEAD = "head"
    PN_ENCODER = "pn_encoder"
    NM = "nm"
    NM_FROZEN = "nm_frozen"  # never updated by any loop


class LossMode(str, Enum):
    MULTICLASS_CE = "multiclass_ce"
    CANDIDATE_BCE = "candidate_bce"


class InputError(ValueError):
    """Raised on malformed inputs (shape/label/config mismatches)."""


class NumericalError(ArithmeticError):
    """Raised when a non-finite loss or gradient is produced."""

    def __init__(self, message, payload=None):
        super().__init__(message)
        self.payload = payload or {}


@dataclass
class ParameterSet:
    """Named parameter tensors with partition labels and Adam state.

    Optimizer state (first/second moment, per-parameter step count) is
    allocated lazily on the first Adam update of each parameter.
    """

    tensors: dict[str, np.ndarray]
    partitions: dict[str, Partition]
    adam_m: dict[str, np.ndarray] = field(default_factory=dict)
    adam_v: dict[str, np.ndarray] = field(default_factory=dict)
    adam_t: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if set(self.tensors) != set(self.partitions):
            raise InputError("every parameter needs exactly one partition label")

    def clone(self) -> "ParameterSet":
        return ParameterSet(
            tensors={n: t.copy() for n, t in self.tensors.items()},
            partitions=dict(self.partitions),
            adam_m={n: t.copy() for n, t in self.adam_m.items()},
            adam_v={n: t.copy() for n, t in self.adam_v.items()},
            adam_t=dict(self.adam_t),
        )


# ---------------------------------------------------------------------------
# Layer primitives
# ---------------------------------------------------------------------------

def linear_forward(x, W, b):
    return x @ W + b


def linear_backward(x, W, dout):
    """Returns (dx, dW, db) for y = x @ W + b."""
    return dout @ W.T, x.T @ dout, dout.sum(axis=0)


def relu(x):
    return np.maximum(x, 0.0)


def relu_backward(x, dout):
    return dout * (x > 0.0)


def sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_backward(s, dout):
    """Backward through sigmoid given its output ``s``."""
    return dout * s * (1.0 - s)


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy over the batch and d(loss)/d(logits).

    Uses max-subtracted log-sum-exp for stability. Labels are class indices.
    """
    n, c = logits.shape
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= c:
        raise InputError(f"label out of range [0, {c})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    loss = -logp[np.arange(n), labels].mean()
    dlogits = np.exp(logp)
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


def sigmoid_bce(logits, targets):
    """Mean binary cross-entropy on raw logits and its gradient.

    Stable form: max(z, 0) - z*y + log(1 + exp(-|z|)).
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    loss = (np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))).mean()
    dlogits = (sigmoid(z) - y) / z.size
    return loss, dlogits


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def sgd_step(params: ParameterSet, grads: dict, alpha: float) -> ParameterSet:
    """In-place SGD: p <- p - alpha * g for every parameter in ``grads``.

    Parameters without a gradient entry are untouched.
    """
    if alpha < 0:
        raise InputError("alpha must be non-negative")
    for name, g in grads.items():
        p = params.tensors[name]
        if p.shape != g.shape:
            raise InputError(f"gradient shape mismatch for {name}")
        p -= alpha * g
    return params


def adam_step(params: ParameterSet, grads: dict, beta: float) -> ParameterSet:
    """In-place Adam update with bias correction.

    Moments and step counts advance only for parameters present in
    ``grads``; state persists on the ParameterSet across calls.
    """
    if beta < 0:
        raise InputError("beta must be non-negative")
    for name, g in grads.items():
        p = params.tensors[name]
        if p.shape != g.shape:
            raise InputError(f"gradient shape mismatch for {name}")
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient for {name}")
        m = params.adam_m.setdefault(name, np.zeros_like(p))
        v = params.adam_v.setdefault(name, np.zeros_like(p))
        t = params.adam_t.get(name, 0) + 1
        params.adam_t[name] = t
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        p -= beta * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------

def grad_check(params: ParameterSet, loss_fn, grads: dict, eps: float = 1e-4) -> float:
    """Max relative error between ``grads`` and central finite differences.

    ``loss_fn(params)`` must return a scalar loss; ``grads`` are the analytic
    gradients to verify. Every entry of every checked tensor is perturbed.
    """
    if eps <= 0:
        raise InputError("eps must be positive")
    worst = 0.0
    for name, g in grads.items():
        p = params.tensors[name]
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            lo_hi = loss_fn(params)
            p[idx] = orig - eps
            lo_lo = loss_fn(params)
            p[idx] = orig
            fd = (lo_hi - lo_lo) / (2.0 * eps)
            a = g[idx]
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-12)
            worst = max(worst, rel)
            it.iternext()
    return worst
