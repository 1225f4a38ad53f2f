"""Dense-layer numerics: forward/backward primitives, losses, optimizers.

Everything runs in float64. Gradients are computed analytically, layer by
layer; ``grad_check`` verifies any loss function against central finite
differences.
"""

from __future__ import annotations

import math
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


class ParameterSet:
    """Named parameter tensors stored as views into one float64 vector.

    ``flat`` is laid out in sorted-name order with ``NM_FROZEN`` parameters
    last, so every partition set a model trains (inner, outer, all) is one
    contiguous slice, its ``span``; a gradient is one vector over a span.
    ``tensors`` maps each name to a reshaped view into ``flat`` and keeps the
    caller's insertion order, in which checkpoints are written.
    """

    def __init__(self, tensors: dict, partitions: dict):
        if set(tensors) != set(partitions):
            raise InputError("every parameter needs exactly one partition label")
        order = sorted(tensors, key=lambda n: (partitions[n] == Partition.NM_FROZEN, n))
        slots, start = {}, 0
        for name in order:
            shape = np.shape(tensors[name])
            stop = start + math.prod(shape)
            slots[name], start = (start, stop, shape), stop
        self.partitions = dict(partitions)
        self._slots = {n: slots[n] for n in tensors}
        self._layouts: dict = {}
        self._all = frozenset(self.partitions.values())
        self._set_flat(np.empty(start))
        for name, t in tensors.items():
            self.tensors[name][...] = t

    def _set_flat(self, flat):
        self.flat = flat
        self.tensors = self.views(flat, self._all)

    def layout(self, parts) -> tuple:
        """(span, {name: (start, stop, shape) relative to the span}) of ``parts``.

        Cached per partition set and shared with clones; a frozenset hits
        the cache without being rebuilt.
        """
        key = frozenset(parts)
        layout = self._layouts.get(key)
        if layout is None:
            bounds = sorted(s[:2] for n, s in self._slots.items()
                            if self.partitions[n] in key)
            if not bounds:
                raise InputError(f"no parameters in partitions {sorted(key)}")
            if any(a[1] != b[0] for a, b in zip(bounds, bounds[1:])):
                raise InputError(f"partitions {sorted(key)} are not one contiguous slice")
            lo, hi = bounds[0][0], bounds[-1][1]
            layout = self._layouts[key] = (slice(lo, hi), {
                n: (a - lo, b - lo, shape) for n, (a, b, shape) in self._slots.items()
                if lo <= a and b <= hi})
        return layout

    def span(self, parts) -> slice:
        """The slice of ``flat`` holding exactly the parameters in ``parts``."""
        return self.layout(parts)[0]

    def views(self, vector: np.ndarray, parts) -> dict:
        """Named, reshaped views into ``vector``, a vector over the span of ``parts``."""
        return {n: vector[a:b].reshape(shape)
                for n, (a, b, shape) in self.layout(parts)[1].items()}

    def clone(self) -> "ParameterSet":
        """A copy of the parameter values; inner-loop working copies are clones."""
        twin = object.__new__(ParameterSet)
        twin.partitions = self.partitions
        twin._slots = self._slots
        twin._layouts = self._layouts
        twin._all = self._all
        twin._set_flat(self.flat.copy())
        return twin


# ---------------------------------------------------------------------------
# Layer primitives
# ---------------------------------------------------------------------------

def relu(x):
    return np.maximum(x, 0.0)


def relu_backward(x, dout):
    return dout * (x > 0.0)


def sigmoid(x):
    """1 / (1 + exp(-x)), computed as exp(x) / (1 + exp(x)) where x < 0 so
    that no exp overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid_backward(s, dout):
    """Backward through sigmoid given its output ``s``."""
    return dout * s * (1.0 - s)


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy over the batch and d(loss)/d(logits).

    Uses max-subtracted log-sum-exp for stability. Labels are class indices.
    """
    n, c = logits.shape
    if np.minimum.reduce(labels) < 0 or np.maximum.reduce(labels) >= c:
        raise InputError(f"label out of range [0, {c})")
    # One buffer holds the shifted logits, then log-probabilities, then the
    # gradient.
    out = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    logz = np.add.reduce(np.exp(out), axis=1, keepdims=True)
    out -= np.log(logz, out=logz)
    true = np.arange(0, n * c, c) + labels  # flat index of each row's label
    flat = out.ravel()
    loss = -np.add.reduce(flat[true]) / n
    np.exp(out, out=out)
    flat[true] -= 1.0
    out /= n
    return loss, out


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


def _span_and_check(params: ParameterSet, grads: np.ndarray, parts) -> slice:
    span = params.span(parts)
    if np.shape(grads) != (span.stop - span.start,):
        raise InputError(f"gradient shape {np.shape(grads)} does not match span {span}")
    return span


def sgd_step(params: ParameterSet, grads: np.ndarray, alpha: float, parts) -> ParameterSet:
    """In-place SGD: p <- p - alpha * g over the span of ``parts``.

    ``grads`` is one vector over that span, consumed: it is scaled by
    ``alpha`` in place. Other parameters are untouched.
    """
    if alpha < 0:
        raise InputError("alpha must be non-negative")
    p = params.flat[_span_and_check(params, grads, parts)]
    grads *= alpha
    p -= grads
    return params


class Adam:
    """Adam's state over the span of ``parts``, with the rate ``lr`` bound:
    both moments, the step count and one work vector. Its trainer owns it."""

    def __init__(self, params: ParameterSet, parts, lr: float):
        if lr < 0:
            raise InputError("beta must be non-negative")
        self.params = params
        self.span = params.span(parts)
        self.lr = lr
        self.t = 0
        n = self.span.stop - self.span.start
        self.moments = np.zeros((2, n))  # first and second moment
        self._tmp = np.empty(n)


def adam_step(adam: Adam, grads: np.ndarray) -> ParameterSet:
    """In-place Adam update with bias correction of ``adam.params``.

    ``grads`` is one vector over the state's span, consumed: once the moments
    have read it, it holds the step. A gradient that does not fit the span
    or is not finite is rejected before anything changes.
    """
    span = adam.span
    if np.shape(grads) != adam._tmp.shape:
        raise InputError(f"gradient shape {np.shape(grads)} does not match span {span}")
    if not np.logical_and.reduce(np.isfinite(grads)):
        raise NumericalError(f"non-finite gradient over parameters {span}")
    m, v = adam.moments
    a = adam._tmp
    adam.t += 1
    t = adam.t
    m *= ADAM_BETA1
    np.multiply(grads, 1.0 - ADAM_BETA1, out=a)
    m += a
    v *= ADAM_BETA2
    np.multiply(grads, 1.0 - ADAM_BETA2, out=a)
    a *= grads
    v += a
    np.divide(v, 1.0 - ADAM_BETA2 ** t, out=a)
    np.sqrt(a, out=a)
    a += ADAM_EPS
    step = np.divide(m, 1.0 - ADAM_BETA1 ** t, out=grads)
    step *= adam.lr
    step /= a
    p = adam.params.flat[span]
    p -= step
    return adam.params


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------

def grad_check(params: ParameterSet, loss_fn, grads: np.ndarray, parts,
               eps: float = 1e-4) -> float:
    """Max relative error between ``grads`` and central finite differences.

    ``loss_fn(params)`` must return a scalar loss; ``grads`` is the analytic
    gradient over the span of ``parts``. Every entry in the span is perturbed.
    """
    if eps <= 0:
        raise InputError("eps must be positive")
    p = params.flat[_span_and_check(params, grads, parts)]
    worst = 0.0
    for i, a in enumerate(grads):
        orig = p[i]
        p[i] = orig + eps
        lo_hi = loss_fn(params)
        p[i] = orig - eps
        lo_lo = loss_fn(params)
        p[i] = orig
        fd = (lo_hi - lo_lo) / (2.0 * eps)
        rel = abs(a - fd) / max(abs(a), abs(fd), 1e-12)
        worst = max(worst, rel)
    return worst
