"""Gradient-alignment measurements and accuracy metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import InputError


@dataclass
class AlignmentSample:
    """Dot product, norms, and cosine of two gradient vectors."""

    step: int
    dot: float
    norm_a: float
    norm_b: float

    @property
    def cosine(self) -> float:
        denom = self.norm_a * self.norm_b
        return self.dot / denom if denom > 0 else 0.0


def grad_dot(g1: np.ndarray, g2: np.ndarray, step: int = 0) -> AlignmentSample:
    """Alignment between two gradient vectors over the same parameter span.

    Positive dot products indicate transfer between the two objectives,
    negative ones interference.
    """
    if g1.shape != g2.shape:
        raise InputError("gradients must cover the same parameter span")
    return AlignmentSample(step, float(g1 @ g2), float(np.linalg.norm(g1)),
                           float(np.linalg.norm(g2)))


def macro_accuracy(per_task: list) -> float:
    """Unweighted mean of per-task accuracies."""
    if not per_task:
        raise InputError("need at least one task accuracy")
    return float(np.mean(per_task))


def gate_stats(gate_records) -> tuple:
    """(mean, fraction > 0.99, fraction < 0.01) over all examples and units."""
    values = np.concatenate([g.values.ravel() for g in gate_records])
    return (
        float(values.mean()),
        float((values > 0.99).mean()),
        float((values < 0.01).mean()),
    )

