"""Shared fixtures and test doubles."""

import numpy as np
import pytest

from metareplay import ReplaySchedule, make_synthetic_suite
from metareplay.numerics import ParameterSet, Partition


class QuadraticModel:
    """Minimal stand-in for Classifier with analytically known curvature.

    A "batch" is a pair (A, c) defining the loss 0.5 theta'A theta + c'theta,
    whose gradient is A theta + c and whose Hessian is the constant matrix A.
    This makes first-order meta-gradient claims checkable in closed form.
    """

    def __init__(self, dim: int):
        self.dim = dim

    def init_params(self, rng) -> ParameterSet:
        return ParameterSet(
            {"theta": rng.standard_normal(self.dim)},
            {"theta": Partition.HEAD},
        )

    def inner_partitions(self):
        return {Partition.HEAD}

    def outer_partitions(self):
        return {Partition.HEAD}

    def loss_and_grad(self, params, batch, partition_filter):
        A, c = batch
        theta = params.tensors["theta"]
        loss = float(0.5 * theta @ A @ theta + c @ theta)
        return loss, A @ theta + c


def random_spd(rng, dim: int, scale: float = 1.0) -> np.ndarray:
    """Random symmetric positive definite matrix with bounded conditioning."""
    m = rng.standard_normal((dim, dim))
    return scale * (m @ m.T) / dim + 0.1 * np.eye(dim)


@pytest.fixture(scope="session")
def small_suite():
    """3 well-separated Gaussian tasks, small enough for sub-second runs."""
    return make_synthetic_suite(
        "BALANCED", num_tasks=3, classes_per_task=2, examples_per_class=60,
        input_dim=6, seed=13, test_per_class=30, separation=6.0)


@pytest.fixture(scope="session")
def small_schedule():
    return ReplaySchedule(batch_size=8, support_size=3, replay_interval=160,
                          replay_rate=0.05)
