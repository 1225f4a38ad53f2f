"""Versioned named-tensor checkpoints (bit-exact round trip)."""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .model import ModelConfig
from .numerics import InputError, LossMode, ParameterSet, Partition

FORMAT_VERSION = 1


def save_checkpoint(path, params: ParameterSet, config: ModelConfig) -> None:
    meta = {
        "version": FORMAT_VERSION,
        "partitions": {n: p.value for n, p in params.partitions.items()},
        "config": asdict(config),
    }
    arrays = {f"tensor/{n}": t for n, t in params.tensors.items()}
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    np.savez(path, **arrays)


def load_checkpoint(path):
    """Returns (ParameterSet, ModelConfig). Optimizer state is not persisted."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
        if meta["version"] != FORMAT_VERSION:
            raise InputError(f"unsupported checkpoint version {meta['version']}")
        tensors = {k[len("tensor/"):]: data[k] for k in data.files if k.startswith("tensor/")}
    partitions = {n: Partition(p) for n, p in meta["partitions"].items()}
    c = meta["config"]
    config = ModelConfig(**{**c, "encoder_dims": tuple(c["encoder_dims"]),
                            "loss_mode": LossMode(c["loss_mode"])})
    return ParameterSet(tensors, partitions), config
