"""Versioned named-tensor checkpoints (bit-exact round trip): the tensors and
the ``ModelConfig``, from which loading derives the partitions. Version 1
files, which also stored partitions, still load; those are ignored."""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .model import Classifier, ModelConfig
from .numerics import InputError, LossMode, ParameterSet

FORMAT_VERSION = 2


def save_checkpoint(path, params: ParameterSet, config: ModelConfig) -> None:
    meta = {"version": FORMAT_VERSION, "config": asdict(config)}
    arrays = {f"tensor/{n}": t for n, t in params.tensors.items()}
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    np.savez(path, **arrays)


def load_checkpoint(path):
    """Returns (ParameterSet, ModelConfig). Optimizer state is not persisted.
    Tensors whose names or shapes do not match the config's parameters raise
    ``InputError``."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
        if meta["version"] not in (1, FORMAT_VERSION):
            raise InputError(f"unsupported checkpoint version {meta['version']}")
        tensors = {k[len("tensor/"):]: data[k] for k in data.files if k.startswith("tensor/")}
    c = meta["config"]
    config = ModelConfig(**{**c, "encoder_dims": tuple(c["encoder_dims"]),
                            "loss_mode": LossMode(c["loss_mode"])})
    shapes = Classifier(config).param_shapes()
    if {n: np.shape(t) for n, t in tensors.items()} != {n: sh for n, (sh, _) in shapes.items()}:
        raise InputError(f"checkpoint tensors do not match the parameters of {config}")
    return ParameterSet(tensors, {n: part for n, (_, part) in shapes.items()}), config
