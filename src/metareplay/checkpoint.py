"""Versioned named-tensor checkpoints (bit-exact round trip): the tensors and
the ``ModelConfig``, from which loading derives the partitions. Version 1
files, which also stored partitions, still load; those are ignored."""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from zipfile import BadZipFile

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
    A file that is not an ``.npz`` with a JSON ``__meta__``, a version this
    code does not read, a stored config that is not a ``ModelConfig``, and
    tensors whose names or shapes do not match the config's parameters
    raise ``InputError`` naming the path."""
    try:
        # numpy leaves a file it opened open when it is a broken zip.
        with open(path, "rb") as fh, np.load(fh) as data:
            meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
            tensors = {k[len("tensor/"):]: data[k] for k in data.files if k.startswith("tensor/")}
    # A plain .npy array is no context manager: a TypeError (AttributeError
    # before Python 3.11). JSON, UTF-8 and numpy's pickled-data faults are ValueErrors.
    except (OSError, EOFError, BadZipFile, KeyError, TypeError, AttributeError,
            ValueError) as exc:
        raise InputError(f"{path}: not a checkpoint with a JSON __meta__: {exc}") from exc
    version = meta.get("version") if isinstance(meta, dict) else None
    if version not in (1, FORMAT_VERSION):
        raise InputError(f"{path}: unsupported checkpoint version {version}")
    config = _stored_config(path, meta.get("config"))
    shapes = Classifier(config).param_shapes()
    if {n: np.shape(t) for n, t in tensors.items()} != {n: sh for n, (sh, _) in shapes.items()}:
        raise InputError(f"{path}: checkpoint tensors do not match the parameters of {config}")
    return ParameterSet(tensors, {n: part for n, (_, part) in shapes.items()}), config


def _stored_config(path, c) -> ModelConfig:
    """The ModelConfig of a checkpoint's stored config, which holds exactly
    ModelConfig's fields, as ``save_checkpoint`` writes them."""
    names = {f.name for f in fields(ModelConfig)}
    keys = set(c) if isinstance(c, dict) else set()
    if keys != names:
        raise InputError(f"{path}: stored config keys do not match ModelConfig's: "
                         f"unknown {sorted(keys - names)}, missing {sorted(names - keys)}")
    dims = c["encoder_dims"]
    if not (isinstance(dims, list) and all(
            type(v) is int for v in [c["input_dim"], c["num_classes"], c["nm_hidden_dim"], *dims])):
        raise InputError(f"{path}: stored input_dim, num_classes and nm_hidden_dim must be "
                         "integers and encoder_dims a list of them")
    try:  # an unknown loss_mode is a ValueError, a ModelConfig fault an InputError
        return ModelConfig(**{**c, "encoder_dims": tuple(dims),
                              "loss_mode": LossMode(c["loss_mode"])})
    except ValueError as exc:
        raise InputError(f"{path}: stored config: {exc}") from exc
