"""Run configuration: strict parsing, validation, and experiment assembly.

Configs are JSON with nested sections. Unknown keys are rejected so a typo'd
hyperparameter can never silently fall back to a default.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .episodes import ReplaySchedule
from .learners import LearnerConfig, architecture_for
from .model import Classifier, ModelConfig
from .numerics import InputError
from .stream import FeaturizerConfig, Suite, load_text_tasks, make_synthetic_suite

_REQUIRED = object()

# section -> key -> default (_REQUIRED means the key must be present)
_SCHEMA = {
    "method": _REQUIRED,
    "suite": {
        "kind": "BALANCED",
        "num_tasks": 5,
        "classes_per_task": 2,
        "examples_per_class": 1000,
        "test_per_class": 250,
        "input_dim": 10,
        "seed": 7,
        "separation": 4.0,
    },
    "dataset": {
        "train_files": _REQUIRED,
        "test_files": _REQUIRED,
        "featurizer": {"dim": 2048, "truncate": None, "l2_normalize": True},
    },
    "model": {
        "encoder_dims": [32],
        "architecture": None,  # derived from the method when omitted
        "nm_hidden_dim": 32,
    },
    "schedule": {
        "batch_size": 16,
        "support_size": 5,
        "replay_interval": 1920,
        "replay_rate": 0.01,
    },
    "learning": {"inner_lr": 0.008, "outer_lr": 0.025, "epochs": 1},
    "memory": {"p_write": 1.0},
    "ablations": {"no_replay": False, "no_meta_test_finetune": False},
    "orders": None,  # list of task-order permutations; default: one identity order
    "seeds": [0, 1, 2],
    "combined_test": False,
    "record_alignment": False,
    "save_checkpoints": False,
}

# Value types of the keys whose default shows none: required keys and None
# defaults (which also accept null). A one-element list means "a list of".
_TYPES = {
    "method": str,
    "dataset.train_files": [str],
    "dataset.test_files": [str],
    "dataset.featurizer.truncate": int,
    "model.architecture": str,
    "orders": [[int]],
}


def _type_of(default):
    """The value type a default stands for; a list's from its first entry."""
    return [_type_of(default[0])] if isinstance(default, list) else type(default)


def _matches(value, expected) -> bool:
    """JSON-value type check: ints count as floats, booleans never as numbers."""
    if isinstance(expected, list):
        return isinstance(value, list) and all(_matches(v, expected[0]) for v in value)
    if expected in (int, float) and isinstance(value, bool):
        return False
    if expected is float:
        return isinstance(value, (int, float))
    return isinstance(value, expected)


def _describe(expected) -> str:
    if isinstance(expected, list):
        return f"list[{_describe(expected[0])}]"
    return expected.__name__


def _check_type(key: str, value, default) -> None:
    if value is None and default is None:
        return
    expected = _TYPES.get(key) or _type_of(default)
    if not _matches(value, expected):
        raise InputError(f"config key {key} must be of type {_describe(expected)}, "
                         f"got {value!r}")


def _apply_schema(raw: dict, schema: dict, path: str = "") -> dict:
    out = {}
    for key, value in raw.items():
        if key not in schema:
            raise InputError(f"unknown config key: {path}{key}")
        spec = schema[key]
        if isinstance(spec, dict) and isinstance(value, dict):
            out[key] = _apply_schema(value, spec, f"{path}{key}.")
        else:
            if not isinstance(spec, dict):
                _check_type(f"{path}{key}", value, spec)
            out[key] = value
    for key, spec in schema.items():
        if key in out:
            if isinstance(spec, dict) and not isinstance(out[key], dict):
                raise InputError(f"config key {path}{key} must be a mapping")
            continue
        if spec is _REQUIRED:
            raise InputError(f"missing required config key: {path}{key}")
        if isinstance(spec, dict):
            # Fill an absent section with its defaults, unless it contains
            # required keys (suite/dataset presence carries meaning).
            if not _has_required(spec):
                out[key] = _apply_schema({}, spec, f"{path}{key}.")
            continue
        out[key] = spec
    return out


def _has_required(schema: dict) -> bool:
    return any(v is _REQUIRED or (isinstance(v, dict) and _has_required(v))
               for v in schema.values())


@dataclass
class RunConfig:
    """Validated experiment configuration."""

    model: ModelConfig
    learner: LearnerConfig
    orders: list
    seeds: list
    suite_spec: dict | None
    dataset_spec: dict | None
    combined_test: bool
    save_checkpoints: bool


def _reject_repeats(key: str, values: list) -> None:
    """Each seed and each order names its own cells; a repeat would train
    them again and count them twice in the summary."""
    seen = set()
    for value in values:
        item = tuple(value) if isinstance(value, list) else value
        if item in seen:
            raise InputError(f"{key} lists {value} more than once")
        seen.add(item)


def parse_config(raw: dict) -> RunConfig:
    """Validate a raw config; every rejected input fails here, before training."""
    if not isinstance(raw, dict):
        raise InputError("config must be a JSON object")
    cfg = _apply_schema(raw, _SCHEMA)

    has_suite = "suite" in raw
    has_dataset = "dataset" in raw
    if has_suite == has_dataset:
        raise InputError("config needs exactly one of 'suite' or 'dataset'")
    suite_spec = cfg["suite"] if has_suite else None
    dataset_spec = cfg.get("dataset")
    if has_dataset and len(dataset_spec["train_files"]) != len(dataset_spec["test_files"]):
        raise InputError("train_files and test_files must pair up per task")
    if has_dataset and not dataset_spec["train_files"]:
        raise InputError("dataset needs at least one task file")
    if not cfg["seeds"] or min(cfg["seeds"]) < 0:
        raise InputError("seeds must be a non-empty list of non-negative integers")
    _reject_repeats("seeds", cfg["seeds"])
    if has_suite and suite_spec["test_per_class"] < 1:
        raise InputError("suite.test_per_class must be >= 1: accuracy needs a test set")
    if has_suite and suite_spec["examples_per_class"] < 1:
        raise InputError("suite.examples_per_class must be >= 1")

    learner = LearnerConfig(
        method=cfg["method"],
        schedule=ReplaySchedule(**cfg["schedule"]),
        record_alignment=cfg["record_alignment"],
        **cfg["learning"], **cfg["memory"], **cfg["ablations"],
    )

    if suite_spec is not None:
        input_dim = suite_spec["input_dim"]
        num_classes = suite_spec["num_tasks"] * suite_spec["classes_per_task"]
        num_tasks = suite_spec["num_tasks"]
    else:
        input_dim = dataset_spec["featurizer"]["dim"]
        num_classes = 2  # replaced by the loaded label count in build_model
        num_tasks = len(dataset_spec["train_files"])

    arch = cfg["model"]["architecture"] or architecture_for(learner.method)
    model = ModelConfig(
        input_dim=input_dim,
        encoder_dims=tuple(cfg["model"]["encoder_dims"]),
        num_classes=num_classes,
        architecture=arch,
        nm_hidden_dim=cfg["model"]["nm_hidden_dim"],
    )

    orders = cfg["orders"] or [list(range(num_tasks))]
    for order in orders:
        if sorted(order) != list(range(num_tasks)):
            raise InputError(f"order {order} is not a permutation of {num_tasks} tasks")
    _reject_repeats("orders", orders)

    return RunConfig(
        model=model,
        learner=learner,
        orders=[list(o) for o in orders],
        seeds=list(cfg["seeds"]),
        suite_spec=suite_spec,
        dataset_spec=dataset_spec,
        combined_test=cfg["combined_test"],
        save_checkpoints=cfg["save_checkpoints"],
    )


def _finite_float(text: str) -> float:
    """A JSON number or constant (NaN, Infinity, -Infinity) that is finite."""
    value = float(text)
    if not math.isfinite(value):  # also an overflowing literal such as 1e999
        raise InputError(f"config numbers must be finite, got {text}")
    return value


def read_config(path) -> tuple[bytes, RunConfig]:
    """The config file's bytes, read once (it may be a pipe), and their RunConfig."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        raw = json.loads(data.decode("utf-8"), parse_constant=_finite_float,
                         parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: cannot read config: {exc}") from exc
    except InputError:  # a non-finite number, named by _finite_float
        raise
    except (ValueError, RecursionError) as exc:  # a too-long integer, too deep nesting
        raise InputError(f"{path}: cannot parse config: {exc}") from exc
    return data, parse_config(raw)


def load_config(path) -> RunConfig:
    return read_config(path)[1]


def build_suite(run_config: RunConfig) -> Suite:
    """Materialize the task suite (synthetic or from dataset files)."""
    if run_config.suite_spec is not None:
        # A suite whose own numbers overflow or whose arrays cannot be
        # allocated is bad input, not a failed run.
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return make_synthetic_suite(**run_config.suite_spec)
        except (FloatingPointError, MemoryError, ValueError) as exc:
            raise InputError(f"suite: {exc} while building the synthetic suite") from exc
    d = run_config.dataset_spec
    feat = FeaturizerConfig(**d["featurizer"])
    suite = Suite(load_text_tasks(d["train_files"], feat),
                  load_text_tasks(d["test_files"], feat))
    for path, task in zip(d["test_files"], suite.test):
        top = int(task.labels.max())
        if top >= suite.num_classes:
            raise InputError(f"{path}: test label {top} is outside the model's "
                             f"{suite.num_classes} classes (0 to the largest training label)")
    return suite


def build_model(run_config: RunConfig, suite: Suite) -> Classifier:
    config = run_config.model
    if run_config.dataset_spec is not None:
        config = replace(config, num_classes=suite.num_classes)
    model = Classifier(config)
    # Reserve (never touch) the flat parameter vector before anything is
    # written: a model too large to allocate is bad input, not a failed run.
    size = sum(math.prod(shape) for shape, _ in model.param_shapes().values())
    try:
        np.empty(size)
    except (MemoryError, ValueError) as exc:
        raise InputError(f"a model of {size} parameters ({config.input_dim} features, "
                         f"encoder widths {list(config.encoder_dims)}, "
                         f"{config.num_classes} classes) cannot be allocated") from exc
    return model
