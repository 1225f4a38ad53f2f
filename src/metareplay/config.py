"""Run configuration: strict parsing, validation, and experiment assembly.

Configs are JSON with nested sections. Unknown keys are rejected so a typo'd
hyperparameter can never silently fall back to a default.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .episodes import ReplaySchedule
from .learners import LearnerConfig, architecture_for
from .model import Classifier, ModelConfig
from .numerics import InputError
from .stream import FeaturizerConfig, Suite, load_text_tasks, make_synthetic_suite

_REQUIRED = object()

# section -> key -> (value type, default). _REQUIRED means the key must be
# present, and a None default also accepts null. A one-element list type
# means "a list of".
_SCHEMA = {
    "method": (str, _REQUIRED),
    "model": {
        "encoder_dims": ([int], [32]),
        "architecture": (str, None),  # derived from the method when omitted
        "nm_hidden_dim": (int, 32),
    },
    "schedule": {
        "batch_size": (int, 16),
        "support_size": (int, 5),
        "replay_interval": (int, 1920),
        "replay_rate": (float, 0.01),
    },
    "learning": {"inner_lr": (float, 0.008), "outer_lr": (float, 0.025), "epochs": (int, 1)},
    "memory": {"p_write": (float, 1.0)},
    "ablations": {"no_replay": (bool, False), "no_meta_test_finetune": (bool, False)},
    "orders": ([[int]], None),  # list of task-order permutations; default: one identity order
    "seeds": ([int], [0, 1, 2]),
    "combined_test": (bool, False),
    "record_alignment": (bool, False),
    "save_checkpoints": (bool, False),
}

# The data sections; a config names exactly one, and only that one is built.
_DATA = {
    "suite": {
        "kind": (str, "BALANCED"),
        "num_tasks": (int, 5),
        "classes_per_task": (int, 2),
        "examples_per_class": (int, 1000),
        "test_per_class": (int, 250),
        "input_dim": (int, 10),
        "seed": (int, 7),
        "separation": (float, 4.0),
    },
    "dataset": {
        "train_files": ([str], _REQUIRED),
        "test_files": ([str], _REQUIRED),
        "featurizer": {"dim": (int, 2048), "truncate": (int, None), "l2_normalize": (bool, True)},
    },
}


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


def _apply_schema(raw: dict, schema: dict, path: str = "") -> dict:
    """``raw`` checked against ``schema``, with its defaults filled in. The
    first unknown key in sorted order is reported first, then each schema
    key in schema order, so key order in a file never decides the fault."""
    unknown = sorted(raw.keys() - schema.keys())
    if unknown:
        raise InputError(f"unknown config key: {path}{unknown[0]}")
    out = {}
    for key, spec in schema.items():
        # An absent key takes its default; an absent section, its defaults.
        name, value = path + key, raw.get(key, {} if isinstance(spec, dict) else spec[1])
        if isinstance(spec, dict):
            if not isinstance(value, dict):
                raise InputError(f"config key {name} must be a mapping")
            value = _apply_schema(value, spec, name + ".")
        elif value is _REQUIRED:
            raise InputError(f"missing required config key: {name}")
        elif key in raw and not (value is None and spec[1] is None or _matches(value, spec[0])):
            raise InputError(f"config key {name} must be of type "
                             f"{_describe(spec[0])}, got {value!r}")
        out[key] = value
    return out


@dataclass
class RunConfig:
    """Validated experiment configuration. ``model`` holds the model
    section's keys, its architecture resolved from the method; its sizes
    come from the suite (``build_model``)."""

    model: dict
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
    """Check a raw config's keys, types and cross-key rules, and build only
    the data section it names. What needs the data is checked by
    ``build_suite``, and the model section by ``build_model`` once the data
    has sized it, both still before anything is written."""
    if not isinstance(raw, dict):
        raise InputError("config must be a JSON object")
    sources = [key for key in _DATA if key in raw]
    if not sources:  # a misspelt data section is named as an unknown key
        _apply_schema(raw, _SCHEMA)
    if len(sources) != 1:
        raise InputError("config needs exactly one of 'suite' or 'dataset'")
    source = sources[0]
    cfg = _apply_schema(raw, {**_SCHEMA, source: _DATA[source]})
    spec = cfg[source]

    if source == "suite":
        if spec["test_per_class"] < 1:
            raise InputError("suite.test_per_class must be >= 1: accuracy needs a test set")
        if spec["examples_per_class"] < 1:
            raise InputError("suite.examples_per_class must be >= 1")
        num_tasks = spec["num_tasks"]
    else:
        if len(spec["train_files"]) != len(spec["test_files"]):
            raise InputError("train_files and test_files must pair up per task")
        if not spec["train_files"]:
            raise InputError("dataset needs at least one task file")
        num_tasks = len(spec["train_files"])
    if not cfg["seeds"] or min(cfg["seeds"]) < 0:
        raise InputError("seeds must be a non-empty list of non-negative integers")
    _reject_repeats("seeds", cfg["seeds"])
    if cfg["orders"] == []:  # null, not [], asks for the identity order
        raise InputError("orders must be a non-empty list of task orders, or null")

    learner = LearnerConfig(
        method=cfg["method"],
        schedule=ReplaySchedule(**cfg["schedule"]),
        record_alignment=cfg["record_alignment"],
        **cfg["learning"], **cfg["memory"], **cfg["ablations"],
    )

    model = dict(cfg["model"], encoder_dims=tuple(cfg["model"]["encoder_dims"]),
                 architecture=cfg["model"]["architecture"] or architecture_for(learner.method))

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
        suite_spec=cfg.get("suite"),
        dataset_spec=cfg.get("dataset"),
        combined_test=cfg["combined_test"],
        save_checkpoints=cfg["save_checkpoints"],
    )


def _finite_float(text: str) -> float:
    """A JSON number or constant (NaN, Infinity, -Infinity) that is finite."""
    value = float(text)
    if not math.isfinite(value):  # also an overflowing literal such as 1e999
        raise InputError(f"config numbers must be finite, got {text}")
    return value


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a repeated key is an error, not its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise InputError(f"config key {key} is repeated in one JSON object")
        obj[key] = value
    return obj


def read_config(path) -> tuple[bytes, RunConfig]:
    """The config file's bytes, read once (it may be a pipe), and their RunConfig."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        raw = json.loads(data.decode("utf-8-sig"), object_pairs_hook=_unique_keys,
                         parse_constant=_finite_float, parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: cannot read config: {exc}") from exc
    except InputError:  # a non-finite number or a repeated key, named where found
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
        except InputError as exc:
            raise InputError(f"suite: {exc}") from exc
        except (FloatingPointError, MemoryError, ValueError) as exc:
            raise InputError(f"suite: {exc} while building the synthetic suite") from exc
    d = run_config.dataset_spec
    suite = Suite(*load_text_tasks([d["train_files"], d["test_files"]],
                                   FeaturizerConfig(**d["featurizer"])))
    for path, task in zip(d["test_files"], suite.test):
        top = int(task.labels.max())
        if top >= suite.num_classes:
            raise InputError(f"{path}: test label {top} is outside the model's "
                             f"{suite.num_classes} classes (0 to the largest training label)")
    return suite


def build_model(run_config: RunConfig, suite: Suite) -> Classifier:
    """The configured model, sized from ``suite``: its input width is the
    train split's feature width, and its class count ``suite.num_classes``."""
    config = ModelConfig(input_dim=suite.train[0].features.shape[-1],
                         num_classes=suite.num_classes, **run_config.model)
    model = Classifier(config)
    # Reserve (never touch) room for every parameter before anything is
    # written: a model too large to allocate is bad input, not a failed run.
    size = sum(math.prod(shape) for shape, _ in model.param_shapes().values())
    try:
        np.empty(size)
    except (MemoryError, ValueError) as exc:
        raise InputError(f"a model of {size} parameters ({config.input_dim} features, "
                         f"encoder widths {list(config.encoder_dims)}, "
                         f"{config.num_classes} classes) cannot be allocated") from exc
    return model
