"""Config parsing and the command-line entry points."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from metareplay.cli import main, run_grad_check_suite, schedule_info
from metareplay.config import build_model, build_suite, load_config, parse_config
from metareplay.numerics import InputError


def _minimal(method="SEQ", **over):
    cfg = {
        "method": method,
        "suite": {"num_tasks": 3, "examples_per_class": 40, "test_per_class": 10,
                  "input_dim": 5},
        "schedule": {"batch_size": 8, "support_size": 3, "replay_interval": 80,
                     "replay_rate": 0.1},
        "seeds": [0],
    }
    cfg.update(over)
    return cfg


def test_parse_minimal_config_fills_defaults():
    rc = parse_config(_minimal())
    assert rc.method == "SEQ"
    assert rc.model.encoder_dims == (32,)
    assert rc.learner.schedule.batch_size == 8
    assert rc.orders == [[0, 1, 2]]
    assert rc.suite_spec["kind"] == "BALANCED"


def test_unknown_keys_rejected_at_any_depth():
    with pytest.raises(InputError):
        parse_config(_minimal(bogus=1))
    bad = _minimal()
    bad["schedule"]["batchsize"] = 8
    with pytest.raises(InputError):
        parse_config(bad)


def test_method_is_required_and_validated():
    with pytest.raises(InputError):
        parse_config({"suite": {}})
    with pytest.raises(InputError):
        parse_config(_minimal(method="SGD"))


def test_exactly_one_data_source():
    both = _minimal()
    both["dataset"] = {"train_files": [], "test_files": []}
    with pytest.raises(InputError):
        parse_config(both)
    with pytest.raises(InputError):
        parse_config({"method": "SEQ"})


def test_orders_must_be_permutations():
    with pytest.raises(InputError):
        parse_config(_minimal(orders=[[0, 1, 1]]))
    rc = parse_config(_minimal(orders=[[2, 0, 1], [0, 1, 2]]))
    assert rc.orders == [[2, 0, 1], [0, 1, 2]]


def test_architecture_follows_method():
    assert parse_config(_minimal(method="ANML_ER")).model.architecture == "ANML"
    assert parse_config(_minimal(method="OML_ER")).model.architecture == "OML"
    assert parse_config(_minimal(method="REPLAY")).model.architecture == "OML"


def test_epochs_only_for_mtl():
    bad = _minimal()
    bad["learning"] = {"epochs": 3}
    with pytest.raises(InputError):
        parse_config(bad)
    good = _minimal(method="MTL")
    good["learning"] = {"epochs": 3}
    assert parse_config(good).learner.epochs == 3


def test_build_suite_and_model_from_dataset(tmp_path):
    for name, label in (("a", 0), ("b", 1)):
        (tmp_path / f"train_{name}.tsv").write_text(
            "\n".join(f"{label}\tword{name}{i} common" for i in range(30)) + "\n")
        (tmp_path / f"test_{name}.tsv").write_text(f"{label}\tworda1\n")
    raw = {
        "method": "SEQ",
        "dataset": {
            "train_files": [str(tmp_path / "train_a.tsv"), str(tmp_path / "train_b.tsv")],
            "test_files": [str(tmp_path / "test_a.tsv"), str(tmp_path / "test_b.tsv")],
            "featurizer": {"dim": 64},
        },
        "schedule": {"batch_size": 4, "support_size": 2, "replay_interval": 20,
                     "replay_rate": 0.2},
    }
    rc = parse_config(raw)
    suite = build_suite(rc)
    assert len(suite.train) == 2 and suite.num_classes == 2
    model = build_model(rc, suite)
    assert model.config.num_classes == 2
    assert model.config.input_dim == 64


def test_schedule_info_output(capsys):
    sched = schedule_info(9600, 16, 5, 0.01)
    out = capsys.readouterr().out
    assert sched.frequency == 101
    assert "101" in out and "96" in out and "600" in out
    schedule_info(64, 16, 5, 0.9)
    assert "warning" in capsys.readouterr().out


def test_grad_check_suite_passes_tight_tolerance():
    worst = run_grad_check_suite(trials=10, seed=1)
    assert worst < 1e-5


def test_cli_run_writes_metrics_and_summary(tmp_path):
    config = _minimal()
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out),
                 "--debug-traces"]) == 0
    metrics = json.loads((out / "order0_seed0" / "metrics.jsonl").read_text())
    assert metrics["method"] == "SEQ"
    assert len(metrics["per_task_accuracy"]) == 3
    summary = json.loads((out / "summary.jsonl").read_text())
    assert 0.0 <= summary["macro_accuracy_mean"] <= 1.0
    assert (out / "order0_seed0" / "episodes.tsv").exists()
    assert (out / "order0_seed0" / "memory.tsv").exists()
    assert (out / "timing.jsonl").exists()
    # Timing lives in its own file, never inside the metrics records.
    assert "seconds" not in metrics


def test_cli_checkpoint_option(tmp_path):
    config = _minimal(method="OML_ER", save_checkpoints=True)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    from metareplay.checkpoint import load_checkpoint
    params, model_config = load_checkpoint(out / "order0_seed0" / "checkpoint.npz")
    assert model_config.architecture == "OML"
    assert "head.W" in params.tensors


def test_cli_rejects_bad_config_with_exit_code_2(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"method": "SEQ"}))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    cfg_path.write_text("{not json")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


def test_cli_rejects_loss_mode_key_with_exit_code_2(tmp_path, capsys):
    # Both data sources build class-label tasks, so candidate ranking is
    # library-only and the config has no loss-mode key.
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_minimal(model={"loss_mode": "CANDIDATE_BCE"})))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "model.loss_mode" in capsys.readouterr().err


@pytest.mark.parametrize("over", [
    {"schedule": {"batch_size": "16", "support_size": 3, "replay_interval": 80,
                  "replay_rate": 0.1}},
    {"combined_test": "yes"},
])
def test_cli_rejects_mistyped_values_with_exit_code_2(tmp_path, capsys, over):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_minimal(**over)))
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "must be of type" in capsys.readouterr().err
    assert not out.exists()


def test_value_types_follow_the_defaults():
    def parsed(**over):
        return parse_config(_minimal(**over))

    assert parsed(learning={"outer_lr": 1}).learner.outer_lr == 1  # int for a float
    assert parsed(model={"architecture": None}).model.architecture == "OML"
    assert parsed(orders=None).orders == [[0, 1, 2]]
    for bad in ({"learning": {"epochs": True}},        # a bool is not an int
                {"learning": {"epochs": 1.0}},         # nor is a float
                {"model": {"encoder_dims": [8, "4"]}},
                {"model": {"architecture": 3}},
                {"seeds": [0, None]},
                {"orders": [0, 1, 2]},
                {"record_alignment": 1}):
        with pytest.raises(InputError, match="must be of type"):
            parsed(**bad)
    with pytest.raises(InputError, match="must be of type"):
        parse_config({"method": "SEQ", "dataset": {"train_files": ["a.tsv", 2],
                                                   "test_files": ["b.tsv", "c.tsv"]}})
    with pytest.raises(InputError):
        parse_config([_minimal()])


@pytest.mark.parametrize("over", [
    {"method": "OML_ER", "suite": {"num_tasks": 2, "examples_per_class": 20,
                                   "test_per_class": 0}},
    {"method": "ANML_ER", "memory": {"p_write": 0}},
    {"method": "SEQ", "dataset": {"train_files": [], "test_files": []}, "suite": None},
    {"method": "MTL", "memory": {"p_write": 5.0}},
    {"method": "SEQ", "memory": {"p_write": 5.0}},
])
def test_cli_rejects_unusable_runs_before_training(tmp_path, over):
    config = _minimal(**over)
    if config["suite"] is None:
        del config["suite"]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not out.exists()


def test_p_write_zero_runs_without_meta_test_finetuning():
    rc = parse_config(_minimal(method="OML_ER", memory={"p_write": 0},
                               ablations={"no_meta_test_finetune": True}))
    assert rc.learner.p_write == 0


def test_cli_schedule_info_subcommand(capsys):
    assert main(["schedule-info", "--replay-interval", "1600", "--batch-size", "4",
                 "--support-size", "5", "--replay-rate", "0.01"]) == 0
    assert "67" in capsys.readouterr().out


# -- property: every config either runs or is rejected, never a traceback ----

def _tiny(method):
    return {
        "method": method,
        "suite": {"num_tasks": 2, "examples_per_class": 6, "test_per_class": 2,
                  "input_dim": 3},
        "model": {"encoder_dims": [4], "nm_hidden_dim": 3},
        "schedule": {"batch_size": 4, "support_size": 2, "replay_interval": 8,
                     "replay_rate": 0.5},
        "seeds": [0],
    }


# (section, key) paths a mutation may target; (section,) is a whole entry.
_PATHS = [(k,) for k in ("method", "suite", "dataset", "model", "schedule", "learning",
                         "memory", "ablations", "orders", "seeds", "combined_test",
                         "record_alignment", "save_checkpoints")] + [
    ("suite", k) for k in ("kind", "num_tasks", "classes_per_task", "examples_per_class",
                           "test_per_class", "input_dim", "seed", "separation")] + [
    ("model", k) for k in ("encoder_dims", "architecture", "nm_hidden_dim")] + [
    ("schedule", k) for k in ("batch_size", "support_size", "replay_interval",
                              "replay_rate")] + [
    ("learning", k) for k in ("inner_lr", "outer_lr", "epochs")] + [
    ("memory", "p_write"), ("ablations", "no_replay"), ("ablations", "no_meta_test_finetune"),
    ("dataset", "train_files"), ("dataset", "test_files")]

# Integers stay small so that no mutation can ask for a large run.
_SCALARS = (st.none() | st.booleans() | st.integers(-3, 12)
            | st.sampled_from([0.0, 0.25, 1.0, 1.5, -0.5, 1e308, float("nan"), float("inf")])
            | st.sampled_from(["", "x", "OML_ER", "MTL", "ANML", "IMBALANCED"]))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "epochs", "extra"]), inner, max_size=2),
    max_leaves=4)
_MUTATIONS = st.lists(
    st.tuples(st.sampled_from(["delete", "set", "extra"]), st.sampled_from(_PATHS), _VALUES),
    min_size=1, max_size=3)


def _mutate(cfg, mutations):
    for op, path, value in mutations:
        *parents, key = path
        node = cfg
        for name in parents:
            if not isinstance(node.get(name), dict):
                node[name] = {}
            node = node[name]
        if op == "delete":
            node.pop(key, None)
        elif op == "set":
            node[key] = value
        else:
            node[f"{key}_extra"] = value
    return cfg


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # diverging runs must exit 3
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@example("SEQ", [("set", ("seeds",), [-1])], False)
@example("SEQ", [("set", ("seeds",), [])], False)
@example("MTL", [("set", ("suite", "seed"), -1)], False)
@example("ANML_ER", [("set", ("model", "nm_hidden_dim"), 0)], False)
@example("OML_ER", [("set", ("model", "encoder_dims"), [0])], False)
@example("OML_ER", [("set", ("learning", "outer_lr"), 1e308)], False)
@given(st.sampled_from(["OML_ER", "ANML_ER", "MAML_ER", "SEQ", "REPLAY", "AGEM", "MTL"]),
       _MUTATIONS, st.booleans())
def test_cli_exits_0_2_or_3_on_mutated_configs(method, mutations, wrap):
    cfg = _mutate(_tiny(method), mutations)
    if wrap:  # a config that is not a JSON object
        cfg = [cfg]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3)
