"""Config parsing and the command-line entry points."""

import dataclasses
import io
import json
import math
import os
import sys
import tempfile
import threading
import time
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from metareplay.cli import main, run_grad_check_suite, schedule_info
from metareplay.config import build_model, build_suite, load_config, parse_config
from metareplay.learners import LearnerConfig
from metareplay.learners import run as run_learner
from metareplay.model import ModelConfig
from metareplay.numerics import InputError
from metareplay.stream import FeaturizerConfig


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
    assert rc.learner.method == "SEQ"
    assert rc.model["encoder_dims"] == (32,)
    assert rc.learner.schedule.batch_size == 8
    assert rc.orders == [[0, 1, 2]]
    assert rc.suite_spec["kind"] == "BALANCED"


def test_config_without_a_model_section_builds_the_default_model_config():
    """The schema's model defaults are ModelConfig's: the same encoder and NM
    widths; the input width and class count are the suite's."""
    rc = parse_config(_minimal(method="ANML_ER"))
    assert build_model(rc, build_suite(rc)).config == ModelConfig(
        input_dim=5, num_classes=6, architecture="ANML")


def test_every_schema_default_is_its_config_field_default():
    """A default the schema states is also the default of the dataclass
    field it fills, so a config and a direct library call agree (the
    encoder width once differed). A null architecture is the method's."""
    from metareplay.config import _DATA, _SCHEMA

    filled = {
        LearnerConfig: {**_SCHEMA["learning"], **_SCHEMA["memory"], **_SCHEMA["ablations"],
                        "record_alignment": _SCHEMA["record_alignment"]},
        ModelConfig: {k: v for k, v in _SCHEMA["model"].items() if k != "architecture"},
        FeaturizerConfig: _DATA["dataset"]["featurizer"],
    }
    for cls, schema in filled.items():
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        for key, (_, default) in schema.items():
            assert defaults[key] == (tuple(default) if isinstance(default, list) else default), \
                f"{cls.__name__}.{key}"


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


def test_misspelt_data_section_is_named_as_an_unknown_key():
    cfg = _minimal()
    cfg["suit"] = cfg.pop("suite")
    with pytest.raises(InputError, match="^unknown config key: suit$"):
        parse_config(cfg)


def test_orders_must_be_permutations():
    with pytest.raises(InputError):
        parse_config(_minimal(orders=[[0, 1, 1]]))
    rc = parse_config(_minimal(orders=[[2, 0, 1], [0, 1, 2]]))
    assert rc.orders == [[2, 0, 1], [0, 1, 2]]


def test_empty_orders_list_is_rejected():
    with pytest.raises(InputError, match="orders must be a non-empty list"):
        parse_config(_minimal(orders=[]))
    assert parse_config(_minimal(orders=None)).orders == [[0, 1, 2]]


def test_architecture_follows_method():
    assert parse_config(_minimal(method="ANML_ER")).model["architecture"] == "ANML"
    assert parse_config(_minimal(method="OML_ER")).model["architecture"] == "OML"
    assert parse_config(_minimal(method="REPLAY")).model["architecture"] == "OML"


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


def test_build_suite_hashes_each_token_once_per_suite(tmp_path, monkeypatch):
    """The train and test loads of one suite share one token -> bucket
    table, and no table outlives its build_suite call."""
    texts = {"train_a": "0\tWordA Common\n0\tworda shared\n", "train_b": "1\twordb common\n",
             "test_a": "0\tworda SHARED\n", "test_b": "1\tunseen wordb\n"}
    for name, text in texts.items():
        (tmp_path / f"{name}.tsv").write_text(text)
    rc = parse_config({"method": "SEQ", "dataset": {
        "train_files": [str(tmp_path / "train_a.tsv"), str(tmp_path / "train_b.tsv")],
        "test_files": [str(tmp_path / "test_a.tsv"), str(tmp_path / "test_b.tsv")],
        "featurizer": {"dim": 64}}})
    hashed, crc32 = [], zlib.crc32
    monkeypatch.setattr(zlib, "crc32", lambda data: hashed.append(data) or crc32(data))
    distinct = sorted([b"common", b"shared", b"unseen", b"worda", b"wordb"])
    for _ in range(2):
        hashed.clear()
        build_suite(rc)
        assert sorted(hashed) == distinct


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
    # SEQ trains in no episodes: its events are the memory's stored examples.
    events = [json.loads(line)
              for line in (out / "order0_seed0" / "events.jsonl").read_text().splitlines()]
    assert len(events) == metrics["memory_size"] > 0
    assert {e["event"] for e in events} == {"stored"}
    assert (out / "timing.jsonl").exists()
    # Timing lives in its own file, never inside the metrics records.
    assert "seconds" not in metrics


def test_cli_multi_seed_run_holds_one_cell_at_its_training_peak(tmp_path):
    # At d=2048 an ANML cell's parameters, memory and trace take about 1 MB;
    # each cell's are freed before the next one trains.
    config = _minimal("ANML_ER", model={"encoder_dims": [32]},
                      suite={"num_tasks": 2, "examples_per_class": 20,
                             "test_per_class": 5, "input_dim": 2048},
                      schedule={"batch_size": 16, "support_size": 5,
                                "replay_interval": 160, "replay_rate": 0.1})
    cfg_path = tmp_path / "config.json"

    def peak(seeds, out):
        cfg_path.write_text(json.dumps(dict(config, seeds=seeds)))
        tracemalloc.start()
        try:
            assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / out)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak([0], "warm-up")  # imports and caches
    assert peak([0, 1], "two") <= peak([0], "one") + 0.1 * 2**20


def test_cli_debug_traces_write_the_episodes_then_the_stored_examples(tmp_path):
    """``events.jsonl`` holds one record per episode of the trace, then one per
    stored example, in storage order."""
    cfg_path = _cli_config(tmp_path, method="OML_ER")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--debug-traces"]) == 0
    events = [json.loads(line)
              for line in (out / "order0_seed0" / "events.jsonl").read_text().splitlines()]

    rc = load_config(cfg_path)
    suite = build_suite(rc)
    _, _, memory, trace, _ = run_learner(build_model(rc, suite), suite, rc.learner, 0,
                                         rc.orders[0])
    task_ids, labels = memory.stored()
    assert events == (
        [{"event": "episode", "index": i, "query_source": s.source, "support_size": s.support,
          "query_size": s.examples} for i, s in enumerate(trace.steps, 1)]
        + [{"event": "stored", "task_id": t, "label": y} for t, y in zip(task_ids, labels)])
    assert len(trace.steps) > 0 and len(task_ids) == len(memory) > 0
    assert {"MEMORY", "STREAM"} == {e["query_source"] for e in events[:len(trace.steps)]}


@pytest.mark.parametrize("method", ["MTL", "OML_ER"])
def test_cli_every_file_a_run_writes_is_checked_first(tmp_path, capsys, method):
    """With every optional output on, each file the run writes is one the
    pre-flight check guards: a directory at its path exits 2 naming it. An
    entry where the run writes nothing is no obstacle."""
    cfg_path = _cli_config(tmp_path, method=method, record_alignment=True,
                           save_checkpoints=True)
    args = ["run", "--config", str(cfg_path), "--debug-traces", "--out"]
    out = tmp_path / "o"
    (out / "order0_seed0" / "memory.tsv").mkdir(parents=True)  # a name no run writes
    assert main(args + [str(out)]) == 0
    written = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
    assert written == ["config.json", "order0_seed0/alignment.jsonl",
                       "order0_seed0/checkpoint.npz", "order0_seed0/events.jsonl",
                       "order0_seed0/metrics.jsonl", "summary.jsonl", "timing.jsonl"]
    if method == "MTL":  # no episodes and no memory
        assert (out / "order0_seed0" / "events.jsonl").read_text() == ""
    capsys.readouterr()
    for i, name in enumerate(written):
        obstacle = tmp_path / f"o{i}" / name
        obstacle.mkdir(parents=True)
        assert main(args + [str(tmp_path / f"o{i}")]) == 2
        assert f"{obstacle} is in the way" in capsys.readouterr().err


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


@pytest.mark.parametrize("method", ["OML_ER", "AGEM"])
def test_cli_record_alignment_writes_the_samples(tmp_path, method):
    """With record_alignment, each cell's alignment samples (OML_ER: support
    against memory query; AGEM: its reference checks) go to alignment.jsonl;
    metrics.jsonl keeps its bytes."""
    cell = {}
    for flag in (False, True):
        cfg_path = tmp_path / f"config_{flag}.json"
        cfg_path.write_text(json.dumps(_minimal(method=method, record_alignment=flag)))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / str(flag))]) == 0
        cell[flag] = tmp_path / str(flag) / "order0_seed0"
    assert ((cell[True] / "metrics.jsonl").read_bytes()
            == (cell[False] / "metrics.jsonl").read_bytes())
    assert not (cell[False] / "alignment.jsonl").exists()

    rc = parse_config(_minimal(method=method, record_alignment=True))
    suite = build_suite(rc)
    trace = run_learner(build_model(rc, suite), suite, rc.learner, 0, rc.orders[0])[3]
    records = [json.loads(line)
               for line in (cell[True] / "alignment.jsonl").read_text().splitlines()]
    assert records == [{"step": s.step, "dot": s.dot, "norm_a": s.norm_a,
                        "norm_b": s.norm_b, "cosine": s.cosine} for s in trace.alignment]
    # OML_ER replays every third episode; AGEM checks every ceil(80 / 8) steps.
    assert [r["step"] for r in records] == {"OML_ER": [3, 6], "AGEM": [10, 20, 30]}[method]


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
    assert parsed(model={"architecture": None}).model["architecture"] == "OML"
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


def _dataset_config(tmp_path, train_text="0\tworda common\n1\twordb common\n",
                    test_text="0\tworda\n"):
    """A config over one task file (written with ``train_text``, or left
    missing if None) and its test file."""
    train, test = tmp_path / "train.tsv", tmp_path / "test.tsv"
    if train_text is not None:
        train.write_bytes(train_text.encode("utf-8") if isinstance(train_text, str)
                          else train_text)
    test.write_text(test_text)
    return {"method": "SEQ", "seeds": [0],
            "dataset": {"train_files": [str(train)], "test_files": [str(test)],
                        "featurizer": {"dim": 16}}}


def _run_exits_2_and_writes_nothing(tmp_path, config_path):
    out = tmp_path / "o"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_missing_config_file_exits_2(tmp_path):
    _run_exits_2_and_writes_nothing(tmp_path, tmp_path / "absent.json")


def test_cli_missing_dataset_file_exits_2(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_dataset_config(tmp_path, train_text=None)))
    _run_exits_2_and_writes_nothing(tmp_path, cfg_path)


def test_cli_model_fault_is_named_after_the_data_faults(tmp_path, capsys):
    """The suite sizes the model, so a data fault is named first; a model
    fault still exits 2 before anything is written."""
    cfg = {**_dataset_config(tmp_path, train_text=None), "model": {"architecture": "XYZ"}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    _run_exits_2_and_writes_nothing(tmp_path, cfg_path)
    assert "train.tsv" in capsys.readouterr().err
    (tmp_path / "train.tsv").write_text("0\tworda common\n1\twordb common\n")
    _run_exits_2_and_writes_nothing(tmp_path, cfg_path)
    assert capsys.readouterr().err == "error: unknown architecture 'XYZ'\n"


def test_cli_dataset_file_not_utf8_exits_2(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_dataset_config(tmp_path, train_text=b"0\t\xff\xfe\n")))
    _run_exits_2_and_writes_nothing(tmp_path, cfg_path)


def test_cli_negative_train_label_exits_2(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_dataset_config(tmp_path, "0\tworda\n1\twordb\n-1\twordc\n")))
    _run_exits_2_and_writes_nothing(tmp_path, cfg_path)


def test_cli_test_label_outside_training_classes_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_dataset_config(tmp_path, test_text="7\tworda\n")))
    _run_exits_2_and_writes_nothing(tmp_path, cfg_path)
    assert "test label 7" in capsys.readouterr().err


def test_cli_label_outside_int64_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(
        _dataset_config(tmp_path, "0\tworda\n100000000000000000000\twordb\n")))
    _run_exits_2_and_writes_nothing(tmp_path, cfg_path)
    assert "train.tsv:2: label 100000000000000000000" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["1_0", "+1", "٣", " 0", "１"],
                         ids=["underscore", "plus-sign", "arabic-indic-digit",
                              "leading-space", "fullwidth-digit"])
def test_cli_label_that_is_not_ascii_digits_exits_2(tmp_path, capsys, label):
    # int() accepts each of these; a typo must not silently add a class.
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_dataset_config(tmp_path, f"0\tworda\n{label}\twordb\n")))
    _run_exits_2_and_writes_nothing(tmp_path, cfg_path)
    assert "train.tsv:2: expected 'label<TAB>text'" in capsys.readouterr().err


def test_cli_unallocatable_class_count_exits_2(tmp_path, capsys):
    # Label 10**12 asks for a 233 TiB head: rejected before anything is written.
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_dataset_config(tmp_path, "0\tworda\n1000000000000\twordb\n")))
    _run_exits_2_and_writes_nothing(tmp_path, cfg_path)
    assert "1000000000001 classes" in capsys.readouterr().err


def test_cli_overflowing_suite_separation_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_minimal()).replace(
        '"input_dim": 5', '"input_dim": 5, "separation": 1e308'))
    _run_exits_2_and_writes_nothing(tmp_path, cfg_path)
    assert "separation" in capsys.readouterr().err


@pytest.mark.parametrize("examples_per_class", [0, -3, 10**12])
def test_cli_bad_examples_per_class_exits_2(tmp_path, capsys, examples_per_class):
    # 10**12 asks for a 218 TiB train split, past the 128 TiB a process can
    # address, so the allocation fails at once whatever the kernel's overcommit.
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_minimal()).replace(
        '"examples_per_class": 40', f'"examples_per_class": {examples_per_class}'))
    _run_exits_2_and_writes_nothing(tmp_path, cfg_path)
    assert "suite" in capsys.readouterr().err


def test_cli_negative_featurizer_truncate_exits_2(tmp_path, capsys):
    config = _dataset_config(tmp_path, "0\tw x y z\n1\tw x y z\n")
    config["dataset"]["featurizer"]["truncate"] = -3
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    _run_exits_2_and_writes_nothing(tmp_path, cfg_path)
    assert "truncate" in capsys.readouterr().err


def test_cli_negative_seed_argument_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_minimal()))
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--seed", "-1"]) == 2
    assert not out.exists()
    assert "--seed" in capsys.readouterr().err


def test_grad_check_suite_fails_a_nan_gradient_in_one_trial(monkeypatch):
    from metareplay import cli
    check, calls = cli.grad_check, []

    def nan_in_second_trial(params, loss_fn, grads, parts, eps):
        calls.append(grads)
        if len(calls) == 2:
            grads = grads.copy()
            grads[0] = np.nan
        return check(params, loss_fn, grads, parts, eps=eps)

    monkeypatch.setattr(cli, "grad_check", nan_in_second_trial)
    assert run_grad_check_suite(trials=3, file=io.StringIO()) == math.inf
    assert len(calls) == 3


def test_grad_check_failure_exits_3(monkeypatch, capsys):
    from metareplay import cli
    monkeypatch.setattr(cli, "grad_check", lambda *args, **kw: math.inf)
    assert main(["grad-check", "--trials", "2"]) == 3
    captured = capsys.readouterr()
    assert "numerical error: grad-check max relative error inf" in captured.err
    assert "tolerance 1e-05" in captured.err and "Traceback" not in captured.err


def test_grad_check_negative_seed_exits_2(capsys):
    assert main(["grad-check", "--trials", "1", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert "--seed" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_grad_check_without_trials_exits_2(capsys, trials):
    assert main(["grad-check", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert "at least one trial" in captured.err and captured.out == ""


@pytest.mark.parametrize("eps", ["nan", "inf", "1.0"])
def test_grad_check_with_unmeetable_eps_exits_2_at_once(capsys, eps):
    # nan and inf are rejected up front; at 1.0 no batch keeps every ReLU
    # input 20 from its kink, so the redraws per trial run out.
    start = time.perf_counter()
    assert main(["grad-check", "--trials", "1", "--eps", eps]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert "--eps" in captured.err and captured.out == ""


def _cli_config(tmp_path, **over):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_minimal(**over)))
    return cfg_path


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_cli_out_at_or_under_a_file_exits_2(tmp_path, capsys, out):
    (tmp_path / "afile").write_text("")
    assert main(["run", "--config", str(_cli_config(tmp_path)),
                 "--out", str(tmp_path / out)]) == 2
    assert f"--out {tmp_path / out}" in capsys.readouterr().err
    assert (tmp_path / "afile").read_text() == ""


# The files a run writes besides metrics.jsonl, timing.jsonl and config.json,
# with every optional output on.
_OTHER_OUTPUTS = ["summary.jsonl", "order0_seed1/alignment.jsonl",
                  "order0_seed1/checkpoint.npz", "order0_seed1/events.jsonl"]


def _in_the_way_exits_2(tmp_path, capsys, obstacle):
    """A run with every optional output on, whose --out holds ``obstacle``,
    exits 2 naming it, before any cell trains."""
    cfg_path = _cli_config(tmp_path, seeds=[0, 1], record_alignment=True,
                           save_checkpoints=True)
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--debug-traces"]) == 2
    err = capsys.readouterr().err
    assert f"{obstacle} is in the way" in err and "Traceback" not in err
    assert list(out.rglob("metrics.jsonl")) == []


def test_cli_file_in_the_way_of_a_cell_directory_exits_2(tmp_path, capsys):
    obstacle = tmp_path / "o" / "order0_seed1"
    obstacle.parent.mkdir()
    obstacle.write_text("")
    _in_the_way_exits_2(tmp_path, capsys, obstacle)
    assert obstacle.read_text() == ""


def test_cli_directory_in_the_way_of_timing_jsonl_exits_2(tmp_path, capsys):
    obstacle = tmp_path / "o" / "timing.jsonl"
    obstacle.mkdir(parents=True)
    _in_the_way_exits_2(tmp_path, capsys, obstacle)


@pytest.mark.parametrize("name", _OTHER_OUTPUTS)
def test_cli_directory_in_the_way_of_an_output_file_exits_2(tmp_path, capsys, name):
    obstacle = tmp_path / "o" / name
    obstacle.mkdir(parents=True)
    _in_the_way_exits_2(tmp_path, capsys, obstacle)


def _special_file_exits_2(tmp_path, capsys, make, name="order0_seed0/metrics.jsonl"):
    """A run with every optional output on, whose ``name`` under --out is an
    entry that ``make`` creates and that is not a regular file, exits 2
    naming it, before any cell trains."""
    cfg_path = _cli_config(tmp_path, seeds=[0, 1], record_alignment=True,
                           save_checkpoints=True)
    out = tmp_path / "o"
    obstacle = out / name
    obstacle.parent.mkdir(parents=True)
    make(obstacle)
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--debug-traces"]) == 2
    err = capsys.readouterr().err
    assert f"{obstacle} is in the way" in err and "Traceback" not in err
    assert [p for p in out.rglob("metrics.jsonl") if p.is_file()] == []
    return obstacle


def test_cli_dangling_symlink_at_metrics_jsonl_exits_2(tmp_path, capsys):
    target = tmp_path / "gone" / "metrics.jsonl"
    obstacle = _special_file_exits_2(tmp_path, capsys, lambda path: path.symlink_to(target))
    assert obstacle.is_symlink() and not os.path.lexists(target)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_cli_fifo_at_metrics_jsonl_exits_2(tmp_path, capsys):
    _special_file_exits_2(tmp_path, capsys, os.mkfifo)


@pytest.mark.parametrize("name", _OTHER_OUTPUTS)
def test_cli_dangling_symlink_at_an_output_file_exits_2(tmp_path, capsys, name):
    _special_file_exits_2(tmp_path, capsys,
                          lambda path: path.symlink_to(tmp_path / "gone"), name)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_cli_fifo_at_the_config_copy_exits_2(tmp_path, capsys):
    _special_file_exits_2(tmp_path, capsys, os.mkfifo, "config.json")


def test_cli_dangling_symlink_at_the_config_copy_exits_2(tmp_path, capsys):
    _special_file_exits_2(tmp_path, capsys,
                          lambda path: path.symlink_to(tmp_path / "gone.json"), "config.json")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_cli_config_from_a_pipe_runs_and_is_copied_unchanged(tmp_path):
    data = json.dumps(_minimal(), indent=1).encode() + b"\n"  # not what a re-dump would write
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_bytes, args=(data,), daemon=True)
    writer.start()
    out = tmp_path / "o"
    assert main(["run", "--config", str(pipe), "--out", str(out)]) == 0
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert (out / "config.json").read_bytes() == data
    assert (out / "order0_seed0" / "metrics.jsonl").is_file()


@pytest.mark.parametrize("over, message", [
    ({"seeds": [0, 1, 0]}, "seeds lists 0 more than once"),
    ({"orders": [[0, 1, 2], [2, 0, 1], [0, 1, 2]]}, "orders lists [0, 1, 2] more than once"),
], ids=["seeds", "orders"])
def test_cli_repeated_seed_or_order_exits_2(tmp_path, capsys, over, message):
    _run_exits_2_and_writes_nothing(tmp_path, _cli_config(tmp_path, **over))
    assert message in capsys.readouterr().err


def test_cli_empty_orders_exits_2(tmp_path, capsys):
    _run_exits_2_and_writes_nothing(tmp_path, _cli_config(tmp_path, orders=[]))
    assert "orders must be a non-empty list" in capsys.readouterr().err


@pytest.mark.parametrize("num_tasks", [50, 10, 9])
def test_cli_imbalanced_budget_too_small_exits_2(tmp_path, capsys, num_tasks):
    """Once a negative task size, an empty task, and (at 9 tasks) a silent
    run that never trained one class of the dominant task."""
    suite = {"kind": "IMBALANCED", "num_tasks": num_tasks, "examples_per_class": 1,
             "test_per_class": 1, "input_dim": 3}
    _run_exits_2_and_writes_nothing(tmp_path, _cli_config(tmp_path, suite=suite))
    assert f"IMBALANCED budget of {2 * num_tasks} examples is too small" in \
        capsys.readouterr().err


def test_cli_config_inside_its_out_directory_runs(tmp_path):
    cfg_path = _cli_config(tmp_path)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert json.loads(cfg_path.read_text()) == _minimal()
    assert (tmp_path / "order0_seed0" / "metrics.jsonl").exists()


def test_cli_baseline_with_anml_model_writes_gate_fields(tmp_path):
    cfg_path = _cli_config(tmp_path, model={"architecture": "ANML"})
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    metrics = json.loads((tmp_path / "o" / "order0_seed0" / "metrics.jsonl").read_text())
    assert metrics["method"] == "SEQ"
    for key in ("gate_mean", "gate_frac_high", "gate_frac_low"):
        assert metrics[key] is not None, key


_CLI_OUTPUTS = Path(__file__).parent / "data" / "cli_outputs"


@pytest.mark.parametrize("case", sorted(p.name for p in _CLI_OUTPUTS.iterdir()))
def test_cli_output_bytes_match_committed_files(tmp_path, monkeypatch, case):
    """Every committed case, run with --debug-traces: metrics.jsonl,
    events.jsonl and summary.jsonl, byte for byte. ANML_ER fills the gate
    fields, AGEM the violations, and MTL runs without a memory (its events
    are empty); SEQ, REPLAY and MAML_ER run the same suite. The *_imbalanced
    cases are shaped like the replay-heavy benchmark: an IMBALANCED suite,
    p_write 0.1 and replays that ask for 160 examples of a memory that holds
    about 60. hashed_text runs OML_ER over the .tsv files in its directory:
    punctuation, blank lines and non-ASCII lines, hashed to 64 buckets with
    truncation; AGEM_hashed_text runs A-GEM over the same files, so it
    projects against a memory of hashed rows. A config's dataset paths are
    read from the working directory, so the run starts in the case's."""
    expected = _CLI_OUTPUTS / case
    monkeypatch.chdir(expected)
    out = tmp_path / "out"
    assert main(["run", "--config", "config.json", "--out", str(out), "--debug-traces"]) == 0
    files = sorted(p.relative_to(expected) for p in expected.rglob("*.jsonl"))
    assert len(files) == 9  # 2 orders x 2 seeds x (metrics, events), and the summary
    for name in files:
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name


def test_overflow_while_building_a_suite_is_an_input_error(monkeypatch):
    from metareplay import config as config_module

    def overflowing_suite(**spec):
        return np.float64(1e308) * 10.0

    monkeypatch.setattr(config_module, "make_synthetic_suite", overflowing_suite)
    with pytest.raises(InputError, match="overflow"):
        build_suite(parse_config(_minimal()))


def test_cli_suite_fault_is_named_once(tmp_path, capsys):
    """A fault the suite builder names itself is reported as it is, under
    the section that holds it."""
    suite = {**_minimal()["suite"], "num_tasks": 1}
    _run_exits_2_and_writes_nothing(tmp_path, _cli_config(tmp_path, suite=suite))
    assert capsys.readouterr().err == "error: suite: need at least 2 tasks\n"


def test_cli_overflow_in_training_exits_3(tmp_path, capsys):
    # Adam's second moment overflows to inf, which would zero the step and
    # let the run finish with a plausible accuracy.
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_minimal(method="OML_ER", learning={"inner_lr": 1e300})))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    assert "numerical error" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_cli_non_finite_config_float_exits_2(tmp_path, capsys, literal):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_minimal()).replace(
        '"input_dim": 5', f'"input_dim": 5, "separation": {literal}'))
    _run_exits_2_and_writes_nothing(tmp_path, cfg_path)
    assert f"error: config numbers must be finite, got {literal}\n" == capsys.readouterr().err


def test_cli_config_integer_beyond_the_digit_limit_exits_2(tmp_path, capsys):
    """Python reads no integer string longer than 4,300 digits: a config
    holding one is bad input, named in the error."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_minimal()).replace('"seeds": [0]',
                                                       '"seeds": [' + "1" * 5000 + "]"))
    _run_exits_2_and_writes_nothing(tmp_path, cfg_path)
    err = capsys.readouterr().err
    assert f"error: {cfg_path}: " in err and "4300 digits" in err


def test_cli_config_nested_too_deep_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text('{"method": ' + "[" * 100_000 + "]" * 100_000 + "}")
    _run_exits_2_and_writes_nothing(tmp_path, cfg_path)
    assert f"error: {cfg_path}: " in capsys.readouterr().err


def test_cli_config_with_a_byte_order_mark_runs_and_is_copied_unchanged(tmp_path):
    data = b"\xef\xbb\xbf" + json.dumps(_minimal()).encode()
    cfg_path = tmp_path / "config.json"
    cfg_path.write_bytes(data)
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "config.json").read_bytes() == data
    assert (out / "order0_seed0" / "metrics.jsonl").is_file()


@pytest.mark.parametrize("old, new, key", [
    ('"seeds": [0]', '"seeds": [0], "seeds": [5]', "seeds"),
    ('"batch_size": 8', '"batch_size": 8, "batch_size": 4', "batch_size"),
], ids=["top-level", "in-a-section"])
def test_cli_repeated_config_key_exits_2(tmp_path, capsys, old, new, key):
    """json keeps a repeated key's last value; the run names the key instead."""
    cfg_path = tmp_path / "config.json"
    text = json.dumps(_minimal())
    assert old in text
    cfg_path.write_text(text.replace(old, new))
    _run_exits_2_and_writes_nothing(tmp_path, cfg_path)
    assert capsys.readouterr().err == f"error: config key {key} is repeated in one JSON object\n"


def _reversed_keys(value):
    """``value`` with the keys of every JSON object in reverse order."""
    if isinstance(value, dict):
        return {key: _reversed_keys(value[key]) for key in reversed(value)}
    return value


@pytest.mark.parametrize("over, message", [
    ({"bogus": 1, "schedule": {"batch_size": "8"}}, "unknown config key: bogus"),
    ({"zeta": 1, "alpha": 2}, "unknown config key: alpha"),
    ({"schedule": {"batch_size": "8", "batchsize": 8}}, "unknown config key: schedule.batchsize"),
], ids=["unknown-key-and-mistyped-value", "two-unknown-keys", "both-in-a-section"])
def test_cli_reported_config_fault_does_not_depend_on_key_order(tmp_path, capsys, over, message):
    """A config with two faults gives one message, whichever key the file lists first."""
    cfg_path = tmp_path / "config.json"
    for cfg in (_minimal(**over), _reversed_keys(_minimal(**over))):
        cfg_path.write_text(json.dumps(cfg))
        _run_exits_2_and_writes_nothing(tmp_path, cfg_path)
        assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_support_size_beyond_sys_maxsize_exits_2(tmp_path, capsys):
    """An episode's support is sliced from the stream with itertools.islice,
    which takes no stop above sys.maxsize."""
    schedule = {"batch_size": 8, "support_size": sys.maxsize + 1, "replay_interval": 80,
                "replay_rate": 0.1}
    cfg_path = _cli_config(tmp_path, method="OML_ER", schedule=schedule)
    _run_exits_2_and_writes_nothing(tmp_path, cfg_path)
    assert "support_size" in capsys.readouterr().err
    assert main(["schedule-info", "--replay-interval", "80", "--batch-size", "8",
                 "--support-size", str(sys.maxsize + 1), "--replay-rate", "0.1"]) == 2
    captured = capsys.readouterr()
    assert "support_size" in captured.err and captured.out == ""
    assert main(["schedule-info", "--replay-interval", "80", "--batch-size", "8",
                 "--support-size", str(sys.maxsize), "--replay-rate", "0.1"]) == 0


def test_p_write_zero_runs_without_meta_test_finetuning():
    rc = parse_config(_minimal(method="OML_ER", memory={"p_write": 0},
                               ablations={"no_meta_test_finetune": True}))
    assert rc.learner.p_write == 0
    # Any draw from the empty memory would raise: scoring draws none.
    suite = build_suite(rc)
    accs, _, memory, _, _ = run_learner(build_model(rc, suite), suite, rc.learner, 0)
    assert len(memory) == 0 and len(accs) == 3


def test_cli_schedule_info_subcommand(capsys):
    assert main(["schedule-info", "--replay-interval", "1600", "--batch-size", "4",
                 "--support-size", "5", "--replay-rate", "0.01"]) == 0
    assert "67" in capsys.readouterr().out


def test_cli_schedule_info_rejects_an_interval_no_float_holds(capsys):
    assert main(["schedule-info", "--replay-interval", str(10**400), "--batch-size", "4",
                 "--support-size", "5", "--replay-rate", "0.01"]) == 2
    captured = capsys.readouterr()
    assert "replay_interval" in captured.err and captured.out == ""


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


# Rates and p_write that every run must reject: negative or not finite.
_RATES = (("learning", "inner_lr"), ("learning", "outer_lr"), ("schedule", "replay_rate"),
          ("memory", "p_write"))

# Dataset files every run must reject: (train text, or None for a missing
# file; test text).
_BAD_DATASETS = {
    "missing": (None, "0\tworda\n"),
    "empty": ("", "0\tworda\n"),
    "non-integer label": ("x\tworda\n", "0\tworda\n"),
    "negative label": ("0\tworda\n1\twordb\n-1\twordc\n", "0\tworda\n"),
    "unseen test label": ("0\tworda\n1\twordb\n", "7\tworda\n"),
    "label outside int64": ("0\tworda\n100000000000000000000\twordb\n", "0\tworda\n"),
    "unallocatable class count": ("0\tworda\n1000000000000\twordb\n", "0\tworda\n"),
}


def _has_huge_separation(cfg) -> bool:
    """A suite separation whose square overflows float64."""
    suite = cfg.get("suite")
    value = suite.get("separation") if isinstance(suite, dict) else None
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) > 1.35e154)


def _has_bad_suite_size(cfg) -> bool:
    """A non-positive suite examples_per_class."""
    suite = cfg.get("suite")
    value = suite.get("examples_per_class") if isinstance(suite, dict) else None
    return isinstance(value, int) and not isinstance(value, bool) and value < 1


def _has_huge_width(cfg) -> bool:
    """An encoder width, or an ANML_ER NM width, of 10**12 or more: a model
    that cannot be allocated."""
    model = cfg.get("model")
    if not isinstance(model, dict):
        return False
    widths = model.get("encoder_dims")
    widths = widths if isinstance(widths, list) else []
    if cfg.get("method") == "ANML_ER":
        widths = [*widths, model.get("nm_hidden_dim")]
    return any(isinstance(w, int) and not isinstance(w, bool) and w >= 10**12
               for w in widths)


def _has_repeated_runs(cfg) -> bool:
    """A seed, or an order, listed twice."""
    return any(isinstance(values, list) and any(v in values[:i] for i, v in enumerate(values))
               for values in (cfg.get("seeds"), cfg.get("orders")))


def _has_oversized_int(cfg) -> bool:
    """A seed longer than Python's 4,300-digit int-string limit, or a
    schedule support_size above sys.maxsize."""
    seeds, schedule = cfg.get("seeds"), cfg.get("schedule")
    support = schedule.get("support_size") if isinstance(schedule, dict) else None
    return ((isinstance(seeds, list) and any(isinstance(s, int) and s >= 10**4300
                                             for s in seeds))
            or (isinstance(support, int) and support > sys.maxsize))


def _has_bad_rate(cfg) -> bool:
    for section, key in _RATES:
        value = cfg.get(section)
        value = value.get(key) if isinstance(value, dict) else None
        if (isinstance(value, (int, float)) and not isinstance(value, bool)
                and not (math.isfinite(value) and value >= 0)):
            return True
    return False


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@example("SEQ", [("set", ("seeds",), [-1])], False, None)
@example("SEQ", [("set", ("seeds",), [])], False, None)
@example("MTL", [("set", ("suite", "seed"), -1)], False, None)
@example("ANML_ER", [("set", ("model", "nm_hidden_dim"), 0)], False, None)
@example("OML_ER", [("set", ("model", "encoder_dims"), [0])], False, None)
@example("OML_ER", [("set", ("learning", "outer_lr"), 1e308)], False, None)
@example("OML_ER", [("set", ("learning", "inner_lr"), 1e300)], False, None)
@example("SEQ", [("set", ("learning", "inner_lr"), -0.5)], False, None)
@example("MTL", [("set", ("learning", "outer_lr"), float("inf"))], False, None)
@example("AGEM", [("set", ("seeds",), [0])], False, "unseen test label")
@example("REPLAY", [("set", ("seeds",), [0])], False, "negative label")
@example("SEQ", [("set", ("suite", "separation"), 1e308)], False, None)
@example("OML_ER", [("set", ("suite", "examples_per_class"), 0)], False, None)
@example("MTL", [("set", ("suite", "examples_per_class"), -3)], False, None)
@example("SEQ", [("set", ("suite", "examples_per_class"), 10**12),  # 2.8 PiB: fails at once
                 ("set", ("suite", "input_dim"), 100)], False, None)
@example("OML_ER", [("set", ("model", "encoder_dims"), [10**12])], False, None)
@example("OML_ER", [("set", ("model", "encoder_dims"), [32, 10**12])], False, None)
@example("ANML_ER", [("set", ("model", "nm_hidden_dim"), 10**12)], False, None)
@example("SEQ", [("set", ("seeds",), [0, 0])], False, None)
@example("OML_ER", [("set", ("orders",), [[1, 0], [0, 1], [1, 0]])], False, None)
@example("SEQ", [("set", ("schedule", "replay_interval"), 10**400)], False, None)
@example("SEQ", [("set", ("seeds",), [(10**5000 - 1) // 9])], False, None)  # 5,000 ones
@example("OML_ER", [("set", ("schedule", "support_size"), sys.maxsize + 1)], False, None)
@given(st.sampled_from(["OML_ER", "ANML_ER", "MAML_ER", "SEQ", "REPLAY", "AGEM", "MTL"]),
       _MUTATIONS, st.booleans(), st.sampled_from([None, *_BAD_DATASETS]))
def test_cli_exits_0_2_or_3_on_mutated_configs(method, mutations, wrap, bad_dataset):
    """Any config exits 0, 2 or 3; a known-invalid one exits 2 before it
    writes anything."""
    cfg = _mutate(_tiny(method), mutations)
    with tempfile.TemporaryDirectory() as tmp:
        if bad_dataset is not None:  # swap the data source for faulty task files
            cfg.pop("suite", None)
            cfg["dataset"] = _dataset_config(Path(tmp), *_BAD_DATASETS[bad_dataset])["dataset"]
        invalid = (wrap or bad_dataset is not None or _has_bad_rate(cfg)
                   or _has_huge_separation(cfg) or _has_bad_suite_size(cfg)
                   or _has_huge_width(cfg) or _has_repeated_runs(cfg)
                   or _has_oversized_int(cfg))
        if wrap:  # a config that is not a JSON object
            cfg = [cfg]
        path = Path(tmp) / "config.json"
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # the config may hold an integer a run cannot read
        try:
            path.write_text(json.dumps(cfg))
        finally:
            sys.set_int_max_str_digits(limit)
        out = Path(tmp) / "out"
        code = main(["run", "--config", str(path), "--out", str(out)])
        wrote = out.exists()
    if invalid:
        assert code == 2 and not wrote
    else:
        assert code in (0, 2, 3)
