"""Checkpoint round trips."""

import io
import json
from types import SimpleNamespace

import numpy as np
import pytest

from metareplay.checkpoint import load_checkpoint, save_checkpoint
from metareplay.model import Classifier, ModelConfig
from metareplay.numerics import InputError, LossMode, Partition


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    config = ModelConfig(input_dim=5, encoder_dims=(7, 3), num_classes=4,
                         architecture="ANML", nm_hidden_dim=6)
    clf = Classifier(config)
    params = clf.init_params(np.random.default_rng(2))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, config)
    loaded, loaded_config = load_checkpoint(path)
    assert loaded_config == config
    assert set(loaded.tensors) == set(params.tensors)
    for name, t in params.tensors.items():
        np.testing.assert_array_equal(loaded.tensors[name], t)
        assert loaded.tensors[name].dtype == t.dtype
    assert loaded.partitions == params.partitions


@pytest.mark.parametrize("architecture", ["OML", "ANML"])
def test_checkpoint_bytes_match_a_dict_built_parameter_set(tmp_path, architecture):
    """Views into one buffer save exactly like separately owned arrays, in
    init_params order (not the buffer's sorted order)."""
    config = ModelConfig(input_dim=5, encoder_dims=(7, 3), num_classes=4,
                         architecture=architecture, nm_hidden_dim=6)
    params = Classifier(config).init_params(np.random.default_rng(4))
    as_dicts = SimpleNamespace(tensors={n: t.copy() for n, t in params.tensors.items()})
    save_checkpoint(tmp_path / "flat.npz", params, config)
    save_checkpoint(tmp_path / "dicts.npz", as_dicts, config)
    assert (tmp_path / "flat.npz").read_bytes() == (tmp_path / "dicts.npz").read_bytes()
    with np.load(tmp_path / "flat.npz") as data:
        assert [k for k in data.files if k.startswith("tensor/")] == [
            f"tensor/{n}" for n in params.tensors]


def test_checkpoint_preserves_loss_mode(tmp_path):
    config = ModelConfig(input_dim=3, encoder_dims=(4,), num_classes=2,
                         loss_mode=LossMode.CANDIDATE_BCE)
    params = Classifier(config).init_params(np.random.default_rng(0))
    path = tmp_path / "c.npz"
    save_checkpoint(path, params, config)
    _, loaded_config = load_checkpoint(path)
    assert loaded_config.loss_mode == LossMode.CANDIDATE_BCE


def _rewrite(path, edit):
    """Rewrite a saved checkpoint's ``__meta__`` and tensors with ``edit(meta, data)``."""
    data = dict(np.load(path))
    meta = json.loads(bytes(data["__meta__"]).decode())
    edit(meta, data)
    data["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **data)


def _saved(tmp_path, **config):
    config = ModelConfig(**{"input_dim": 2, "encoder_dims": (2,), "num_classes": 2, **config})
    params = Classifier(config).init_params(np.random.default_rng(0))
    path = tmp_path / "c.npz"
    save_checkpoint(path, params, config)
    return path, params, config


def test_checkpoint_holds_tensors_and_config_only(tmp_path):
    path, params, _ = _saved(tmp_path, architecture="ANML", nm_hidden_dim=3)
    with np.load(path) as data:
        meta = json.loads(bytes(data["__meta__"]).decode())
        assert sorted(data.files) == sorted(["__meta__"] + [f"tensor/{n}" for n in params.tensors])
    assert sorted(meta) == ["config", "version"] and meta["version"] == 2


def test_unknown_version_rejected(tmp_path):
    path, _, _ = _saved(tmp_path)
    _rewrite(path, lambda meta, data: meta.update(version=99))
    with pytest.raises(InputError):
        load_checkpoint(path)


@pytest.mark.parametrize("architecture", ["OML", "ANML", "MAML"])
def test_version_one_loads_and_ignores_its_stored_partitions(tmp_path, architecture):
    """A version 1 file stored partitions beside its config, with the encoder
    of ANML and MAML labelled ``"pn_encoder"``, a label that no longer exists."""
    path, params, config = _saved(tmp_path, architecture=architecture, nm_hidden_dim=3)
    enc = "encoder" if architecture == "OML" else "pn_encoder"
    stored = {n: enc if p == Partition.ENCODER else p.value
              for n, p in params.partitions.items()}
    _rewrite(path, lambda meta, data: meta.update(version=1, partitions=stored))
    loaded, loaded_config = load_checkpoint(path)
    fresh = Classifier(config).init_params(np.random.default_rng(0))
    assert loaded_config == config
    assert loaded.partitions == fresh.partitions
    assert list(loaded.tensors) == list(fresh.tensors)
    for name, t in fresh.tensors.items():
        np.testing.assert_array_equal(loaded.tensors[name], t)
    np.testing.assert_array_equal(loaded.flat, fresh.flat)


@pytest.mark.parametrize("edit", [
    lambda meta, data: data.pop("tensor/head.b"),
    lambda meta, data: data.update({"tensor/extra": np.zeros(2)}),
    lambda meta, data: meta["config"].update(architecture="ANML"),
    lambda meta, data: data.update({"tensor/enc0.W": np.zeros((3, 2))}),
], ids=["missing", "extra", "other-architecture", "other-shape"])
def test_tensors_that_do_not_match_their_config_are_rejected(tmp_path, edit):
    path, _, _ = _saved(tmp_path)
    _rewrite(path, edit)
    with pytest.raises(InputError, match="do not match"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit, fault", [
    (lambda meta, data: meta["config"].update(depth=3), r"unknown \['depth'\]"),
    (lambda meta, data: meta["config"].pop("input_dim"), r"missing \['input_dim'\]"),
    (lambda meta, data: meta["config"].update(loss_mode="hinge"), "'hinge' is not a valid LossMode"),
    (lambda meta, data: meta["config"].update(encoder_dims=3), "encoder_dims a list"),
    (lambda meta, data: meta["config"].update(num_classes=True), "must be integers"),
    (lambda meta, data: meta["config"].update(architecture="GRU"), "unknown architecture 'GRU'"),
    (lambda meta, data: meta.pop("version"), "version None"),
], ids=["unknown-key", "missing-input-dim", "unknown-loss-mode", "encoder-dims-not-a-list",
        "bool-size", "unknown-architecture", "no-version"])
def test_malformed_meta_is_rejected_naming_path_and_fault(tmp_path, edit, fault):
    path, _, _ = _saved(tmp_path)
    _rewrite(path, edit)
    with pytest.raises(InputError, match=fault) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: ")


def _npy(array) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


@pytest.mark.parametrize("write, fault", [
    (lambda path: np.savez(path, __meta__=np.frombuffer(b"{version", dtype=np.uint8)),
     "Expecting property name"),
    (lambda path: np.savez(path, **{"tensor/head.b": np.zeros(2)}), "__meta__ is not a file"),
    (lambda path: path.write_bytes(b"0\tnot a checkpoint\n"), "pickled"),
    (lambda path: path.write_bytes(b""), "No data left"),
    (lambda path: path.write_bytes(b"PK\x03\x04" + bytes(40)), "not a zip file"),
    (lambda path: path.write_bytes(_npy(np.zeros(3))), "not a checkpoint"),
    (lambda path: None, "No such file"),
], ids=["meta-not-json", "no-meta", "not-an-npz", "empty", "broken-zip", "npy-array",
        "missing-file"])
def test_file_that_is_not_a_checkpoint_is_rejected_naming_path_and_fault(tmp_path, write, fault):
    path = tmp_path / "c.npz"
    write(path)
    with pytest.raises(InputError, match=fault) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: ")
