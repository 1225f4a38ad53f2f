"""Checkpoint round trips."""

from types import SimpleNamespace

import numpy as np
import pytest

from metareplay.checkpoint import load_checkpoint, save_checkpoint
from metareplay.model import Classifier, ModelConfig
from metareplay.numerics import InputError, LossMode


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
    as_dicts = SimpleNamespace(tensors={n: t.copy() for n, t in params.tensors.items()},
                               partitions=dict(params.partitions))
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


def test_unknown_version_rejected(tmp_path):
    import json

    config = ModelConfig(input_dim=2, encoder_dims=(2,), num_classes=2)
    params = Classifier(config).init_params(np.random.default_rng(0))
    path = tmp_path / "c.npz"
    save_checkpoint(path, params, config)
    data = dict(np.load(path))
    meta = json.loads(bytes(data["__meta__"]).decode())
    meta["version"] = 99
    data["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **data)
    with pytest.raises(InputError):
        load_checkpoint(path)
