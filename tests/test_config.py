"""Experiment configuration: defaults, validation, serialization, presets."""

import json

import pytest

from mspl import (
    ExperimentConfig,
    InvalidConfig,
    MeshSpec,
    OptimizerSpec,
    UnknownPreset,
    WeightParams,
    preset,
)


def test_defaults():
    cfg = ExperimentConfig()
    assert cfg.weights == WeightParams(0.0, 0.0)
    assert cfg.model == "sharp"
    assert cfg.eps_list == (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
    assert cfg.mesh == MeshSpec(4096, 2.0)
    assert cfg.optimizer == OptimizerSpec(None, 4000, 3)
    assert cfg.seed == 0
    assert cfg.formats == ("csv", "json")
    assert not cfg.plot


def test_validation_rejects_nonsense():
    with pytest.raises(InvalidConfig):
        ExperimentConfig(model="fuzzy")
    with pytest.raises(InvalidConfig):
        ExperimentConfig(eps_list=())
    with pytest.raises(InvalidConfig):
        ExperimentConfig(eps_list=(1e-2, -1e-3))
    with pytest.raises(InvalidConfig):
        ExperimentConfig(eps_list=(1e-2, 1e-2))
    with pytest.raises(InvalidConfig):
        ExperimentConfig(formats=("csv", "xml"))
    with pytest.raises(InvalidConfig):
        ExperimentConfig(optimizer=OptimizerSpec(restarts=0))


def test_json_round_trip():
    cfg = ExperimentConfig(
        weights=WeightParams(0.5, 1.0),
        eps_list=(1e-3, 1e-4),
        model="both",
        mesh=MeshSpec(8192, 1.0),
        optimizer=OptimizerSpec(1e-7, 900, 2),
        gamma=0.75,
        seed=11,
        out_dir="runs/x",
        plot=True,
    )
    back = ExperimentConfig.from_dict(json.loads(cfg.to_json()))
    assert back == cfg


def test_from_json_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(ExperimentConfig(seed=3).to_json())
    assert ExperimentConfig.from_json_file(str(path)).seed == 3

    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidConfig):
        ExperimentConfig.from_json_file(str(bad))
    with pytest.raises(InvalidConfig):
        ExperimentConfig.from_json_file(str(tmp_path / "missing.json"))


def test_unknown_field_rejected():
    with pytest.raises(InvalidConfig):
        ExperimentConfig.from_dict({"wibble": 1})
    # sweeps run in one thread; there is no worker count to configure
    with pytest.raises(InvalidConfig):
        ExperimentConfig.from_dict({"threads": 2})


def test_presets():
    assert preset("muller").weights == WeightParams(0.0, 0.0)
    assert preset("spherical-ok").weights == WeightParams(0.5, 1.0)
    assert preset("custom") == ExperimentConfig()
    with pytest.raises(UnknownPreset):
        preset("bogus")
