"""Experiment configuration: defaults, validation, serialization, presets."""

import json
import math

import numpy as np
import pytest

from mspl import (
    ExperimentConfig,
    GradedMesh,
    InvalidConfig,
    UnknownPreset,
    WeightParams,
    preset,
)


def test_defaults():
    cfg = ExperimentConfig()
    assert cfg.weights == WeightParams(0.0, 0.0)
    assert cfg.model == "sharp"
    assert cfg.eps_list == (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
    assert cfg.mesh == GradedMesh(4096, 2.0)
    assert cfg.max_iter == 500
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
    with pytest.raises(InvalidConfig, match="nonnegative"):
        ExperimentConfig.from_dict({"max_iter": -1})
    assert ExperimentConfig(max_iter=0).max_iter == 0


@pytest.mark.parametrize(
    "d",
    [
        {"n_jumps": 2.5},
        {"n_jumps": 2.0},
        {"n_jumps": True},
        {"max_iter": 2.5},
        {"max_iter": 2.0},
        {"max_iter": False},
        {"mesh": {"n": 64.5}},
        {"mesh": {"n": 4096.0}},
        {"mesh": {"n": True}},
    ],
    ids=str,
)
def test_a_count_that_is_not_an_integer_is_refused(d):
    # a float count broke a solve with a TypeError, or ran with no step
    # budget, or asked for 65.5 nodal values; a bool ran as 0 or 1
    with pytest.raises(InvalidConfig, match="must be an integer"):
        ExperimentConfig.from_dict(d)


def test_numpy_integer_counts_are_integers():
    # kept as the ints they equal, so the configuration writes as JSON
    cfg = ExperimentConfig(max_iter=np.int64(7), n_jumps=np.int32(3), mesh=GradedMesh(np.int64(64)))
    assert [type(v) for v in (cfg.max_iter, cfg.n_jumps, cfg.mesh.n)] == [int, int, int]
    assert ExperimentConfig.from_dict(json.loads(cfg.to_json())) == cfg


@pytest.mark.parametrize(
    "mesh",
    [
        {"n": 8},
        {"q": 0.5},
        {"q": math.nan},
        {"q": math.inf},
        # a bool or a string ran as a number, or raised TypeError
        {"q": True},
        {"q": "2"},
        # (1/8192)**83 underflows to 0: two nodes coincide at t = 0
        {"n": 8192, "q": 83},
    ],
    ids=str,
)
def test_a_mesh_the_diffuse_model_cannot_use_is_refused_on_load(mesh):
    with pytest.raises(InvalidConfig, match="mesh|grading exponent|underflows"):
        ExperimentConfig.from_dict({"mesh": mesh})


def test_a_mesh_is_a_value():
    # the configuration's mesh is the one the diffuse solver runs on, and
    # equal meshes compare and hash alike, so configurations do too
    assert hash(GradedMesh(512, 2)) == hash(GradedMesh(512, 2.0))
    assert ExperimentConfig.from_dict({"mesh": {"n": 8192, "q": 82}}).mesh.nodes[1] > 0.0
    # q is kept as given, so a configuration writes back what it read
    cfg = ExperimentConfig.from_dict({"mesh": {"n": 64, "q": 1}})
    assert json.dumps(cfg.to_dict()["mesh"]) == '{"n": 64, "q": 1}'


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_eps_and_weights_rejected(bad):
    with pytest.raises(InvalidConfig, match="finite"):
        ExperimentConfig(eps_list=(1e-2, bad))
    with pytest.raises(InvalidConfig, match="finite"):
        WeightParams(bad, 1.0)
    with pytest.raises(InvalidConfig, match="finite"):
        WeightParams(0.5, bad)
    with pytest.raises(InvalidConfig, match="finite"):
        ExperimentConfig.from_dict({"weights": {"alpha": bad, "beta": 1.0}})


@pytest.mark.parametrize(
    "make",
    [
        lambda: ExperimentConfig.from_dict({"eps_list": [True]}),
        lambda: ExperimentConfig.from_dict({"eps_list": [1e-2, False]}),
        lambda: ExperimentConfig(eps_list=("1e-3",)),
        lambda: ExperimentConfig.from_dict({"weights": {"alpha": True, "beta": 1}}),
        lambda: WeightParams(True, False),
        lambda: WeightParams(0.5, "1"),
        lambda: WeightParams(np.bool_(True), 1.0),
        lambda: GradedMesh(64, "2"),
    ],
    ids=("eps-true", "eps-false", "eps-string", "alpha-true", "weights-bools",
         "beta-string", "alpha-numpy-bool", "q-string"),
)
def test_a_real_parameter_that_is_not_a_number_is_refused(make):
    # eps true solved at eps = 1 and weights (True, False) ran as (1, 0);
    # an eps string raised a bare TypeError
    with pytest.raises(InvalidConfig, match="must be a real number"):
        make()


def test_numpy_reals_are_real_parameters():
    cfg = ExperimentConfig(
        weights=WeightParams(np.float64(0.5), np.int64(1)), eps_list=(np.float32(1e-2),)
    )
    assert cfg.weights == WeightParams(0.5, 1.0)


def test_json_round_trip():
    cfg = ExperimentConfig(
        weights=WeightParams(0.5, 1.0),
        eps_list=(1e-3, 1e-4),
        model="both",
        mesh=GradedMesh(8192, 1.0),
        max_iter=900,
        n_jumps=11,
        out_dir="runs/x",
        plot=True,
    )
    back = ExperimentConfig.from_dict(json.loads(cfg.to_json()))
    assert back == cfg


def test_from_json_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(ExperimentConfig(n_jumps=3).to_json())
    assert ExperimentConfig.from_json_file(str(path)).n_jumps == 3

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
    # the diffuse solve walks its tooth count; it has no restarts to seed
    with pytest.raises(InvalidConfig):
        ExperimentConfig.from_dict({"seed": 0})
    # the budget is a field of its own; the descents have no tolerance
    with pytest.raises(InvalidConfig):
        ExperimentConfig.from_dict({"optimizer": {"max_iter": 500}})
    # the sharp solver grades every start by its one start rule; no grading to set
    with pytest.raises(InvalidConfig, match="gamma"):
        ExperimentConfig.from_dict({"gamma": 0.5})


@pytest.mark.parametrize("plot", ["no", 0, 1, None])
def test_a_plot_that_is_not_a_bool_is_refused(plot):
    # "plot": "no" drew the plot
    with pytest.raises(InvalidConfig, match="plot must be true or false"):
        ExperimentConfig.from_dict({"plot": plot})


@pytest.mark.parametrize("out_dir", [5, None, "", ["runs"]])
def test_an_out_dir_that_is_not_a_path_string_is_refused(out_dir):
    # "out_dir": 5 solved the sweep, then failed in os.makedirs
    with pytest.raises(InvalidConfig, match="out_dir must be a nonempty string"):
        ExperimentConfig.from_dict({"out_dir": out_dir})


def test_presets():
    assert preset("muller").weights == WeightParams(0.0, 0.0)
    assert preset("spherical-ok").weights == WeightParams(0.5, 1.0)
    assert preset("custom") == ExperimentConfig()
    with pytest.raises(UnknownPreset):
        preset("bogus")
