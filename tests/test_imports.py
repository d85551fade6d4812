"""Import hygiene: what loading the package costs, and module boundaries."""

import ast
import importlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import mspl

SRC = os.path.dirname(os.path.dirname(mspl.__file__))
PKG = os.path.dirname(mspl.__file__)
HEAVY = ("scipy.optimize", "scipy.stats", "scipy.integrate", "scipy.sparse", "scipy.linalg")
SOLVERS = ("numpy", "mspl.sharp", "mspl.diffuse", "mspl.asymptotics", "mspl.reports")


def loaded(code: str, watched: tuple[str, ...]) -> list[str]:
    """The `watched` modules in sys.modules after `code` runs in a fresh
    interpreter."""
    probe = code + f"\nimport sys, json\nprint(json.dumps([m for m in {watched!r} if m in sys.modules]))\n"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_that_do_not_solve_load_no_solver():
    assert loaded("import mspl", SOLVERS) == []
    assert loaded("import mspl.cli", SOLVERS) == []
    assert loaded(
        "import mspl.cli\n"
        "mspl.cli.main(['cell', '--s', '0.5'])\n"
        "mspl.cli.main(['preset', 'muller'])",
        SOLVERS,
    ) == []
    # a name loads its home module, and only what that module needs
    assert loaded("import mspl\nmspl.WeightParams, mspl.minimize_cell", SOLVERS) == []
    assert loaded("import mspl\nmspl.SawtoothProfile", SOLVERS) == ["numpy", "mspl.sharp"]
    # a mesh and a configuration are built and checked without numpy
    assert loaded("import mspl.config", SOLVERS) == []
    assert loaded("import mspl\nmspl.GradedMesh(512, 2.0)", SOLVERS) == []


def test_light_paths_skip_heavy_scipy():
    # `import mspl`, `cell` and `preset` load no numpy, hence no scipy
    # (see the test above); the sharp refinement is numpy-only, and so is
    # the sharp layout the diffuse start is built from
    out = "import shutil, tempfile\nimport mspl.cli, mspl.sharp\nout = tempfile.mkdtemp()\n"
    w = "mspl.WeightParams(0.5, 1.0)"
    assert loaded(
        out
        + "mspl.cli.main(['sharp-min', '--alpha', '0.5', '--beta', '1', '--eps', '1e-3', '--out', out])\n"
        + f"mspl.smoothed_graded_init(1e-3, {w}, mspl.GradedMesh(512, 2.0))\n"
        + "shutil.rmtree(out)",
        HEAVY,
    ) == []
    # the diffuse Newton step needs scipy.linalg's LAPACK wrapper for the
    # banded Cholesky factor-and-solve, dpbsv, no more
    assert loaded(
        out + "mspl.cli.main(['diffuse-min', '--mesh-n', '512', '--out', out])\nshutil.rmtree(out)",
        HEAVY,
    ) == ["scipy.linalg"]


def test_sharp_min_loads_no_diffuse_code():
    # the sharp-min handler needs the sharp solver, its options and the
    # numpy-free JSON writer: no report, diffuse or asymptotics module, and
    # no scipy at all
    assert loaded(
        "import shutil, tempfile\nimport mspl.cli\nout = tempfile.mkdtemp()\n"
        "mspl.cli.main(['sharp-min', '--eps', '1e-2', '--out', out])\n"
        "shutil.rmtree(out)",
        ("mspl.reports", "mspl.diffuse", "mspl.asymptotics", "scipy"),
    ) == []


def test_dir_lists_every_public_name_before_any_loads():
    listed = loaded(
        "import mspl\nnames = set(dir(mspl))\n"
        "assert names >= set(mspl.__all__), set(mspl.__all__) - names",
        SOLVERS,
    )
    assert listed == []


# names whose home is a numpy-free module
NUMPY_FREE_HOMES = {
    "WeightParams": "mspl.weights",
    "A0_constant": "mspl.cell",
    "period_law_constant": "mspl.cell",
    "CellDensityParams": "mspl.cell",
    "cell_density": "mspl.cell",
    "optimal_period": "mspl.cell",
    "CellMinimum": "mspl.cell",
    "minimize_cell": "mspl.cell",
    "sharp_period": "mspl.cell",
    "ExperimentConfig": "mspl.config",
    "GradedMesh": "mspl.config",
    "preset": "mspl.config",
}


def test_public_names_are_the_objects_of_their_home_modules():
    for name in mspl.__all__:
        obj = getattr(mspl, name)
        if name == "errors":
            assert obj is importlib.import_module("mspl.errors")
            continue
        home = sys.modules[obj.__module__]
        assert getattr(home, name) is obj, name
        assert obj.__module__ == NUMPY_FREE_HOMES.get(name, obj.__module__), name
    assert set(NUMPY_FREE_HOMES) <= set(mspl.__all__)


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError, match="no_such_name"):
        mspl.no_such_name
    assert not hasattr(mspl, "round12")
    # the start grading is private to `sharp._graded_start_gaps`
    with pytest.raises(AttributeError, match="default_gamma"):
        mspl.default_gamma


def test_round12_maps_numpy_scalars_like_python_numbers():
    from mspl.rounding import round12

    out = round12(
        {
            "f32": np.float32(0.1),
            "f64": np.float64(1.0) / 3.0,
            "i64": np.int64(-7),
            "flag": np.bool_(True),
            "bool": True,
            "nested": [(np.float64(2.0) ** 0.5, np.int64(3)), {"inf": np.float64("inf")}],
            "nan": float("nan"),
            "text": "x",
        }
    )
    assert out["f32"] == 0.10000000149 and type(out["f32"]) is float
    assert out["f64"] == 0.333333333333 and type(out["f64"]) is float
    assert out["i64"] == -7 and type(out["i64"]) is int
    # numpy's bool is no Python number and passes through unchanged
    assert type(out["flag"]) is np.bool_ and out["flag"]
    assert out["bool"] is True
    assert out["nested"] == [[1.41421356237, 3], {"inf": math.inf}]
    assert [type(v) for v in out["nested"][0]] == [float, int]
    assert math.isnan(out["nan"])
    assert out["text"] == "x"


def test_no_private_names_imported_across_modules():
    offenders = []
    for name in sorted(os.listdir(PKG)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PKG, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level >= 1:
                offenders += [
                    f"{name}: {a.name}" for a in node.names if a.name.startswith("_")
                ]
    assert offenders == []


def test_diffuse_does_not_import_asymptotics():
    # asymptotics builds on the diffuse model, so an import back from
    # diffuse would close a cycle
    with open(os.path.join(PKG, "diffuse.py")) as fh:
        tree = ast.parse(fh.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
            imported += [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
    assert not [name for name in imported if "asymptotics" in name]
