"""Import hygiene: what loading the package costs, and module boundaries."""

import ast
import json
import os
import subprocess
import sys

import mspl

SRC = os.path.dirname(os.path.dirname(mspl.__file__))
PKG = os.path.dirname(mspl.__file__)
HEAVY = ("scipy.optimize", "scipy.stats", "scipy.integrate", "scipy.sparse", "scipy.linalg")


def loaded_heavy(code: str) -> list[str]:
    """Heavy scipy subpackages in sys.modules after `code` runs in a
    fresh interpreter."""
    probe = code + f"\nimport sys, json\nprint(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_light_paths_skip_heavy_scipy():
    assert loaded_heavy("import mspl") == []
    assert loaded_heavy("import mspl.cli") == []
    # `cell` and `preset` never refine a sharp profile
    assert loaded_heavy(
        "import mspl.cli\n"
        "mspl.cli.main(['cell', '--s', '0.5'])\n"
        "mspl.cli.main(['preset', 'muller'])"
    ) == []
    # the sharp refinement is numpy-only, and so is the sharp layout the
    # diffuse start is built from
    out = "import shutil, tempfile\nimport mspl.cli, mspl.sharp\nout = tempfile.mkdtemp()\n"
    w = "mspl.WeightParams(0.5, 1.0)"
    assert loaded_heavy(
        out
        + "mspl.cli.main(['sharp-min', '--alpha', '0.5', '--beta', '1', '--eps', '1e-3', '--out', out])\n"
        + f"mspl.smoothed_graded_init(1e-3, {w}, mspl.GradedMesh(512, 2.0))\n"
        + "shutil.rmtree(out)"
    ) == []
    # the diffuse Newton step needs scipy.linalg's banded Cholesky factor
    # and solve, no more
    assert loaded_heavy(
        out + "mspl.cli.main(['diffuse-min', '--mesh-n', '512', '--out', out])\nshutil.rmtree(out)"
    ) == ["scipy.linalg"]


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
