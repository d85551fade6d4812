"""Import hygiene: what loading the package costs, and module boundaries."""

import ast
import json
import os
import subprocess
import sys

import mspl

SRC = os.path.dirname(os.path.dirname(mspl.__file__))
PKG = os.path.dirname(mspl.__file__)
HEAVY = ("scipy.optimize", "scipy.stats", "scipy.integrate")


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
