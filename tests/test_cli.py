"""Command-line interface: subcommands, exit codes, files, overrides."""

import json
import os
import subprocess
import sys

import pytest

from mspl import WeightParams, optimize_sharp
from mspl.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# single-minimization commands
# ---------------------------------------------------------------------------


def test_sharp_min_stdout_and_file(tmp_path, capsys):
    rc, out, _ = run_cli(
        capsys, "sharp-min", "--eps", "0.05", "--out", str(tmp_path)
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["eps"] == 0.05
    assert payload["n_jumps"] == 1
    assert payload["jumps"] == [0.5]
    assert payload["energy"]["total"] == pytest.approx(0.1 + 1.0 / 12.0, rel=1e-10)
    on_disk = json.loads((tmp_path / "sharp_min.json").read_text())
    assert on_disk == payload


def test_sharp_min_agrees_with_library(tmp_path, capsys):
    rc, out, _ = run_cli(
        capsys, "sharp-min", "--eps", "1e-3", "--alpha", "0.5", "--beta", "1.0",
        "--out", str(tmp_path),
    )
    assert rc == 0
    payload = json.loads(out)
    res = optimize_sharp(1e-3, WeightParams(0.5, 1.0))
    assert payload["energy"]["total"] == pytest.approx(res.energy.total, rel=1e-11)
    assert payload["n_jumps"] == res.profile.n_jumps


def test_diffuse_min_budget_exhaustion_still_writes(tmp_path, capsys):
    rc, out, _ = run_cli(
        capsys, "diffuse-min", "--eps", "1e-3", "--mesh-n", "64",
        "--grading-q", "1", "--max-iter", "3", "--out", str(tmp_path),
    )
    assert rc == 3  # budget exhausted, flagged but not fatal
    payload = json.loads(out)
    assert payload["status"] == "max_iter"
    assert (tmp_path / "diffuse_min.json").exists()


def test_diffuse_min_converges_on_easy_problem(tmp_path, capsys):
    rc, out, _ = run_cli(
        capsys, "diffuse-min", "--eps", "1e-2", "--mesh-n", "64",
        "--grading-q", "1", "--tol", "1e-5", "--out", str(tmp_path),
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["status"] == "converged"
    assert payload["energy"]["total"] > 0.0


# ---------------------------------------------------------------------------
# exit codes on bad input
# ---------------------------------------------------------------------------


def test_bad_eps_list_is_config_error(tmp_path, capsys):
    rc, _, err = run_cli(
        capsys, "sweep-scaling", "--eps-list", "1e-2,zap", "--out", str(tmp_path)
    )
    assert rc == 2
    assert "error:" in err


def test_bad_s_list_is_config_error(tmp_path, capsys):
    rc, _, err = run_cli(
        capsys, "period-check", "--model", "sharp", "--alpha", "0.5", "--beta", "1",
        "--s-list", "0.3;0.5", "--out", str(tmp_path),
    )
    assert rc == 2
    assert "error:" in err


def test_unknown_preset_is_config_error(capsys):
    rc, _, err = run_cli(capsys, "preset", "bogus")
    assert rc == 2
    assert "unknown preset" in err


def test_undersized_mesh_is_config_error(tmp_path, capsys):
    rc, _, err = run_cli(
        capsys, "diffuse-min", "--eps", "1e-3", "--mesh-n", "4", "--out", str(tmp_path)
    )
    assert rc == 2
    assert "error:" in err


def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_threads_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep-scaling", "--threads", "2"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------


def test_preset_round_trip(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "preset", "spherical-ok")
    assert rc == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(out)
    rc, out, _ = run_cli(
        capsys, "sharp-min", "--config", str(cfg_path), "--eps", "1e-2",
        "--out", str(tmp_path),
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["alpha"] == 0.5
    assert payload["beta"] == 1.0


def test_flags_override_config_file(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "preset", "spherical-ok")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(out)
    rc, out, _ = run_cli(
        capsys, "sharp-min", "--config", str(cfg_path), "--alpha", "0",
        "--beta", "0", "--eps", "0.05", "--out", str(tmp_path),
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["alpha"] == 0.0
    assert payload["jumps"] == [0.5]


# ---------------------------------------------------------------------------
# report commands
# ---------------------------------------------------------------------------


def test_sweep_scaling_writes_reports(tmp_path, capsys):
    rc, out, _ = run_cli(
        capsys, "sweep-scaling", "--eps-list", "1e-2,3e-3,1e-3",
        "--out", str(tmp_path), "--plot",
    )
    assert rc == 0
    summary = json.loads(out)
    assert 0.55 <= summary["fits"]["sharp"]["slope"] <= 0.8
    for name in ("sweep_scaling.csv", "sweep_scaling.json", "sweep_scaling.svg"):
        assert (tmp_path / name).exists()


def test_energy_profile_command(tmp_path, capsys):
    rc, out, _ = run_cli(
        capsys, "energy-profile", "--eps", "1e-3", "--out", str(tmp_path)
    )
    assert rc == 0
    summary = json.loads(out)
    assert summary["spread"] >= 1.0
    assert (tmp_path / "energy_profile.csv").exists()


def test_period_check_sharp_command(tmp_path, capsys):
    rc, out, _ = run_cli(
        capsys, "period-check", "--model", "sharp", "--alpha", "0.5", "--beta", "1",
        "--eps", "1e-4", "--s-list", "0.3,0.5,0.8", "--out", str(tmp_path),
    )
    assert rc == 0
    summary = json.loads(out)
    assert len(summary["rows"]["sharp"]) == 3
    assert (tmp_path / "period_check_sharp.csv").exists()


def test_cell_command(capsys):
    rc, out, _ = run_cli(capsys, "cell", "--s", "0.5", "--alpha", "0.5", "--beta", "1")
    assert rc == 0
    payload = json.loads(out)
    assert payload["A0"] == pytest.approx(4.0 / 3.0, abs=1e-11)
    assert payload["L"] == pytest.approx(4.0, abs=1e-11)
    assert payload["period_closed_form"] == pytest.approx(
        4.0 * 0.5 ** (5.0 / 12.0), rel=1e-10
    )
    assert payload["period_numeric"] == pytest.approx(
        payload["period_closed_form"], rel=1e-8
    )


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------


def test_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "mspl.cli", "preset", "muller"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    cfg = json.loads(proc.stdout)
    assert cfg["weights"] == {"alpha": 0.0, "beta": 0.0}
