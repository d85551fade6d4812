"""Command-line interface: subcommands, exit codes, files, overrides."""

import json
import os
import subprocess
import sys

import pytest

import mspl
from mspl import SharpOptions, WeightParams, optimize_sharp
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


def test_sharp_min_honours_max_iter(tmp_path, capsys):
    rc, out, _ = run_cli(
        capsys, "sharp-min", "--eps", "1e-3", "--alpha", "0.5", "--beta", "1.0",
        "--max-iter", "2", "--out", str(tmp_path),
    )
    payload = json.loads(out)
    w = WeightParams(0.5, 1.0)
    res = optimize_sharp(1e-3, w, SharpOptions(max_iter=2))
    assert payload["energy"]["total"] == pytest.approx(res.energy.total, rel=1e-11)
    assert payload["converged"] == res.converged
    assert rc == (0 if res.converged else 3)
    # the budget must matter: the default one reaches a lower energy
    assert res.energy.total > optimize_sharp(1e-3, w).energy.total


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
        "--grading-q", "1", "--out", str(tmp_path),
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["status"] == "converged"
    assert payload["energy"]["total"] > 0.0


def test_default_diffuse_min_converges(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "diffuse-min", "--out", str(tmp_path))
    payload = json.loads(out)
    assert payload["status"] == "converged"
    assert rc == 0
    counts = [r["n_jumps"] for r in payload["counts"]]
    assert counts == list(range(counts[0], counts[-1] + 1))
    assert payload["energy"]["total"] == min(r["final_total"] for r in payload["counts"])
    assert {r["status"] for r in payload["counts"]} <= {
        "converged", "max_iter", "line_search_failure", "dominated"
    }


def test_diffuse_min_n_jumps_pins_the_descended_count(tmp_path, capsys):
    rc, out, _ = run_cli(
        capsys, "diffuse-min", "--eps", "1e-3", "--mesh-n", "512", "--n-jumps", "5",
        "--out", str(tmp_path),
    )
    payload = json.loads(out)
    assert [r["n_jumps"] for r in payload["counts"]] == [5]
    assert payload["n_teeth"] == payload["counts"][0]["teeth"]


# ---------------------------------------------------------------------------
# exit codes on bad input
# ---------------------------------------------------------------------------


def test_bad_eps_list_is_config_error(tmp_path, capsys):
    rc, _, err = run_cli(
        capsys, "sweep-scaling", "--eps-list", "1e-2,zap", "--out", str(tmp_path)
    )
    assert rc == 2
    assert "error:" in err


# --eps replaced the list, so the sweep ran one eps and fit nothing
@pytest.mark.parametrize("command", ["sweep-scaling"])
def test_eps_with_an_eps_list_is_config_error(tmp_path, capsys, command):
    rc, out, err = run_cli(
        capsys, command, "--model", "sharp", "--alpha", "0.5", "--beta", "1",
        "--eps-list", "1e-2,1e-3,1e-4", "--eps", "1e-2", "--out", str(tmp_path),
    )
    assert rc == 2
    assert out == ""
    assert err.startswith("error: --eps and --eps-list ")
    assert os.listdir(tmp_path) == []


def test_a_repeated_location_is_config_error(tmp_path, capsys):
    # three equal abscissae fit a slope to rounding, with r_squared 1
    rc, out, err = run_cli(
        capsys, "period-check", "--model", "sharp", "--alpha", "0.5", "--beta", "1",
        "--eps", "1e-3", "--s-list", "0.5,0.5,0.5", "--out", str(tmp_path),
    )
    assert rc == 2
    assert out == ""
    assert err.startswith("error: locations have duplicates")
    assert os.listdir(tmp_path) == []


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


def test_a_bad_mesh_is_refused_before_the_sharp_sweep(tmp_path, capsys, monkeypatch):
    # the sharp half of the sweep ran in full before the mesh was checked
    import mspl.reports

    def never(*args, **kwargs):
        raise AssertionError("the sharp sweep ran")

    monkeypatch.setattr(mspl.reports, "optimize_sharp_sweep", never)
    rc, out, err = run_cli(
        capsys, "sweep-scaling", "--model", "both", "--eps-list", "1e-2,5e-3,2e-3",
        "--mesh-n", "8", "--out", str(tmp_path),
    )
    assert rc == 2
    assert out == ""
    assert err == "error: mesh needs at least 16 cells, got 8\n"
    assert os.listdir(tmp_path) == []


def test_an_infinite_grading_exponent_is_config_error(tmp_path, capsys):
    # every node but the last was 0: the descent ran on nan energies and
    # wrote them
    rc, out, err = run_cli(
        capsys, "diffuse-min", "--eps", "1e-2", "--grading-q", "inf", "--out", str(tmp_path)
    )
    assert rc == 2
    assert out == ""
    assert err.startswith("error: grading exponent must be finite")
    assert os.listdir(tmp_path) == []


def test_a_mesh_whose_hessian_band_overflows_is_config_error(tmp_path, capsys):
    # the walk descended counts 7-10, each ending 'line_search_failure'
    # after 0 steps, wrote diffuse_min.json and exited 3
    out_dir = tmp_path / "band"
    rc, out, err = run_cli(
        capsys, "diffuse-min", "--alpha", "0.5", "--beta", "1", "--eps", "1e-3",
        "--mesh-n", "8192", "--grading-q", "33", "--out", str(out_dir),
    )
    assert rc == 2
    assert out == ""
    assert err.startswith("error: the cells of GradedMesh(n=8192, q=33.0) are too thin")
    assert not out_dir.exists()


def test_an_empty_eps_list_is_config_error(tmp_path, capsys, monkeypatch):
    # an empty flag was taken as no flag: the default sweep ran and exited 0
    import mspl.reports

    def never(*args, **kwargs):
        raise AssertionError("the sharp sweep ran")

    monkeypatch.setattr(mspl.reports, "optimize_sharp_sweep", never)
    out_dir = tmp_path / "empty"
    rc, out, err = run_cli(capsys, "sweep-scaling", "--eps-list", "", "--out", str(out_dir))
    assert rc == 2
    assert out == ""
    assert err == "error: eps_list must be nonempty\n"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "config, message",
    [
        # sweep_scaling.svg was written
        ({"plot": "no"}, "error: plot must be true or false, got 'no'\n"),
        # the sweep was solved, then os.makedirs raised a TypeError
        ({"out_dir": 5}, "error: out_dir must be a nonempty string, got 5\n"),
    ],
    ids=("plot", "out_dir"),
)
def test_a_config_file_of_the_wrong_type_is_refused_before_the_sweep(
    tmp_path, capsys, monkeypatch, config, message
):
    import mspl.reports

    def never(*args, **kwargs):
        raise AssertionError("the sharp sweep ran")

    monkeypatch.setattr(mspl.reports, "optimize_sharp_sweep", never)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"eps_list": [1e-2, 1e-3], **config}))
    rc, out, err = run_cli(capsys, "sweep-scaling", "--config", "cfg.json")
    assert rc == 2
    assert out == ""
    assert err == message
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_a_sharp_walk_with_no_finite_start_is_an_error(tmp_path, capsys):
    # the start widths overflow at beta = 2.99: this exited 0 with a
    # 0-jump profile, u(1) = 1, marked converged
    out_dir = tmp_path / "edge"
    rc, out, err = run_cli(
        capsys, "sharp-min", "--beta", "2.99", "--eps", "1e-3", "--out", str(out_dir)
    )
    assert rc == 2
    assert out == ""
    assert err.startswith("error: the graded start of")
    assert not out_dir.exists()


def test_an_unbracketed_sharp_winner_exits_3_and_writes(tmp_path, capsys):
    # the totals fall up to count 125 and counts 126-129 are nan, so the
    # lowest finite total is not bracketed: this exited 0
    rc, out, _ = run_cli(
        capsys, "sharp-min", "--alpha", "0", "--beta", "2.96", "--eps", "1e-3",
        "--out", str(tmp_path),
    )
    assert rc == 3
    payload = json.loads(out)
    assert (payload["n_jumps"], payload["converged"]) == (125, False)
    assert json.loads((tmp_path / "sharp_min.json").read_text()) == payload


def test_sharp_count_above_the_limit_is_an_error(tmp_path, capsys):
    # the walk would start at 43508 jumps; it fails before solving any
    rc, _, err = run_cli(
        capsys, "sharp-min", "--alpha", "2", "--beta", "2.9", "--eps", "1e-3",
        "--out", str(tmp_path),
    )
    assert rc == 2
    assert "MAX_JUMPS" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("sharp-min", "--eps", "inf"),
        ("sharp-min", "--alpha", "nan", "--eps", "1e-2"),
        ("diffuse-min", "--eps", "inf"),
    ],
    ids=("sharp-eps-inf", "sharp-alpha-nan", "diffuse-eps-inf"),
)
def test_non_finite_input_is_config_error(tmp_path, capsys, argv):
    # refused with one line before any solve, like --eps 0; a RuntimeWarning
    # would fail the test (pytest turns them into errors)
    rc, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "finite" in err
    assert err.count("\n") == 1
    assert os.listdir(tmp_path) == []


# a negative budget is refused: the sharp refinement would never reach
# its step count, and the diffuse descent would take no step
@pytest.mark.parametrize(
    "argv",
    [
        ("sharp-min", "--eps", "1e-2", "--max-iter", "-3"),
        ("diffuse-min", "--eps", "1e-2", "--max-iter", "-3", "--mesh-n", "64"),
    ],
    ids=("sharp-min", "diffuse-min"),
)
def test_a_negative_max_iter_is_config_error(tmp_path, capsys, argv):
    rc, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: max_iter must be nonnegative")
    assert os.listdir(tmp_path) == []


# the descent stops on a fixed gradient and decrease test, so there is no
# tolerance to set: --tol is refused with exit 2 whatever its value
@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_an_unmeetable_tol_is_config_error(tmp_path, capsys, tol):
    argv = ("diffuse-min", "--eps", "1e-2", "--mesh-n", "64", "--tol", tol)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# sweeps run in one thread, and the sharp solver grades every start by
# default_gamma: neither has a flag
@pytest.mark.parametrize(
    "argv",
    [["sweep-scaling", "--threads", "2"], ["sharp-min", "--gamma", "0.5"]],
    ids=["threads", "gamma"],
)
def test_threads_flag_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# each subcommand takes only the flags its handler reads
@pytest.mark.parametrize(
    "argv",
    [
        ["sharp-min", "--mesh-n", "8"],
        ["sharp-min", "--grading-q", "0.5"],
        ["sharp-min", "--tol", "5"],
        ["sharp-min", "--format", "csv"],
        ["sharp-min", "--plot"],
        ["diffuse-min", "--format", "csv"],
        ["diffuse-min", "--plot"],
        ["energy-profile", "--mesh-n", "8"],
        ["energy-profile", "--grading-q", "0.5"],
        ["energy-profile", "--tol", "-1"],
        ["sweep-scaling", "--tol", "1e-6"],
        ["period-check", "--tol", "1e-6"],
        # one period-check measures one eps: a list ran only its smallest
        ["period-check", "--eps-list", "1e-2,1e-3"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_a_flag_the_handler_ignores_is_rejected(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--eps", "1e-2", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


# the mesh flags of the report commands set the diffuse solver, so a
# sharp-only run refuses them and names the flag
@pytest.mark.parametrize(
    "argv",
    [
        [
            "period-check", "--model", "sharp", "--alpha", "0.5", "--beta", "1",
            "--eps", "1e-3", "--mesh-n", "8", "--grading-q", "0.1",
        ],
        ["sweep-scaling", "--eps-list", "1e-2,1e-3", "--mesh-n", "8"],
        ["sweep-scaling", "--model", "sharp", "--eps-list", "1e-2", "--grading-q", "1"],
    ],
    ids=["period-check", "sweep-scaling", "sweep-grading-q"],
)
def test_a_diffuse_flag_on_a_sharp_run_is_config_error(tmp_path, capsys, argv):
    rc, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    flag = next(a for a in argv if a in ("--mesh-n", "--grading-q"))
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {flag} ")
    assert os.listdir(tmp_path) == []


def test_a_run_of_both_models_takes_the_diffuse_flags(tmp_path, capsys):
    rc, _, _ = run_cli(
        capsys, "sweep-scaling", "--model", "both", "--eps-list", "1e-2,5e-3",
        "--mesh-n", "64", "--grading-q", "1", "--out", str(tmp_path),
    )
    assert rc == 0
    params = json.loads((tmp_path / "sweep_scaling.json").read_text())["params"]
    assert params["mesh"] == {"n": 64, "q": 1.0}
    assert params["max_iter"] == 500 and "optimizer" not in params


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


@pytest.mark.parametrize(
    "command, config",
    [
        ("sharp-min", {"n_jumps": 2.5, "eps_list": [0.01]}),
        ("sharp-min", {"max_iter": 2.5, "eps_list": [0.01]}),
        ("diffuse-min", {"mesh": {"n": 64.5, "q": 1.0}, "eps_list": [0.01]}),
    ],
    ids=("n_jumps", "max_iter", "mesh-n"),
)
def test_a_count_in_a_config_file_that_is_not_an_integer_is_config_error(
    tmp_path, capsys, command, config
):
    # n_jumps 2.5 died with a TypeError traceback, max_iter 2.5 meant no
    # budget, and mesh n 64.5 asked for 65.5 nodal values
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rc, out, err = run_cli(capsys, command, "--config", str(cfg_path), "--out", str(out_dir))
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "must be an integer" in err
    assert err.count("\n") == 1
    assert os.listdir(out_dir) == []


@pytest.mark.parametrize("command", ["sharp-min", "sweep-scaling"])
@pytest.mark.parametrize(
    "config",
    [{"eps_list": [True]}, {"weights": {"alpha": True, "beta": 1}}],
    ids=("eps-true", "alpha-true"),
)
def test_a_bool_in_a_config_file_is_config_error(tmp_path, capsys, command, config):
    # eps true solved at eps = 1, and alpha true ran as 1 and was written
    # back as "alpha": true; both exited 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    rc, out, err = run_cli(capsys, command, "--config", str(cfg_path), "--out", str(out_dir))
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "must be a real number, got True" in err
    assert not out_dir.exists()


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
    # the child interpreter imports the same package this test imported
    src = os.path.dirname(os.path.dirname(mspl.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "mspl.cli", "preset", "muller"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    cfg = json.loads(proc.stdout)
    assert cfg["weights"] == {"alpha": 0.0, "beta": 0.0}
