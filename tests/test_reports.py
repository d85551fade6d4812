"""Report drivers: scaling fits, sweep/distribution/period tables, emission."""

import json

import numpy as np
import pytest

from mspl import (
    ExperimentConfig,
    GradedMesh,
    InsufficientData,
    InvalidConfig,
    InvalidSample,
    NonPositiveValue,
    SharpOptions,
    WeightParams,
    emit_distribution,
    emit_period,
    emit_sweep,
    fit_scaling,
    optimize_sharp,
    run_distribution_report,
    run_period_report,
    sweep_scaling,
)
from mspl.sharp import sharp_options
from mspl.sharp import _refine_jump_positions

SHARP3 = ExperimentConfig(eps_list=(1e-2, 3e-3, 1e-3), model="sharp")


# ---------------------------------------------------------------------------
# power-law fitting
# ---------------------------------------------------------------------------


def test_fit_exact_power_law():
    eps = np.geomspace(1e-5, 1e-2, 7)
    fit = fit_scaling(eps, 5.0 * eps ** (2.0 / 3.0))
    assert fit.slope == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(5.0), abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 7


def test_fit_linear_law():
    eps = np.geomspace(1e-4, 1e-1, 5)
    assert fit_scaling(eps, eps).slope == pytest.approx(1.0, abs=1e-12)


def test_fit_validation():
    with pytest.raises(InsufficientData):
        fit_scaling([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(InsufficientData):
        fit_scaling([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(NonPositiveValue):
        fit_scaling([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
    with pytest.raises(InsufficientData):
        fit_scaling([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]])


def test_a_fit_over_nan_ordinates_is_refused():
    # the fit was (nan, nan) with r_squared 1.0, and no warning
    with pytest.raises(NonPositiveValue, match="positive finite values"):
        fit_scaling([1e-3, 1e-2, 1e-1], [np.nan, np.nan, np.nan])


def test_a_fit_over_a_nan_abscissa_is_refused():
    # LAPACK printed an illegal-value message and numpy raised LinAlgError
    with pytest.raises(NonPositiveValue, match="positive finite values"):
        fit_scaling([1e-3, np.nan, 1e-1], [1.0, 2.0, 3.0])


def test_a_fit_over_an_infinite_ordinate_is_refused():
    # numpy warned, which the test configuration makes an error
    with pytest.raises(NonPositiveValue, match="positive finite values"):
        fit_scaling([1e-3, 1e-2, 1e-1], [1.0, np.inf, 3.0])


def test_a_fit_over_one_repeated_abscissa_is_refused():
    # the least-squares system is singular: numpy warned and raised LinAlgError
    with pytest.raises(InsufficientData, match="distinct"):
        fit_scaling([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------------


def test_sweep_rows_sorted_and_fitted():
    rep = sweep_scaling(SHARP3)
    eps_col = [r["eps"] for r in rep.rows]
    assert eps_col == sorted(eps_col)
    assert all(r["model"] == "sharp" for r in rep.rows)
    assert np.isnan(rep.rows[0]["slope_running"])
    assert all(np.isfinite(r["slope_running"]) for r in rep.rows[1:])
    fit = rep.fits["sharp"]
    assert 0.55 <= fit.slope <= 0.8
    assert fit.n_points == 3
    # totals decompose into the emitted components
    for r in rep.rows:
        assert r["energy_total"] == pytest.approx(
            r["energy_surface"] + r["energy_well"] + r["energy_bulk"], rel=1e-12
        )


def test_sweep_both_models():
    cfg = ExperimentConfig(
        eps_list=(3e-3, 1e-3, 3e-4),
        model="both",
        mesh=GradedMesh(512, 1.0),
        max_iter=400,
    )
    rep = sweep_scaling(cfg)
    assert {r["model"] for r in rep.rows} == {"sharp", "diffuse"}
    assert set(rep.fits) == {"sharp", "diffuse"}
    # diffuse rows carry a well component, sharp rows do not
    for r in rep.rows:
        if r["model"] == "sharp":
            assert r["energy_well"] == 0.0


def test_an_unconverged_sharp_row_is_not_labelled_budget_exhaustion():
    # count 44 collapses at this eps, so the row scores the count's start
    # layout: unconverged, without having used up any iteration budget
    w = WeightParams(0.5, 1.0)
    assert _refine_jump_positions([44], 1e-5, w, 500)[1].tolist() == [0]
    cfg = ExperimentConfig(eps_list=(1e-5,), model="sharp", weights=w, n_jumps=44)
    rep = sweep_scaling(cfg)
    (row,) = rep.rows
    assert row["n_jumps"] == 44
    assert not row["converged"]
    assert row["status"] == "unconverged"
    assert rep.flagged == [{"eps": 1e-5, "model": "sharp", "status": "unconverged"}]


# ---------------------------------------------------------------------------
# distribution driver
# ---------------------------------------------------------------------------


def test_distribution_report_shape():
    cfg = ExperimentConfig(eps_list=(1e-3,))
    rep = run_distribution_report(cfg)
    assert rep.eps == 1e-3
    assert len(rep.rows) == 48
    xs = [r["x"] for r in rep.rows]
    assert xs == sorted(xs)
    assert xs[-1] == 1.0
    # sub-threshold rows are flagged, never dropped
    assert any(r["flag_below_threshold"] for r in rep.rows)
    assert all(r["ratio"] > 0.0 for r in rep.rows)
    assert rep.spread is not None and rep.spread >= 1.0


def test_distribution_endpoint_matches_total_energy():
    cfg = ExperimentConfig(eps_list=(1e-3,))
    rep = run_distribution_report(cfg)
    last = rep.rows[-1]
    total = optimize_sharp(1e-3, cfg.weights).energy.total
    assert last["phi"] == pytest.approx(total, rel=1e-12)
    assert last["ratio"] == pytest.approx(total / 1e-3 ** (2.0 / 3.0), rel=1e-12)


def test_distribution_report_honours_jump_count_and_budget():
    cfg = ExperimentConfig(eps_list=(1e-3,), n_jumps=3, max_iter=5)
    rep = run_distribution_report(cfg)
    opts = SharpOptions(n_jumps=3, max_iter=5)
    total = optimize_sharp(1e-3, cfg.weights, opts).energy.total
    assert rep.rows[-1]["phi"] == pytest.approx(total, rel=1e-12)
    assert total > optimize_sharp(1e-3, cfg.weights).energy.total


def test_sharp_options_carry_the_shared_budget():
    # the shared budget defaults to 500, the sharp default too, and
    # reaches the sharp solves uncapped
    assert sharp_options(ExperimentConfig()).max_iter == SharpOptions().max_iter == 500
    cfg = ExperimentConfig(max_iter=2000, n_jumps=7)
    assert sharp_options(cfg) == SharpOptions(n_jumps=7, max_iter=2000)


def test_distribution_warns_outside_hypothesis():
    # the report warns about its own hypothesis, 2 alpha >= beta, alone:
    # (0, 1) is outside the period law's too, which it does not use
    def warnings(alpha, beta):
        cfg = ExperimentConfig(weights=WeightParams(alpha, beta), eps_list=(1e-3,))
        return run_distribution_report(cfg).warnings

    assert warnings(0.0, 1.0) == ["2*alpha=0 < beta=1: energy distribution bound not guaranteed"]
    assert warnings(0.5, 1.0) == []


# ---------------------------------------------------------------------------
# period driver
# ---------------------------------------------------------------------------


def test_period_report_sharp_near_constant_weights():
    # weights near zero: the sharp law is nearly s-independent and the
    # teeth nearly uniform
    cfg = ExperimentConfig(weights=WeightParams(0.05, 0.05), eps_list=(1e-4,))
    rep = run_period_report(cfg, [0.3, 0.5, 0.8])
    rows = rep.rows_by_model["sharp"]
    assert [r["s"] for r in rows] == [0.3, 0.5, 0.8]
    print("sharp period ratios:", [round(r["ratio"], 4) for r in rows])
    for r in rows:
        assert r["ratio"] == pytest.approx(1.0, abs=0.05)
    assert not rep.warnings


def test_period_report_input_validation():
    cfg = ExperimentConfig(weights=WeightParams(0.5, 1.0), eps_list=(1e-4,))
    with pytest.raises(InvalidSample):
        run_period_report(cfg, [])
    with pytest.raises(InvalidSample):
        run_period_report(cfg, [0.5, 1.0])
    bad = ExperimentConfig(weights=WeightParams(0.0, 0.0), eps_list=(1e-4,))
    with pytest.raises(InvalidConfig):
        run_period_report(bad, [0.5])  # limit hypotheses fail at alpha=beta=0


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def test_sweep_emission_files_and_headers(tmp_path):
    rep = sweep_scaling(SHARP3)
    files = emit_sweep(rep, str(tmp_path))
    names = sorted(f.rsplit("/", 1)[-1] for f in files)
    assert names == ["sweep_scaling.csv", "sweep_scaling.json"]
    csv_lines = (tmp_path / "sweep_scaling.csv").read_text().splitlines()
    assert csv_lines[0] == (
        "eps,model,energy_total,energy_surface,energy_well,"
        "energy_bulk,n_jumps,slope_running"
    )
    assert len(csv_lines) == 1 + len(rep.rows)
    payload = json.loads((tmp_path / "sweep_scaling.json").read_text())
    assert payload["kind"] == "sweep-scaling"
    assert payload["params"]["weights"] == {"alpha": 0.0, "beta": 0.0}
    assert payload["params"]["mesh"] == {"n": 4096, "q": 2.0}


def test_csv_and_json_values_agree(tmp_path):
    rep = sweep_scaling(SHARP3)
    emit_sweep(rep, str(tmp_path))
    csv_lines = (tmp_path / "sweep_scaling.csv").read_text().splitlines()
    payload = json.loads((tmp_path / "sweep_scaling.json").read_text())
    header = csv_lines[0].split(",")
    for line, jrow in zip(csv_lines[1:], payload["rows"]):
        cells = line.split(",")
        for col, cell in zip(header, cells):
            want = jrow[col]
            if col == "model":
                assert cell == want
            elif cell == "nan":
                assert not np.isfinite(want) or want is None
            else:
                assert float(cell) == want


def test_emission_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    emit_sweep(sweep_scaling(SHARP3), str(a))
    emit_sweep(sweep_scaling(SHARP3), str(b))
    for name in ("sweep_scaling.csv", "sweep_scaling.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_distribution_and_period_emission(tmp_path):
    cfg = ExperimentConfig(eps_list=(1e-3,))
    files = emit_distribution(run_distribution_report(cfg), str(tmp_path))
    assert sorted(f.rsplit("/", 1)[-1] for f in files) == [
        "energy_profile.csv",
        "energy_profile.json",
    ]
    lines = (tmp_path / "energy_profile.csv").read_text().splitlines()
    assert lines[0] == "x,phi,ratio,flag_below_threshold"

    pcfg = ExperimentConfig(weights=WeightParams(0.05, 0.05), eps_list=(1e-4,))
    files = emit_period(run_period_report(pcfg, [0.3, 0.5, 0.8]), str(tmp_path))
    assert sorted(f.rsplit("/", 1)[-1] for f in files) == [
        "period_check_sharp.csv",
        "period_check_sharp.json",
    ]
    lines = (tmp_path / "period_check_sharp.csv").read_text().splitlines()
    assert lines[0] == "s,h_emp,h_pred,ratio,n_teeth"
    assert len(lines) == 4


def test_svg_emitted_when_plotting(tmp_path):
    cfg = ExperimentConfig(eps_list=(1e-2, 3e-3, 1e-3), plot=True)
    files = emit_sweep(sweep_scaling(cfg), str(tmp_path))
    assert any(f.endswith("sweep_scaling.svg") for f in files)
    svg = (tmp_path / "sweep_scaling.svg").read_text()
    assert svg.lstrip().startswith("<svg") and svg.rstrip().endswith("</svg>")
