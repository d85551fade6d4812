"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints its measured numbers, so `pytest -v` gives one
pass/fail line per criterion and `-rA` shows the evidence.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from mspl import (
    CellDensityParams,
    DiffuseField,
    ExperimentConfig,
    GradedMesh,
    SawtoothProfile,
    TooFewOscillations,
    WeightParams,
    A0_constant,
    amplitude_envelope_ratio,
    build_smoothed,
    evaluate_diffuse,
    extract_period,
    fit_scaling,
    gradient_diffuse,
    minimize_cell,
    minimize_diffuse,
    minimize_with_restarts,
    optimal_period,
    optimize_sharp,
    run_distribution_report,
    smoothed_graded_init,
)
from mspl.core import weighted_square_integrals

EPS_SWEEP = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5)


@pytest.fixture(scope="session")
def weighted_sharp_sweep():
    """Sharp minimizers at alpha=1/2, beta=1 over the full eps ladder;
    shared between the weighted-scaling and amplitude-bound criteria."""
    w = WeightParams(0.5, 1.0)
    t0 = time.perf_counter()
    results = [(eps, optimize_sharp(eps, w)) for eps in EPS_SWEEP]
    elapsed = time.perf_counter() - t0
    return results, elapsed


def test_criterion_1_sharp_scaling_unweighted():
    t0 = time.perf_counter()
    w = WeightParams(0.0, 0.0)
    totals = [optimize_sharp(eps, w).energy.total for eps in EPS_SWEEP]
    fit = fit_scaling(EPS_SWEEP, totals)
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 1: slope={fit.slope:.4f} (band [0.63, 0.70]),"
        f" r2={fit.r_squared:.6f}, {elapsed:.1f}s"
    )
    assert 0.63 <= fit.slope <= 0.70
    assert fit.r_squared >= 0.999
    assert elapsed <= 120.0


def test_criterion_2_sharp_scaling_weighted(weighted_sharp_sweep):
    results, elapsed = weighted_sharp_sweep
    fit = fit_scaling([e for e, _ in results], [r.energy.total for _, r in results])
    print(
        f"criterion 2: slope={fit.slope:.4f} (band [0.61, 0.72]),"
        f" r2={fit.r_squared:.6f}, sweep took {elapsed:.1f}s"
    )
    assert 0.61 <= fit.slope <= 0.72
    assert elapsed <= 300.0


def test_criterion_3_diffuse_scaling():
    t0 = time.perf_counter()
    w = WeightParams(0.0, 0.0)
    mesh = GradedMesh(4096, 1.0)
    eps_list = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
    totals = []
    for eps in eps_list:
        init = smoothed_graded_init(eps, w, mesh)  # mu defaults to eps
        init_total = evaluate_diffuse(init, eps, w).total
        res = minimize_diffuse(init, eps, w, max_iter=2500)
        assert res.energy.total <= init_total, f"ascent at eps={eps:g}"
        totals.append(res.energy.total)
    fit = fit_scaling(eps_list, totals)
    elapsed = time.perf_counter() - t0
    ratios = [t / e ** (2.0 / 3.0) for e, t in zip(eps_list, totals)]
    print(
        f"criterion 3: slope={fit.slope:.4f} (band [0.60, 0.73]),"
        f" ratios={[round(r, 3) for r in ratios]}, {elapsed:.1f}s"
    )
    assert 0.60 <= fit.slope <= 0.73
    assert elapsed <= 900.0


def test_criterion_4_optimal_transition_width():
    eps = 1e-3
    w = WeightParams(0.0, 0.0)
    mesh = GradedMesh(16384, 1.0)
    profile = optimize_sharp(eps, w).profile
    mus = [eps / 4.0, eps / 2.0, eps, 2.0 * eps, 4.0 * eps]
    energies = [
        evaluate_diffuse(build_smoothed(profile, mu, mesh), eps, w).total
        for mu in mus
    ]
    best = mus[int(np.argmin(energies))]
    print(f"criterion 4: argmin mu = {best / eps:g} * eps (allowed 1/2, 1, 2)")
    assert best in (eps / 2.0, eps, 2.0 * eps)


def test_criterion_5_uniform_energy_distribution():
    eps = 1e-4
    spreads = {}
    for alpha, beta in ((0.0, 0.0), (1.0, 1.0)):
        cfg = ExperimentConfig(weights=WeightParams(alpha, beta), eps_list=(eps,))
        rep = run_distribution_report(cfg)
        spreads[(alpha, beta)] = rep.spread
    print(f"criterion 5: ratio spreads {spreads} (limit 3)")
    for key, spread in spreads.items():
        assert spread is not None and spread <= 3.0, f"weights {key}"


def test_criterion_6_cell_problem():
    closed = 2.0 * quad(lambda x: (1.0 - x * x) / 2.0, -1.0, 1.0)[0]
    assert abs(A0_constant() - closed) <= 1e-12
    assert abs(A0_constant() - 4.0 / 3.0) <= 1e-12

    unit = minimize_cell(CellDensityParams(1.0, 1.0))
    assert abs(unit.period - 4.0) <= 1e-8 * 4.0
    assert abs(unit.density - 1.0) <= 1e-8

    rng = np.random.default_rng(0)
    worst = 0.0
    checked = 0
    while checked < 100:
        w = WeightParams(float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.05, 2.5)))
        if not w.limit_ok:
            continue
        s = float(rng.uniform(0.05, 0.95))
        c = CellDensityParams.from_location(s, w)
        res = minimize_cell(c)
        want = optimal_period(c)
        worst = max(worst, abs(res.period - want) / want)
        checked += 1
    print(f"criterion 6: worst period error over 100 draws = {worst:.2e} (limit 1e-8)")
    assert worst <= 1e-8


def test_criterion_7_period_law():
    t0 = time.perf_counter()
    eps = 1e-4
    w = WeightParams(0.5, 1.0)
    mesh = GradedMesh(8192, 2.0)
    best, rows = minimize_with_restarts(eps, w, mesh)
    counts = [r["n_jumps"] for r in rows]
    winner = next(r["n_jumps"] for r in rows if r["final_total"] == best.energy.total)
    locations = (0.3, 0.5, 0.8)
    try:
        ests = [extract_period(best.field, s, eps=eps, weights=w) for s in locations]
        source = "diffuse"
    except TooFewOscillations:
        profile = optimize_sharp(eps, w).profile
        ests = [extract_period(profile, s, eps=eps, weights=w) for s in locations]
        source = "sharp fallback"
    ratios = [est.ratio for est in ests]
    fit = fit_scaling([est.s for est in ests], [est.h_emp for est in ests])
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 7 ({source}): ratios={[round(r, 4) for r in ratios]}"
        f" (band [0.75, 1.35]), slope={fit.slope:.4f}"
        f" (target 5/12={5 / 12:.4f} +- 0.1), counts {counts} won by {winner},"
        f" {elapsed:.1f}s"
    )
    for s, r in zip(locations, ratios):
        assert 0.75 <= r <= 1.35, f"ratio at s={s}"
    assert abs(fit.slope - 5.0 / 12.0) <= 0.1
    assert elapsed <= 1200.0


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(101)
    worst_seg = 0.0
    for _ in range(1000):
        t0 = float(rng.uniform(1e-3, 0.8))
        t1 = t0 + float(rng.uniform(1e-3, 1.0 - t0))
        u0 = float(rng.uniform(-1.0, 1.0))
        slope = float(rng.uniform(-2.0, 2.0))
        beta = float(rng.uniform(-1.0, 2.8))
        got = float(weighted_square_integrals(t0, t1, u0, slope, beta)[0])
        want, _ = quad(
            lambda t: t ** (-beta) * (u0 + slope * (t - t0)) ** 2,
            t0, t1, epsabs=1e-14, epsrel=1e-13, limit=200,
        )
        if want != 0.0:
            worst_seg = max(worst_seg, abs(got - want) / abs(want))

    worst_grad = 0.0
    mesh = GradedMesh(64, 1.0)
    w = WeightParams(0.5, 1.0)
    for _ in range(20):
        vals = 0.4 * rng.standard_normal(65)
        vals[0] = vals[-1] = 0.0
        fld = DiffuseField(mesh, vals)
        grad = gradient_diffuse(fld, 1e-3, w)
        scale = float(np.max(np.abs(vals)))
        h = 1e-6 * scale
        gmax = float(np.max(np.abs(grad)))
        for i in range(1, 64, 5):
            vp, vm = vals.copy(), vals.copy()
            vp[i] += h
            vm[i] -= h
            fd = (
                evaluate_diffuse(DiffuseField(mesh, vp), 1e-3, w).total
                - evaluate_diffuse(DiffuseField(mesh, vm), 1e-3, w).total
            ) / (2.0 * h)
            worst_grad = max(worst_grad, abs(grad[i - 1] - fd) / max(abs(fd), gmax))
    print(
        f"criterion 8: segment oracle worst={worst_seg:.2e} (limit 1e-10),"
        f" gradient oracle worst={worst_grad:.2e} (limit 1e-6)"
    )
    assert worst_seg <= 1e-10
    assert worst_grad <= 1e-6


def test_criterion_9_amplitude_bound(weighted_sharp_sweep):
    results, _ = weighted_sharp_sweep
    w = WeightParams(0.5, 1.0)
    ratios = {
        eps: amplitude_envelope_ratio(res.profile, eps, w.beta)
        for eps, res in results
        if eps <= 1e-3
    }
    factor = max(ratios.values()) / min(ratios.values())
    shown = {k: round(v, 3) for k, v in ratios.items()}
    print(f"criterion 9: envelope ratios {shown}, spread factor {factor:.3f} (limit 2)")
    assert factor <= 2.0
