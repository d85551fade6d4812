"""Cell problem, window functional, and period statistics."""

import numpy as np
import pytest
from scipy.integrate import quad

from mspl import (
    CellDensityParams,
    DiffuseField,
    GradedMesh,
    InvalidConfig,
    InvalidPeriod,
    InvalidSample,
    SawtoothProfile,
    TooFewOscillations,
    WeightParams,
    WindowOutOfDomain,
    A0_constant,
    build_smoothed,
    cell_density,
    evaluate_diffuse,
    extract_period,
    minimize_cell,
    optimal_period,
    period_law_constant,
    predicted_period,
    sawtooth,
    window_functional,
)
from mspl.asymptotics import period_law_profile


# ---------------------------------------------------------------------------
# reference sawtooth
# ---------------------------------------------------------------------------


def test_sawtooth_point_values():
    h = 0.8
    assert sawtooth(0.0, h) == pytest.approx(-h / 4.0, abs=1e-15)
    assert sawtooth(h / 2.0, h) == pytest.approx(h / 4.0, abs=1e-15)
    got = sawtooth(np.array([0.0, 1.0, 2.0, -1.0]), 4.0)
    assert got == pytest.approx([-1.0, 0.0, 1.0, 0.0], abs=1e-15)


def test_sawtooth_mean_zero_and_periodic():
    rng = np.random.default_rng(5)
    for _ in range(10):
        h = float(rng.uniform(0.05, 3.0))
        val, _ = quad(lambda t: sawtooth(t, h), -h / 2.0, h / 2.0)
        assert abs(val) <= 1e-12 * h
        t = rng.uniform(-5.0, 5.0, size=64)
        assert sawtooth(t + h, h) == pytest.approx(sawtooth(t, h), abs=1e-12)


def test_sawtooth_unit_slopes():
    h = 0.3
    t = np.linspace(-1.0, 1.0, 20001)
    d = np.diff(sawtooth(t, h)) / np.diff(t)
    # away from the corners every difference quotient is exactly +-1
    interior = np.abs(np.abs(d) - 1.0) < 1e-9
    assert np.mean(interior) > 0.995


def test_sawtooth_rejects_bad_period():
    with pytest.raises(InvalidPeriod):
        sawtooth(0.1, 0.0)
    with pytest.raises(InvalidPeriod):
        sawtooth(0.1, -2.0)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_transition_constant_quadrature_vs_closed_form():
    # sqrt(W) = (1 - x^2)/2 on [-1, 1], so the constant is 2*(2/3)/... = 4/3
    assert A0_constant() == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_period_law_constant_is_four():
    assert period_law_constant() == pytest.approx(4.0, abs=1e-12)


# ---------------------------------------------------------------------------
# cell density and its minimization
# ---------------------------------------------------------------------------


def test_cell_density_unit_coefficients():
    c = CellDensityParams(1.0, 1.0)
    assert cell_density(2.0, 0.0, c) == pytest.approx(1.0, rel=1e-14)


def test_cell_density_offset_term_is_exact():
    c = CellDensityParams(0.7, 2.3)
    for p in (0.1, -0.4, 1.7):
        got = cell_density(1.3, p, c) - cell_density(1.3, 0.0, c)
        assert got == pytest.approx(c.b_s * p * p, rel=1e-13)


def test_cell_density_convex_in_offset():
    c = CellDensityParams(1.2, 0.8)
    base = cell_density(1.0, 0.0, c)
    for p in np.linspace(-2.0, 2.0, 41):
        val = cell_density(1.0, float(p), c)
        if p == 0.0:
            assert val == base
        else:
            assert val > base


def test_cell_density_validation():
    with pytest.raises(InvalidPeriod):
        cell_density(0.0, 0.0, CellDensityParams(1.0, 1.0))
    with pytest.raises(InvalidConfig):
        CellDensityParams(-1.0, 1.0)
    with pytest.raises(InvalidSample):
        CellDensityParams.from_location(0.0, WeightParams(0.0, 0.0))


def test_minimize_cell_unit_case():
    res = minimize_cell(CellDensityParams(1.0, 1.0))
    assert res.period == pytest.approx(4.0, rel=1e-8)
    assert res.spacing == pytest.approx(2.0, rel=1e-8)
    assert res.density == pytest.approx(1.0, rel=1e-10)


def test_minimize_cell_weighted_locations():
    w = WeightParams(0.5, 1.0)
    res1 = minimize_cell(CellDensityParams.from_location(1.0 - 1e-12, w))
    assert res1.period == pytest.approx(4.0, rel=1e-6)
    res2 = minimize_cell(CellDensityParams.from_location(0.5, w))
    assert res2.period == pytest.approx(4.0 * 0.5 ** (5.0 / 12.0), rel=1e-8)


def test_minimize_cell_matches_closed_form_randomly():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 25:
        alpha = float(rng.uniform(0.05, 2.0))
        beta = float(rng.uniform(0.05, 2.5))
        w = WeightParams(alpha, beta)
        if not w.limit_ok:
            continue
        s = float(rng.uniform(0.05, 0.95))
        c = CellDensityParams.from_location(s, w)
        res = minimize_cell(c)
        want = optimal_period(c)
        assert abs(res.period - want) / want <= 1e-8
        assert want == pytest.approx(predicted_period(s, 1.0, w), rel=1e-12)
        checked += 1


# ---------------------------------------------------------------------------
# window functional
# ---------------------------------------------------------------------------


def test_window_constant_data_gives_well_floor():
    eps = 1e-3
    got = window_functional(np.zeros(257), 0.5, eps, WeightParams(0.0, 0.0), 2.0)
    assert got == pytest.approx(0.25 * eps ** (-2.0 / 3.0), rel=1e-12)


def test_window_blowup_preserves_slopes():
    # x(t) = eps^{-1/3} u(s + eps^{1/3} t) has x'(t) = u'(s + eps^{1/3} t)
    eps, s, r = 1e-3, 0.5, 1.5
    lam = eps ** (1.0 / 3.0)
    t = np.linspace(-r, r, 401)
    u = lambda y: np.sin(3.0 * y)
    x = u(s + lam * t) / lam
    slopes = np.diff(x) / np.diff(t)
    mid = s + lam * 0.5 * (t[:-1] + t[1:])
    assert np.max(np.abs(slopes - 3.0 * np.cos(3.0 * mid))) < 1e-3


def test_window_average_consistency():
    # integrating the window functional over interior s recovers the
    # rescaled total energy within a few percent (boundary strips carry
    # almost no energy for this profile and are left out)
    eps = 1e-3
    w = WeightParams(0.0, 0.0)
    mesh = GradedMesh(2048, 1.0)
    t = mesh.nodes
    u_field = DiffuseField(mesh, np.sin(np.pi * t) / np.pi)
    target = eps ** (-2.0 / 3.0) * evaluate_diffuse(u_field, eps, w).total

    lam = eps ** (1.0 / 3.0)
    r = 1.0
    s_grid = np.linspace(lam * r + 0.005, 1.0 - lam * r - 0.005, 60)
    vals = []
    for s in s_grid:
        tt = np.linspace(-r, r, 513)
        x = np.sin(np.pi * (s + lam * tt)) / (np.pi * lam)
        vals.append(window_functional(x, float(s), eps, w, r))
    assert np.trapezoid(vals, s_grid) == pytest.approx(target, rel=0.05)


def test_window_domain_guard():
    with pytest.raises(WindowOutOfDomain):
        window_functional(np.zeros(65), 0.05, 1e-3, WeightParams(0.0, 0.0), 2.0)
    with pytest.raises(InvalidSample):
        window_functional(np.zeros(3), 0.5, 1e-3, WeightParams(0.0, 0.0), 1.0)


# ---------------------------------------------------------------------------
# period prediction and measurement
# ---------------------------------------------------------------------------


def test_predicted_period_flat_without_weights():
    w = WeightParams(0.0, 0.0)
    eps = 1e-4
    vals = [predicted_period(s, eps, w) for s in (0.2, 0.5, 0.9)]
    assert vals == pytest.approx([4.0 * eps ** (1.0 / 3.0)] * 3, rel=1e-14)


def test_extract_period_uniform_jumps():
    p = SawtoothProfile(tuple(k / 10.0 for k in range(1, 10)))
    est = extract_period(p, 0.5, 0.25, eps=1e-3, weights=WeightParams(0.0, 0.0))
    assert est.h_emp == pytest.approx(0.2, rel=1e-12)
    assert est.n_teeth == 5


def test_extract_period_from_smoothed_field():
    # slope zero-crossings of the rounded sawtooth sit at the old corners
    mesh = GradedMesh(4096, 1.0)
    p = SawtoothProfile(tuple(k / 10.0 for k in range(1, 10)))
    fld = build_smoothed(p, 0.01, mesh)
    est = extract_period(fld, 0.5, 0.35, eps=1e-3, weights=WeightParams(0.0, 0.0))
    assert est.h_emp == pytest.approx(0.2, rel=1e-2)


def test_extract_period_trimmed_mean_matches_scipy():
    from scipy.stats import trim_mean

    rng = np.random.default_rng(7)
    for size in range(4, 64):
        jumps = np.sort(rng.uniform(0.01, 0.99, size))
        p = SawtoothProfile(tuple(float(z) for z in jumps))
        est = extract_period(p, 0.5, 1.0, eps=1e-3, weights=WeightParams(0.0, 0.0))
        want = 2.0 * trim_mean(np.diff(jumps), 0.1)
        assert est.h_emp == pytest.approx(want, rel=1e-14, abs=0.0)


def test_extract_period_needs_oscillations():
    p = SawtoothProfile((0.48, 0.52))
    with pytest.raises(TooFewOscillations):
        extract_period(p, 0.5, 0.1, eps=1e-3, weights=WeightParams(0.0, 0.0))
    with pytest.raises(InvalidSample):
        extract_period(p, 1.2, 0.1, eps=1e-3, weights=WeightParams(0.0, 0.0))
    with pytest.raises(InvalidSample):
        extract_period("nonsense", 0.5, 0.1, eps=1e-3, weights=WeightParams(0.0, 0.0))


def test_exact_sawtooth_window_recovers_period():
    # sample the reference wave on a window and measure it back
    h = 0.04
    mesh = GradedMesh(8192, 1.0)
    t = mesh.nodes
    vals = sawtooth(t - 0.5, h) + h / 4.0
    vals[0] = vals[-1] = 0.0
    fld = DiffuseField(mesh, vals)
    est = extract_period(fld, 0.5, 0.2, eps=1e-3, weights=WeightParams(0.0, 0.0))
    assert est.h_emp == pytest.approx(h, rel=1e-2)


def test_period_law_profile_is_admissible():
    w = WeightParams(0.5, 1.0)
    p = period_law_profile(1e-4, w)
    assert abs(p.boundary_value) <= 1e-12
    # locally the spacing tracks the predicted half-period
    zs = np.asarray(p.jumps)
    mids = 0.5 * (zs[1:] + zs[:-1])
    gaps = np.diff(zs)
    pred = np.array([predicted_period(float(s), 1e-4, w) / 2.0 for s in mids])
    ratio = gaps / pred
    core = ratio[(mids > 0.1) & (mids < 0.9)]
    assert np.all((core > 0.4) & (core < 1.3))


def test_period_law_profile_rejects_divergent_exponent():
    with pytest.raises(InvalidConfig):
        period_law_profile(1e-4, WeightParams(2.0, 2.5))  # exponent 7/6 >= 1
