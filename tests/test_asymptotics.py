"""Cell problem, period laws, and period statistics."""

import numpy as np
import pytest

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
    A0_constant,
    build_smoothed,
    cell_density,
    extract_period,
    minimize_cell,
    optimal_period,
    period_law_constant,
    optimize_sharp,
    predicted_period,
    sharp_period,
)
from mspl.sharp import jump_count_estimate


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


def test_minimize_cell_spans_the_double_range():
    # minimizers near 4e-150 and 4e150, where a bracket grown from
    # [1e-3, 1] in 60 doublings never reaches
    for a, b in ((1e-300, 1e300), (1e300, 1e-300)):
        c = CellDensityParams(a, b)
        want = 2.0 * (6.0 * A0_constant() * a**0.5) ** (1.0 / 3.0) / b ** (1.0 / 3.0)
        assert optimal_period(c) == pytest.approx(want, rel=1e-14)
        res = minimize_cell(c)
        assert abs(res.period - want) <= 1e-8 * want
        assert res.spacing == 0.5 * res.period


# ---------------------------------------------------------------------------
# period prediction and measurement
# ---------------------------------------------------------------------------


def test_predicted_period_flat_without_weights():
    w = WeightParams(0.0, 0.0)
    eps = 1e-4
    vals = [predicted_period(s, eps, w) for s in (0.2, 0.5, 0.9)]
    assert vals == pytest.approx([4.0 * eps ** (1.0 / 3.0)] * 3, rel=1e-14)


def law_draws(n, seed):
    """(s, eps, w) over the weight regime, eps from 1e-10 to 1e-1."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        w = WeightParams(float(rng.uniform(0.0, 2.0)), float(rng.uniform(-1.0, 2.9)))
        yield float(rng.uniform(0.01, 0.99)), float(10.0 ** rng.uniform(-10.0, -1.0)), w


def test_predicted_period_is_the_sharp_law_at_the_surrogate():
    for s, eps, w in law_draws(500, 31):
        got = predicted_period(s, eps, w)
        law = eps ** (1.0 / 3.0) * 4.0 * s ** ((w.alpha + 2.0 * w.beta) / 6.0)
        cell = eps ** (1.0 / 3.0) * optimal_period(CellDensityParams.from_location(s, w))
        assert got == pytest.approx(law, rel=1e-14, abs=0.0)
        assert got == pytest.approx(cell, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("s", [-0.5, 0.0, 1.0, 1.5, float("nan")])
def test_the_period_laws_refuse_a_location_outside_the_interval(s):
    # s = -0.5 gave the complex (0.2804-0.1619j), and s = 0 a ZeroDivisionError
    w = WeightParams(0.5, 1.0)
    for law in (sharp_period, predicted_period):
        with pytest.raises(InvalidSample, match="interior"):
            law(s, 1e-3, w)


def test_sharp_period_is_the_start_counts_jump_density():
    # jump_count_estimate integrates (12 eps)**(-1/3) s**(-(alpha+beta)/3)
    for s, eps, w in law_draws(500, 37):
        density = (12.0 * eps) ** (-1.0 / 3.0) * s ** (-(w.alpha + w.beta) / 3.0)
        assert 2.0 / sharp_period(s, eps, w) == pytest.approx(density, rel=1e-14, abs=0.0)
    w = WeightParams(0.0, 0.0)
    assert jump_count_estimate(1e-6, w) == round(2.0 / sharp_period(0.5, 1e-6, w))


def test_extract_period_predicts_by_the_model_law():
    w, eps = WeightParams(0.5, 1.0), 1e-3
    p = SawtoothProfile(tuple(k / 10.0 for k in range(1, 10)))
    fld = build_smoothed(p, 0.01, GradedMesh(4096, 1.0))
    assert extract_period(p, 0.5, eps=eps, weights=w).h_pred == sharp_period(0.5, eps, w)
    assert extract_period(fld, 0.5, eps=eps, weights=w).h_pred == predicted_period(
        0.5, eps, w
    )


@pytest.mark.parametrize("alpha, beta", [(0.5, 1.0), (0.25, 0.5)])
def test_sharp_teeth_follow_the_sharp_law(alpha, beta):
    eps, w = 1e-6, WeightParams(alpha, beta)
    profile = optimize_sharp(eps, w).profile
    ratios = [extract_period(profile, s, eps=eps, weights=w).ratio for s in (0.3, 0.5, 0.8)]
    print(f"({alpha}, {beta}), eps {eps:g}: period ratios at s = 0.3, 0.5, 0.8:",
          [f"{r:.4f}" for r in ratios])
    for r in ratios:
        assert abs(r - 1.0) <= 1e-2


def test_extract_period_uniform_jumps():
    p = SawtoothProfile(tuple(k / 10.0 for k in range(1, 10)))
    est = extract_period(p, 0.5, eps=1e-3, weights=WeightParams(0.0, 0.0))
    assert est.h_emp == pytest.approx(0.2, rel=1e-12)
    assert est.n_teeth == 9


def test_extract_period_from_smoothed_field():
    # slope zero-crossings of the rounded sawtooth sit at the old corners
    mesh = GradedMesh(4096, 1.0)
    p = SawtoothProfile(tuple(k / 10.0 for k in range(1, 10)))
    fld = build_smoothed(p, 0.01, mesh)
    est = extract_period(fld, 0.5, eps=1e-3, weights=WeightParams(0.0, 0.0))
    assert est.h_emp == pytest.approx(0.2, rel=1e-2)


def test_extract_period_trimmed_mean_matches_scipy():
    from scipy.stats import trim_mean

    rng = np.random.default_rng(7)
    for size in range(4, 64):
        jumps = np.sort(rng.uniform(0.01, 0.99, size))
        p = SawtoothProfile(tuple(float(z) for z in jumps))
        est = extract_period(p, 0.5, eps=1e-3, weights=WeightParams(0.0, 0.0))
        want = 2.0 * trim_mean(np.diff(jumps), 0.1)
        assert est.h_emp == pytest.approx(want, rel=1e-14, abs=0.0)


def test_extract_period_needs_oscillations():
    p = SawtoothProfile((0.48, 0.52))
    with pytest.raises(TooFewOscillations):
        extract_period(p, 0.5, eps=1e-3, weights=WeightParams(0.0, 0.0))
    with pytest.raises(InvalidSample):
        extract_period(p, 1.2, eps=1e-3, weights=WeightParams(0.0, 0.0))
    with pytest.raises(InvalidSample):
        extract_period("nonsense", 0.5, eps=1e-3, weights=WeightParams(0.0, 0.0))


def test_exact_sawtooth_window_recovers_period():
    # sample an exact h-periodic wave with slopes +-1 and measure it back
    h = 0.04
    mesh = GradedMesh(8192, 1.0)
    t = mesh.nodes - 0.5
    vals = np.abs(t - h * np.ceil(t / h - 0.5))
    vals[0] = vals[-1] = 0.0
    fld = DiffuseField(mesh, vals)
    est = extract_period(fld, 0.5, eps=1e-3, weights=WeightParams(0.0, 0.0))
    assert est.h_emp == pytest.approx(h, rel=1e-2)
