"""Sawtooth construction, exact evaluation, and the jump-count optimizer."""

import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from mspl import (
    GradedSpacingConfig,
    InvalidConfig,
    InvalidProfile,
    InvalidSample,
    SawtoothProfile,
    SharpOptions,
    UnclampedProfile,
    WeightParams,
    amplitude_envelope_ratio,
    build_graded_profile,
    cumulative_energy,
    evaluate_sharp,
    optimize_sharp,
    rescaled_min_energy,
)
from mspl.sharp import _gap_energy_and_grad, close_profile, default_gamma


def bulk_quad(profile, beta):
    """Adaptive-quadrature oracle for the t^{-beta} u^2 term."""
    bp = profile.breakpoints
    total = 0.0
    for a, b in zip(bp[:-1], bp[1:]):
        val, err = quad(
            lambda t: t ** (-beta) * profile.evaluate(t) ** 2,
            a, b, limit=400, epsabs=1e-13, epsrel=1e-12,
        )
        total += val
    return total


def random_clamped_profile(rng, n_lo=1, n_hi=12):
    n = rng.integers(n_lo, n_hi + 1)
    zs = np.sort(rng.uniform(0.02, 0.98, size=n))
    zs = zs[np.concatenate(([True], np.diff(zs) > 1e-3))]
    raw = SawtoothProfile(tuple(float(z) for z in zs))
    return close_profile(raw)


# ---------------------------------------------------------------------------
# graded construction
# ---------------------------------------------------------------------------


def test_graded_uniform_gaps():
    p = build_graded_profile(GradedSpacingConfig(gamma=0.0, n=3))
    assert p.jumps == pytest.approx((0.25, 0.5, 0.75), abs=1e-15)
    assert p.boundary_value == 0.0


def test_graded_linear_gaps():
    # raw grading: gaps proportional to (1, 2, 3)/6
    raw = build_graded_profile(GradedSpacingConfig(gamma=1.0, n=2), clamp=False)
    assert raw.jumps == pytest.approx((1.0 / 6.0, 0.5), abs=1e-15)
    # default construction closes the boundary with one extra jump
    closed = build_graded_profile(GradedSpacingConfig(gamma=1.0, n=2))
    assert closed.jumps[:2] == pytest.approx((1.0 / 6.0, 0.5), abs=1e-15)
    assert abs(closed.boundary_value) <= 1e-12


def test_graded_gaps_increase_for_positive_gamma():
    p = build_graded_profile(GradedSpacingConfig(gamma=1.0, n=6), clamp=False)
    gaps = np.diff(np.concatenate(([0.0], p.jumps, [1.0])))
    assert np.all(np.diff(gaps) > 0.0)


def test_graded_validation():
    with pytest.raises(InvalidConfig):
        GradedSpacingConfig(gamma=-1.0, n=3)
    with pytest.raises(InvalidConfig):
        GradedSpacingConfig(gamma=0.5, n=0)


def test_closure_always_lands_on_zero():
    rng = np.random.default_rng(42)
    for _ in range(50):
        p = random_clamped_profile(rng)
        assert abs(p.boundary_value) <= 1e-12


def test_profile_validation():
    with pytest.raises(InvalidProfile):
        SawtoothProfile((0.5, 0.25))  # not increasing
    with pytest.raises(InvalidProfile):
        SawtoothProfile((0.0, 0.5))  # touches the boundary
    with pytest.raises(InvalidProfile):
        SawtoothProfile((0.5,), initial_slope=2)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_single_tooth_energy():
    p = SawtoothProfile((0.5,))
    res = evaluate_sharp(p, 0.01, WeightParams(0.0, 0.0))
    assert res.surface == pytest.approx(0.02, rel=1e-14)
    assert res.bulk == pytest.approx(1.0 / 12.0, rel=1e-13)
    assert res.total == pytest.approx(0.02 + 1.0 / 12.0, rel=1e-13)
    assert res.well == 0.0


def test_single_tooth_weighted_surface():
    p = SawtoothProfile((0.5,))
    res = evaluate_sharp(p, 1.0, WeightParams(1.0, 0.0))
    assert res.surface == pytest.approx(1.0, rel=1e-14)


def test_unclamped_rejected():
    # no jumps at all: u(t) = t never returns to zero
    p = SawtoothProfile(())
    assert p.boundary_value == 1.0
    with pytest.raises(UnclampedProfile):
        evaluate_sharp(p, 0.01, WeightParams(0.0, 0.0))
    # explicit opt-in evaluates the partial profile anyway
    res = evaluate_sharp(p, 0.01, WeightParams(0.0, 0.0), allow_unclamped=True)
    assert res.total == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_evaluation_matches_quadrature():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(25):
        p = random_clamped_profile(rng)
        beta = float(rng.uniform(-1.0, 2.5))
        w = WeightParams(float(rng.uniform(-0.5, 2.0)), beta)
        got = evaluate_sharp(p, 1e-3, w).bulk
        want = bulk_quad(p, beta)
        worst = max(worst, abs(got - want) / abs(want))
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_optimize_large_eps_prefers_single_tooth():
    # above eps = 1/32 one centered tooth beats two of them
    res = optimize_sharp(0.05, WeightParams(0.0, 0.0))
    assert res.profile.n_jumps == 1
    assert res.profile.jumps[0] == pytest.approx(0.5, abs=1e-6)
    assert res.energy.total == pytest.approx(2 * 0.05 + 1.0 / 12.0, rel=1e-10)


def test_optimal_count_follows_cube_root_law():
    w = WeightParams(0.0, 0.0)
    n_coarse = optimize_sharp(1e-2, w).profile.n_jumps
    n_fine = optimize_sharp(1.25e-3, w).profile.n_jumps
    # eps drops by 8, count should double (within rounding)
    assert n_fine / n_coarse == pytest.approx(2.0, abs=0.5)


def test_optimizer_symmetry_without_weights():
    res = optimize_sharp(1e-2, WeightParams(0.0, 0.0))
    zs = np.asarray(res.profile.jumps)
    assert np.max(np.abs(zs + zs[::-1] - 1.0)) <= 1e-6


def test_optimizer_beats_graded_initialization():
    for w in [WeightParams(0.0, 0.0), WeightParams(0.5, 1.0)]:
        eps = 2e-3
        res = optimize_sharp(eps, w)
        gamma = default_gamma(w.beta)
        best_graded = np.inf
        for n in range(1, 14):
            p = build_graded_profile(GradedSpacingConfig(gamma=gamma, n=n))
            best_graded = min(best_graded, evaluate_sharp(p, eps, w).total)
        assert res.energy.total <= best_graded + 1e-14


def test_optimizer_energy_decreases_with_eps():
    w = WeightParams(0.5, 1.0)
    totals = [optimize_sharp(e, w).energy.total for e in (1e-2, 1e-3, 1e-4)]
    assert totals[0] > totals[1] > totals[2]


# ---------------------------------------------------------------------------
# cumulative energy profile
# ---------------------------------------------------------------------------


def test_cumulative_reaches_total():
    p = SawtoothProfile((0.5,))
    w = WeightParams(0.0, 0.0)
    prof = cumulative_energy(p, 0.01, w, [1.0])
    assert prof.phis[-1] == pytest.approx(evaluate_sharp(p, 0.01, w).total, rel=1e-14)


def test_cumulative_counts_jump_at_sample_point():
    p = SawtoothProfile((0.5,))
    prof = cumulative_energy(p, 0.01, WeightParams(0.0, 0.0), [0.5])
    # the jump sits exactly at x and is included; bulk is int_0^1/2 t^2
    assert prof.phis[0] == pytest.approx(0.02 + 1.0 / 24.0, rel=1e-13)


def test_cumulative_below_first_jump():
    p = SawtoothProfile((0.5,))
    xs = [0.1, 0.25, 0.4]
    prof = cumulative_energy(p, 0.01, WeightParams(0.0, 0.0), xs)
    for x, phi in zip(xs, prof.phis):
        assert phi == pytest.approx(x**3 / 3.0, rel=1e-13)


def test_cumulative_monotone_on_random_profiles():
    rng = np.random.default_rng(11)
    xs = np.linspace(0.05, 1.0, 40)
    for w in [WeightParams(0.0, 0.0), WeightParams(0.5, 1.0)]:
        for _ in range(10):
            p = random_clamped_profile(rng)
            prof = cumulative_energy(p, 1e-3, w, xs)
            phis = np.asarray(prof.phis)
            assert np.all(np.diff(phis) >= -1e-15)
            assert np.all(phis >= 0.0)


def test_cumulative_slice_additivity():
    # phi(x2) - phi(x1) must equal the energy content of (x1, x2]
    p = SawtoothProfile((0.2, 0.45, 0.7, 0.95))
    w = WeightParams(0.5, 1.0)
    eps = 1e-3
    prof = cumulative_energy(p, eps, w, [0.3, 0.8])
    lo, hi = prof.phis
    jumps_in = [z for z in p.jumps if 0.3 < z <= 0.8]
    surf = 2.0 * eps * sum(z**w.alpha for z in jumps_in)
    bulk, _ = quad(
        lambda t: t ** (-w.beta) * p.evaluate(t) ** 2, 0.3, 0.8,
        points=list(jumps_in), limit=200,
    )
    assert hi - lo == pytest.approx(surf + bulk, rel=1e-9)


def test_cumulative_sample_validation():
    p = SawtoothProfile((0.5,))
    w = WeightParams(0.0, 0.0)
    with pytest.raises(InvalidSample):
        cumulative_energy(p, 0.01, w, [0.0, 0.5])
    with pytest.raises(InvalidSample):
        cumulative_energy(p, 0.01, w, [0.5, 1.5])
    with pytest.raises(InvalidSample):
        cumulative_energy(p, 0.01, w, [0.8, 0.2])


# ---------------------------------------------------------------------------
# rescaled minimum and amplitude envelope
# ---------------------------------------------------------------------------


def test_rescaled_identity_at_full_interval():
    w = WeightParams(0.0, 0.0)
    assert rescaled_min_energy(1.0, 1e-3, w) == pytest.approx(
        optimize_sharp(1e-3, w).energy.total, rel=1e-12
    )


def test_rescaled_scales_linearly_without_weights():
    # exponent (3 + 2a - b)/3 = 1 at a = b = 0
    w = WeightParams(0.0, 0.0)
    e1 = rescaled_min_energy(1.0, 1e-3, w)
    e_half = rescaled_min_energy(0.5, 1e-3, w)
    assert e_half / e1 == pytest.approx(0.5, rel=0.10)


def test_rescaled_exponent_fit_with_weights():
    w = WeightParams(0.5, 1.0)  # exponent (3 + 1 - 1)/3 = 1
    a_grid = np.array([0.4, 0.55, 0.7, 0.85, 1.0])
    es = np.array([rescaled_min_energy(a, 1e-3, w) for a in a_grid])
    slope = np.polyfit(np.log(a_grid), np.log(es), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.1)


def test_rescaled_rejects_bad_subinterval():
    with pytest.raises(InvalidSample):
        rescaled_min_energy(0.0, 1e-3, WeightParams(0.0, 0.0))
    with pytest.raises(InvalidSample):
        rescaled_min_energy(1.5, 1e-3, WeightParams(0.0, 0.0))


def test_amplitude_envelope_single_tooth():
    # beta = 0 makes the envelope flat, so the max is |u|(1/2) = 1/2
    eps = 1e-3
    p = SawtoothProfile((0.5,))
    got = amplitude_envelope_ratio(p, eps, 0.0)
    assert got == pytest.approx(0.5 * eps ** (-2.0 / 9.0), rel=1e-12)


def test_amplitude_envelope_uses_beta():
    eps = 1e-3
    p = SawtoothProfile((0.5,))
    flat = amplitude_envelope_ratio(p, eps, 0.0)
    decayed = amplitude_envelope_ratio(p, eps, 1.5)
    # positive beta inflates the envelope near 0 less than at 1/2 ... the
    # ratio can only grow when the envelope shrinks at the arg-max
    assert decayed > flat


def test_options_cap_jump_count():
    res = optimize_sharp(1e-3, WeightParams(0.0, 0.0), SharpOptions(n_min=2, n_max=3))
    assert 2 <= res.profile.n_jumps <= 4  # closure may add one auxiliary jump


def test_contradictory_bracket_rejected():
    # cap far below the calibrated bracket floor: nothing to search
    with pytest.raises(InvalidConfig):
        optimize_sharp(1e-4, WeightParams(0.0, 0.0), SharpOptions(n_max=3))


def test_collapsed_gap_gradient_is_silent():
    # L-BFGS-B probes can drive a softmax gap to exactly 0; the resulting
    # 0 * inf in the first moments must not leak a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, grad = _gap_energy_and_grad(
            np.array([0.0, 0.25, 0.5, 0.25]), 1e-5, WeightParams(0.5, 1.0)
        )
    assert grad.shape == (4,)
