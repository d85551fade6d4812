"""Sawtooth construction, exact evaluation, and the jump-count optimizer."""

import math
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
from mspl.core import power_primitive, weighted_square_integrals
import mspl.sharp
from mspl.sharp import (
    COLLAPSE_TOL,
    STALE_COUNTS,
    _gap_energy_and_grad,
    _graded_start_gaps,
    _jump_hessian,
    _profile_from_gaps,
    _refine_jump_positions,
    calibrate_bracket_constant,
    close_profile,
    default_gamma,
)


def _decode_gaps(x, k_odd):
    """Closed gaps from unconstrained x: 1/2 times a softmax over each
    parity (the first k_odd entries give the gaps at even positions)."""
    eo = np.exp(x[:k_odd] - np.max(x[:k_odd]))
    ee = np.exp(x[k_odd:] - np.max(x[k_odd:]))
    y = np.empty(x.size)
    y[0::2] = 0.5 * eo / eo.sum()
    y[1::2] = 0.5 * ee / ee.sum()
    return y


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


def cumulative_phis_loop(profile, eps, w, xs):
    """Per-sample reference for cumulative_energy's phis."""
    zs = np.asarray(profile.jumps, dtype=float)
    surf_prefix = np.concatenate(([0.0], np.cumsum(2.0 * eps * zs**w.alpha)))
    bp, vals, slopes = profile.breakpoints, profile.values, profile.slopes
    seg_bulk = weighted_square_integrals(bp[:-1], bp[1:], vals[:-1], slopes, w.beta)
    bulk_prefix = np.concatenate(([0.0], np.cumsum(seg_bulk)))
    phis = np.empty(xs.size)
    n_jumps_le = np.searchsorted(zs, xs, side="right")
    seg_idx = np.searchsorted(bp, xs, side="left") - 1
    for i, x in enumerate(xs):
        j = seg_idx[i]
        partial = (
            float(weighted_square_integrals(bp[j], x, vals[j], slopes[j], w.beta)[0])
            if x > bp[j]
            else 0.0
        )
        phis[i] = surf_prefix[n_jumps_le[i]] + bulk_prefix[j] + partial
    return phis


def test_cumulative_matches_per_sample_loop():
    # samples on the jumps themselves, below the first jump and at 1
    rng = np.random.default_rng(5)
    for beta in (0.0, 0.5, 1.0, 1.7):
        w = WeightParams(0.5, beta)
        for _ in range(4):
            p = random_clamped_profile(rng, n_lo=3, n_hi=20)
            xs = np.unique(
                np.concatenate((np.geomspace(1e-4, 1.0, 60), p.jumps, [1.0]))
            )
            got = np.asarray(cumulative_energy(p, 1e-3, w, xs).phis)
            assert got.tobytes() == cumulative_phis_loop(p, 1e-3, w, xs).tobytes()


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
    res = optimize_sharp(1e-3, WeightParams(0.0, 0.0), SharpOptions(n_jumps=3))
    assert res.profile.n_jumps == 3
    assert res.bracket == (3, 3) and res.n_candidates == 1


def test_pinned_count_outside_the_bracket_is_solved():
    # the calibrated bracket at eps = 1e-2 is [1, 4]; a pinned count is
    # solved directly, without calibration or walk
    res = optimize_sharp(1e-2, WeightParams(0.0, 0.0), SharpOptions(n_jumps=20))
    assert res.profile.n_jumps == 20
    assert res.converged


def test_unrefined_candidate_is_the_start_layout():
    # refine=False takes zero Newton steps: the candidate is the count's
    # closed graded start, scored as it stands and never converged
    eps, w = 1e-3, WeightParams(0.5, 1.0)
    gamma = default_gamma(w.beta)
    res = optimize_sharp(eps, w, SharpOptions(n_jumps=8, refine=False))
    assert res.profile == _profile_from_gaps(_graded_start_gaps(8, gamma))
    assert not res.converged
    assert res.energy.total > optimize_sharp(eps, w, SharpOptions(n_jumps=8)).energy.total


def full_bracket(eps, w):
    """The jump-count bracket [n*/2, 2n*] around the calibrated count."""
    c = calibrate_bracket_constant(w, default_gamma(w.beta))
    base = c * eps ** (-1.0 / 3.0)
    lo = max(1, math.floor(base) // 2)
    return lo, max(lo + 2, 2 * math.ceil(base))


def exhaustive_minimum(eps, w):
    """Oracle: every count of the full bracket solved on its own."""
    lo, hi = full_bracket(eps, w)
    per_count = [
        optimize_sharp(eps, w, SharpOptions(n_jumps=n)) for n in range(lo, hi + 1)
    ]
    best = min(per_count, key=lambda r: (r.energy.total, r.profile.n_jumps, r.profile.jumps))
    return best, lo, hi


@pytest.mark.parametrize(
    "alpha,beta,eps",
    [
        (alpha, beta, eps)
        for alpha, beta in ((0.0, 0.0), (0.5, 1.0), (1.0, 1.0))
        for eps in (1e-2, 1e-3, 1e-4)
    ]
    + [
        (0.0, 2.5, 1e-2),  # tiny legitimate first gaps (1e-7 of the median at 1e-5)
        (1.0, 1.5, 1e-2),  # slow collapses above the optimum
        (1.5, 1.4, 1e-2),  # alpha + beta near 3
    ],
)
def test_early_stop_matches_exhaustive_bracket(alpha, beta, eps):
    w = WeightParams(alpha, beta)
    oracle, lo, hi = exhaustive_minimum(eps, w)
    res = optimize_sharp(eps, w)
    assert res.energy.total == oracle.energy.total
    assert res.profile.jumps == oracle.profile.jumps
    # the walk starts inside the bracket, so it may never reach lo
    assert lo <= res.bracket[0] and res.bracket[1] <= hi


def inflate_bracket_constant(monkeypatch, w, factor):
    """Calibrated constant times `factor`, cached for the rest of the
    test so the walk starts there."""
    gamma = default_gamma(w.beta)
    c = factor * calibrate_bracket_constant(w, gamma)
    monkeypatch.setitem(mspl.sharp._CAL_CACHE, (w.alpha, w.beta, gamma), c)
    return c


def test_walk_from_a_start_far_above_the_optimum(monkeypatch):
    # n0 = 31 sits 12 counts above the optimal 19: the downward leg must
    # reach it, and the upward leg must end after its own stale counts
    # although the best count lies far below its first count
    eps, w = 1e-4, WeightParams(0.5, 1.0)
    oracle, _, _ = exhaustive_minimum(eps, w)
    c = inflate_bracket_constant(monkeypatch, w, 1.8)
    n0 = round(c * eps ** (-1.0 / 3.0))
    res = optimize_sharp(eps, w)
    assert res.energy.total == oracle.energy.total
    assert res.profile.jumps == oracle.profile.jumps
    assert res.profile.n_jumps < n0 - STALE_COUNTS
    assert res.bracket[1] <= n0 + STALE_COUNTS


def test_stale_counts_end_the_upward_leg_without_collapses(monkeypatch):
    # with collapse detection off only the stale count ends the upward
    # leg, whose first count lies 7 above the best: it must stop after
    # STALE_COUNTS counts, not run on to the cap at 30
    monkeypatch.setattr(mspl.sharp, "COLLAPSE_TOL", 0.0)
    eps, w = 1e-3, WeightParams(0.5, 1.0)
    c = inflate_bracket_constant(monkeypatch, w, 1.8)
    n0 = round(c * eps ** (-1.0 / 3.0))
    res = optimize_sharp(eps, w)
    assert res.profile.n_jumps == 8
    assert res.bracket[1] == n0 + STALE_COUNTS


def test_early_stop_golden_at_smallest_sweep_eps():
    # the exhaustive bracket [18, 76] picked n = 40 with this total
    w = WeightParams(0.5, 1.0)
    lo, hi = full_bracket(1e-5, w)
    res = optimize_sharp(1e-5, w)
    assert repr(res.energy.total) == "0.000608341979968667"
    assert res.profile.n_jumps == 40
    assert lo <= res.bracket[0] and res.bracket[1] <= hi
    # one candidate per count scored
    assert res.n_candidates == res.bracket[1] - res.bracket[0] + 1


def test_reported_count_is_the_effective_count():
    # the 14-jump refinement collapses (without the collapse stop its
    # first gap falls to 1e-23 of the median); the 13 teeth it really has
    # win
    eps, w = 3e-4, WeightParams(0.5, 1.0)
    res = optimize_sharp(eps, w)
    assert res.profile.n_jumps == 13
    gaps = np.diff(res.profile.breakpoints)
    start = _graded_start_gaps(res.profile.n_jumps, default_gamma(w.beta))
    assert np.all(gaps >= COLLAPSE_TOL * start)
    # the walk starts at n0 = 12 and goes down until 11..8 have failed
    # to beat it, and up until 14 (collapsed) to 17 have failed
    assert res.bracket == (8, 17)


def test_a_collapse_does_not_end_the_upward_leg():
    # count 137 collapses, yet 139 and 141 are lower than the best count
    # below it (136): stopping the walk at 137 cost 7.9e-4 of the energy
    eps, w = 1e-7, WeightParams(0.5, 0.5)
    gamma = default_gamma(w.beta)
    calibrate_bracket_constant(w, gamma)
    assert _refine_jump_positions(137, eps, w, gamma, 500) is None
    res = optimize_sharp(eps, w)
    assert res.converged
    assert res.profile.n_jumps == 141
    assert res.bracket[0] < 137 < res.bracket[1]


def test_tiny_first_gaps_are_not_a_collapse():
    # the 82-jump optimum at (0, 2.5) has a first gap below 1e-6 of the
    # median gap, yet far above its graded start: it must be ranked
    eps, w = 3e-5, WeightParams(0.0, 2.5)
    res = optimize_sharp(eps, w, SharpOptions(n_jumps=82))
    gaps = np.diff(res.profile.breakpoints)
    assert res.converged
    assert res.profile.n_jumps == 82
    assert gaps[0] < COLLAPSE_TOL * np.median(gaps)


def count_kernel_calls(monkeypatch) -> list:
    """Spy on the gap kernel: one entry per call lands in the list."""
    calls = []
    kernel = mspl.sharp._gap_energy_and_grad

    def counting(*args):
        calls.append(None)
        return kernel(*args)

    monkeypatch.setattr(mspl.sharp, "_gap_energy_and_grad", counting)
    return calls


def test_collapsing_count_stops_short_of_the_cap(monkeypatch):
    # count 44 at eps = 1e-5 collapses, and its refinement must stop there
    # instead of running towards the iteration cap
    eps, w = 1e-5, WeightParams(0.5, 1.0)
    gamma = default_gamma(w.beta)
    calls = count_kernel_calls(monkeypatch)
    res = optimize_sharp(eps, w, SharpOptions(n_jumps=44))
    assert len(calls) < 300
    # the collapsed layout is not ranked: the count's start layout stands
    # in for it, unconverged
    assert res.n_candidates == 1
    assert res.profile == _profile_from_gaps(_graded_start_gaps(44, gamma))
    assert not res.converged


def test_walk_at_smallest_sweep_eps_converges_every_refinement(monkeypatch):
    # the walk at eps = 1e-5 scores counts 33..44; count 42 collapses
    # slowly, and every refinement must end converged or collapsed, none
    # at the iteration cap
    eps, w = 1e-5, WeightParams(0.5, 1.0)
    calibrate_bracket_constant(w, default_gamma(w.beta))
    calls = count_kernel_calls(monkeypatch)
    refine = mspl.sharp._refine_jump_positions
    refined = {}

    def recording(n, *args):
        refined[n] = refine(n, *args)
        return refined[n]

    monkeypatch.setattr(mspl.sharp, "_refine_jump_positions", recording)
    res = optimize_sharp(eps, w)
    assert len(calls) < 500
    assert res.converged and res.profile.n_jumps == 40
    assert refined[42] is None
    assert all(r is None or r[2] for r in refined.values())


def test_curvature_across_the_closure_is_not_damped(monkeypatch):
    # near the 48-jump optimum at (1, 2.5), eps = 1e-2, the scaled Hessian
    # has a negative eigenvalue across the closure constraint while its
    # tangent block is positive definite; a Levenberg shift sized for the
    # former crawls to the iteration cap, the constrained step converges
    eps, w = 1e-2, WeightParams(1.0, 2.5)
    calls = count_kernel_calls(monkeypatch)
    refined = _refine_jump_positions(48, eps, w, default_gamma(w.beta), 500)
    assert refined is not None and refined[2]
    assert len(calls) < 100


def test_nonpositive_jump_count_rejected():
    with pytest.raises(InvalidConfig):
        optimize_sharp(1e-4, WeightParams(0.0, 0.0), SharpOptions(n_jumps=0))


def test_collapsed_gap_gradient_is_silent():
    # a degenerate layout may hand the kernel a gap of exactly 0; the
    # resulting 0 * inf in the first moments must not leak a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, grad = _gap_energy_and_grad(
            np.array([0.0, 0.25, 0.5, 0.25]), 1e-5, WeightParams(0.5, 1.0)
        )
    assert grad.shape == (4,)


def gap_energy_and_grad_loop(y, eps, w):
    """Reference gap kernel: generic segment integrator, separate first
    moments and a per-gap loop for the parity suffix sums."""
    m = y.size
    bp = np.empty(m + 1)
    bp[0] = 0.0
    np.cumsum(y, out=bp[1:])
    zs = bp[1:-1]
    signs = np.ones(m)
    signs[1::2] = -1.0
    vals = np.concatenate(([0.0], np.cumsum(signs * y)))
    surface = 2.0 * eps * float(np.sum(zs**w.alpha)) if zs.size else 0.0
    seg = weighted_square_integrals(bp[:-1], bp[1:], vals[:-1], signs, w.beta)
    energy = surface + float(np.sum(seg))
    grad = np.full(m, vals[-1] ** 2)
    if w.alpha != 0.0 and zs.size:
        with np.errstate(divide="ignore"):
            zpow = zs ** (w.alpha - 1.0)
        suf = np.concatenate((np.cumsum(zpow[::-1])[::-1], [0.0]))
        grad += 2.0 * eps * w.alpha * suf
    p, q = bp[1:-1], bp[2:]
    c = vals[1:-1] - signs[1:] * p
    p0 = power_primitive(p, q, -w.beta)
    p1 = power_primitive(p, q, 1.0 - w.beta)
    J = np.zeros(m)
    with np.errstate(invalid="ignore"):
        J[1:] = c * p0 + signs[1:] * p1
    suf_even = np.zeros(m + 1)
    suf_odd = np.zeros(m + 1)
    for j in range(m - 1, -1, -1):
        suf_even[j] = suf_even[j + 1] + (J[j] if j % 2 == 0 else 0.0)
        suf_odd[j] = suf_odd[j + 1] + (J[j] if j % 2 == 1 else 0.0)
    idx = np.arange(m)
    opp = np.where(idx % 2 == 0, suf_odd[idx + 1], suf_even[idx + 1])
    grad += 4.0 * signs * opp
    return energy, grad


def test_gap_kernel_matches_loop_reference_bitwise():
    # zero gaps (first and interior), the beta = 1 pole, beta < 1 and > 1
    rng = np.random.default_rng(2024)
    for alpha in (0.0, 0.5, 2.0):
        for beta in (-0.5, 0.0, 0.5, 1.0, 1.5, 2.5):
            w = WeightParams(alpha, beta)
            for m in (2, 3, 4, 7, 12, 31, 77):
                for zero in (None, 0, m // 2):
                    y = _decode_gaps(rng.normal(scale=3.0, size=m), (m + 1) // 2)
                    if zero is not None:
                        y[zero] = 0.0
                    e_new, g_new = _gap_energy_and_grad(y, 1e-4, w)
                    e_ref, g_ref = gap_energy_and_grad_loop(y, 1e-4, w)
                    assert np.float64(e_new).tobytes() == np.float64(e_ref).tobytes()
                    assert g_new.tobytes() == g_ref.tobytes()


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("beta", [0.5, 1.0, 1.5])
def test_gap_gradient_matches_finite_differences(alpha, beta):
    rng = np.random.default_rng(17)
    w = WeightParams(alpha, beta)
    eps = 1e-3
    for m in (4, 9):
        y = _decode_gaps(rng.normal(scale=0.5, size=m), (m + 1) // 2)
        energy, grad = _gap_energy_and_grad(y, eps, w)
        # the gaps close the profile, so the kernel scores a real profile
        ref = evaluate_sharp(_profile_from_gaps(y), eps, w).total
        assert energy == pytest.approx(ref, rel=1e-13)
        fd = np.empty(m)
        for i in range(m):
            h = 1e-6 * y[i]
            up, dn = y.copy(), y.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (
                _gap_energy_and_grad(up, eps, w)[0]
                - _gap_energy_and_grad(dn, eps, w)[0]
            ) / (2.0 * h)
        assert np.linalg.norm(fd - grad) <= 1e-6 * np.linalg.norm(grad)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("beta", [-0.5, 0.5, 1.0, 1.5, 2.5])
def test_jump_hessian_matches_finite_differences(alpha, beta):
    # central differences of the kernel's position gradient
    # g_z = g_y[:-1] - g_y[1:]; beta = 1 takes the log branch of P
    rng = np.random.default_rng(29)
    w = WeightParams(alpha, beta)
    eps = 1e-3

    def grad_z(z):
        gy = _gap_energy_and_grad(np.diff(z, prepend=0.0, append=1.0), eps, w)[1]
        return gy[:-1] - gy[1:]

    for m in (3, 6, 11):
        y = _decode_gaps(rng.normal(scale=0.5, size=m), (m + 1) // 2)
        z = np.cumsum(y)[:-1]
        hess, _ = _jump_hessian(y, eps, w)
        fd = np.empty_like(hess)
        for k in range(z.size):
            h = 1e-6 * min(y[k], y[k + 1])
            up, dn = z.copy(), z.copy()
            up[k] += h
            dn[k] -= h
            fd[:, k] = (grad_z(up) - grad_z(dn)) / (2.0 * h)
        assert np.array_equal(hess, hess.T)
        assert np.linalg.norm(fd - hess) <= 1e-7 * np.linalg.norm(hess)


def test_optimize_sharp_golden_weighted():
    # the sharp-min result the cli-cold benchmark reports: a change to the
    # kernel or the Newton refinement that moves it must not raise it
    res = optimize_sharp(1e-3, WeightParams(0.5, 1.0))
    assert repr(res.energy.total) == "0.013156223785776775"
    assert res.profile.n_jumps == 8


def test_collapsed_gaps_are_normalized():
    # n = 56 collapses (without the collapse stop its first gaps fall to
    # 1e-21 of the median, below the rounding of their partial sums, and
    # jumps coincide); whatever is returned must be a valid closed profile
    # scored as it stands
    eps, w = 1e-5, WeightParams(0.5, 0.5)
    res = optimize_sharp(eps, w, SharpOptions(n_jumps=56))
    assert not res.profile.unclamped
    assert np.all(np.diff(res.profile.jumps) > 0.0)
    assert res.energy.total == evaluate_sharp(res.profile, eps, w).total


def test_profile_from_gaps_normalizes_degenerate_jumps():
    y = np.array([0.0, 0.25, 0.0, 0.25, 0.5, 0.0])
    # jumps at 0, 0.25, 0.25, 0.5, 1: the pair cancels, 0 flips, 1 drops
    p = _profile_from_gaps(y)
    assert p.jumps == (0.5,)
    assert p.initial_slope == -1
    full = np.linspace(0.0, 1.0, 9)
    assert np.array_equal(p.evaluate(full), -np.minimum(full, 1.0 - full))
