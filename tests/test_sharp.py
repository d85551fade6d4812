"""Sawtooth construction, exact evaluation, and the jump-count optimizer."""

import hashlib
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from mspl import (
    DivergentIntegral,
    InvalidConfig,
    InvalidProfile,
    InvalidSample,
    SawtoothProfile,
    SharpOptions,
    TooManyJumps,
    UnclampedProfile,
    WeightParams,
    amplitude_envelope_ratio,
    cumulative_energy,
    diffuse_surrogate,
    evaluate_sharp,
    optimize_sharp,
    optimize_sharp_sweep,
    rescaled_min_energy,
)
from mspl.core import (
    EnergyBreakdown,
    power_primitive,
    segment_moments,
    weighted_square_integrals,
)
import mspl.sharp
from mspl.sharp import (
    COLLAPSE_TOL,
    FTOL,
    GTOL,
    LAM_MIN,
    MAX_BACKTRACKS,
    MAX_JUMPS,
    STALE_COUNTS,
    _close,
    _gap_kernel,
    _graded_start_gaps,
    _newton_steps,
    _profile_from_gaps,
    _refine_jump_positions,
    _sharp_energies,
    jump_count_estimate,
)


def close(y):
    """`_close` on one layout."""
    return _close(y[None], np.ones((1, y.size), dtype=bool))[0]


def profile_from_gaps(y):
    """`_profile_from_gaps` on one layout."""
    return _profile_from_gaps(y[None], [y.size])[0][0]


def start_grading(beta):
    """The grading exponent of the starts of `_graded_start_gaps`, restated
    here as a reference: max(0, 2 / (3 - beta) - 1) plus a 1/4 margin."""
    return max(0.0, 2.0 / (3.0 - beta) - 1.0) + 0.25


def graded_start(n, w):
    """`_graded_start_gaps` of the single count n."""
    return _graded_start_gaps([n], w)[0]


def gap_energy_and_grad(y, eps, w):
    """The gap kernel on one layout: its energy and gradient."""
    energies, grad = _gap_kernel(y[None], np.ones((1, y.size), dtype=bool), eps, w)[:2]
    return energies[0], grad[0]


def refine(n, eps, w, max_iter):
    """`_refine_jump_positions` on the single count n: its gaps, their
    gap-kernel energy and whether it converged, or None once it
    collapsed."""
    (y,), (status,) = _refine_jump_positions([n], eps, w, max_iter)
    if status == 0:
        return None
    return y, float(gap_energy_and_grad(y, eps, w)[0]), bool(status > 0)


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
    # rescale each parity of the gaps to sum to 1/2, so the profile closes
    return profile_from_gaps(close(np.diff(zs, prepend=0.0, append=1.0)))


def test_profile_validation():
    with pytest.raises(InvalidProfile):
        SawtoothProfile((0.5, 0.25))  # not increasing
    with pytest.raises(InvalidProfile):
        SawtoothProfile((0.0, 0.5))  # touches the boundary


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
    with pytest.raises(UnclampedProfile):
        cumulative_energy(p, 0.01, WeightParams(0.0, 0.0), [0.5, 1.0])


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
        best_graded = np.inf
        for n in range(1, 14):
            p = profile_from_gaps(graded_start(n, w))
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


@pytest.mark.parametrize(
    "eps, beta, error",
    [
        (0.0, 0.0, InvalidConfig),
        (-1.0, 0.0, InvalidConfig),
        (math.nan, 0.0, InvalidConfig),
        (math.inf, 0.0, InvalidConfig),
        (1e-2, 3.5, DivergentIntegral),
    ],
    ids=("eps-zero", "eps-negative", "eps-nan", "eps-inf", "beta-3.5"),
)
def test_cumulative_refuses_an_infinite_energy_before_any_integral(monkeypatch, eps, beta, error):
    def never(*args):
        raise AssertionError("an energy was scored")

    # `_sharp_energies` takes every sharp integral; the per-segment kernel
    # is not even imported
    assert not hasattr(mspl.sharp, "weighted_square_integrals")
    monkeypatch.setattr(mspl.sharp, "_sharp_energies", never)
    match = "finite" if error is InvalidConfig else "bulk term infinite"
    with pytest.raises(error, match=match):
        cumulative_energy(SawtoothProfile((0.25, 0.75)), eps, WeightParams(0.0, beta), [0.5, 1.0])


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
    """Per-sample reference for cumulative_energy's phis, through the
    segment integrals of `weighted_square_integrals`, an arithmetic of its
    own."""
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
            np.testing.assert_allclose(got, cumulative_phis_loop(p, 1e-3, w, xs), rtol=1e-14, atol=0)


def test_cumulative_total_is_the_sharp_total_bitwise():
    # phi(1) scores the whole profile by the arithmetic of `evaluate_sharp`,
    # so it is the reported total to the last bit: random profiles and the
    # optimized ones, over the oracle weights
    rng = np.random.default_rng(41)
    for w in ORACLE_WEIGHTS:
        profiles = [random_clamped_profile(rng, n_hi=60) for _ in range(6)]
        profiles.append(optimize_sharp(1e-3, w).profile)
        for p in profiles:
            xs = np.unique(np.concatenate((rng.uniform(1e-4, 1.0, 20), p.jumps, [1.0])))
            for eps in (1e-3, 1e-6):
                phis = cumulative_energy(p, eps, w, xs).phis
                assert phis[-1] == evaluate_sharp(p, eps, w).total


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
    # the walk at eps = 1e-2 starts at 2 and scores [1, 6]; a pinned count
    # is solved directly, without a walk
    res = optimize_sharp(1e-2, WeightParams(0.0, 0.0), SharpOptions(n_jumps=20))
    assert res.profile.n_jumps == 20
    assert res.converged


def test_unrefined_candidate_is_the_start_layout():
    # refine=False takes zero Newton steps: the candidate is the count's
    # closed graded start, scored as it stands and never converged
    eps, w = 1e-3, WeightParams(0.5, 1.0)
    res = optimize_sharp(eps, w, SharpOptions(n_jumps=8, refine=False))
    assert res.profile == profile_from_gaps(graded_start(8, w))
    assert not res.converged
    assert res.energy.total > optimize_sharp(eps, w, SharpOptions(n_jumps=8)).energy.total


def full_bracket(eps, w):
    """A jump-count bracket wider than the walk's: from 1 to STALE_COUNTS
    past twice the walk's starting count."""
    return 1, 2 * jump_count_estimate(eps, w) + STALE_COUNTS


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
    assert lo <= res.bracket[0] and res.bracket[1] <= hi


def start_walk_at(monkeypatch, n0):
    """Make the walk of optimize_sharp start at count n0 for the rest of
    the test."""
    monkeypatch.setattr(mspl.sharp, "jump_count_estimate", lambda eps, w: n0)
    return n0


def test_walk_from_a_start_far_above_the_optimum(monkeypatch):
    # n0 = 34 sits 15 counts above the optimal 19: the downward leg must
    # reach it, and the upward leg must end after its own stale counts
    # although the best count lies far below its first count
    eps, w = 1e-4, WeightParams(0.5, 1.0)
    oracle, _, _ = exhaustive_minimum(eps, w)
    n0 = start_walk_at(monkeypatch, round(1.8 * jump_count_estimate(eps, w)))
    res = optimize_sharp(eps, w)
    assert res.energy.total == oracle.energy.total
    assert res.profile.jumps == oracle.profile.jumps
    assert res.profile.n_jumps < n0 - STALE_COUNTS
    assert res.bracket[1] <= n0 + STALE_COUNTS


def test_stale_counts_end_the_upward_leg_without_collapses(monkeypatch):
    # with collapse detection off only the stale count ends the upward
    # leg, whose first count lies 9 above the best: it must stop after
    # STALE_COUNTS counts, although no cap bounds it
    monkeypatch.setattr(mspl.sharp, "COLLAPSE_TOL", 0.0)
    eps, w = 1e-3, WeightParams(0.5, 1.0)
    n0 = start_walk_at(monkeypatch, round(1.8 * jump_count_estimate(eps, w)))
    res = optimize_sharp(eps, w)
    assert res.profile.n_jumps == 8
    assert res.bracket[1] == n0 + STALE_COUNTS


def test_early_stop_golden_at_smallest_sweep_eps():
    # solving every count from 1 to 86 on its own picks n = 40, as the walk
    # does.  The total is 0.000608341979968629, as 50-digit decimal
    # arithmetic gives on the layout; with every segment written about
    # t = 0 it read 0.0006083419799686421, 2.2e-14 high
    w = WeightParams(0.5, 1.0)
    oracle, lo, hi = exhaustive_minimum(1e-5, w)
    res = optimize_sharp(1e-5, w)
    assert res.profile.n_jumps == 40
    assert res.energy.total == oracle.energy.total
    assert res.energy.total == pytest.approx(0.000608341979968629, rel=1e-12)
    assert res.energy.total <= 0.000608341979968629 * (1.0 + 1e-14)
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
    start = graded_start(res.profile.n_jumps, w)
    assert np.all(gaps >= COLLAPSE_TOL * start)
    # the walk starts at n0 = 13 and goes down until 12..9 have failed
    # to beat it, and up until 14 (collapsed) to 17 have failed
    assert res.bracket == (9, 17)


def test_a_collapse_does_not_end_the_upward_leg(monkeypatch):
    # count 137 collapses, yet 139 and 141 are lower than the best count
    # below it (136): stopping the walk at 137 cost 7.9e-4 of the energy.
    # The estimate starts the walk at 141 itself, so start it below 137
    eps, w = 1e-7, WeightParams(0.5, 0.5)
    assert refine(137, eps, w, 500) is None
    start_walk_at(monkeypatch, 129)
    res = optimize_sharp(eps, w)
    assert res.converged
    assert res.profile.n_jumps == 141
    assert res.bracket[0] < 137 < res.bracket[1]


@pytest.mark.parametrize(
    "eps,w,n_jumps,total,capped",
    [
        # the old cap [n*/2, 2n*] around a count calibrated at eps = 1e-3
        # ended the upward leg at 20 jumps, total 0.039913691222809425
        (1e-2, WeightParams(1.5, 1.4), 27, 0.03991368971875241, 0.039913691222809425),
        # and here at 46 jumps, total 0.09294219296804707
        (*diffuse_surrogate(1e-2, WeightParams(1.0, 2.5)), 54, 0.092925322772648, 0.09294219296804707),
        # winners whose descent passes a gap at 1.05-1.37e-6 of its graded
        # start, just above COLLAPSE_TOL: a larger tolerance would drop
        # them.  The old cap ended the first at 40 jumps; it ended the
        # second at 70 itself, so it cost nothing there
        (1e-3, WeightParams(1.5, 1.4), 58, 0.008557321073009543, 0.00855732369210192),
        (1e-3, WeightParams(0.5, 2.4), 70, 0.02457789611184283, None),
    ],
    ids=("1.5-1.4", "surrogate-of-1-2.5", "1.5-1.4-1e-3", "0.5-2.4-1e-3"),
)
def test_the_walk_has_no_count_cap(eps, w, n_jumps, total, capped):
    t0 = time.perf_counter()
    res = optimize_sharp(eps, w)
    seconds = time.perf_counter() - t0
    print(
        f"count walk at ({w.alpha:g}, {w.beta:g}), eps = {eps:.3g}: "
        f"{res.profile.n_jumps} jumps, bracket {res.bracket}, "
        f"total {res.energy.total!r}, {seconds:.2f} s"
    )
    assert res.converged
    assert res.profile.n_jumps == n_jumps
    assert res.energy.total == pytest.approx(total, rel=1e-12)
    if capped is not None:
        assert res.energy.total < capped
    # the upward leg ends on its stale counts alone
    assert res.bracket[1] == n_jumps + STALE_COUNTS


def test_a_start_above_max_jumps_raises_before_any_solve(monkeypatch):
    # far above alpha + beta = 3 the eps**2 cut sets the estimate: 43508
    # at (2, 2.9), eps = 1e-3, 21 times the limit
    eps, w = 1e-3, WeightParams(2.0, 2.9)
    assert jump_count_estimate(eps, w) > MAX_JUMPS

    def never(*args):
        raise AssertionError("a count was solved")

    monkeypatch.setattr(mspl.sharp, "_count_candidates", never)
    with pytest.raises(TooManyJumps):
        optimize_sharp(eps, w)
    with pytest.raises(TooManyJumps):
        optimize_sharp(1e-2, WeightParams(0.5, 1.0), SharpOptions(n_jumps=MAX_JUMPS + 1))


def test_a_walk_past_max_jumps_raises(monkeypatch):
    # at (1.5, 1.4), eps = 1e-2 the walk starts at 16 and its upward leg
    # reaches 31; with the limit at 29 it fails instead of returning the
    # best count below the limit
    monkeypatch.setattr(mspl.sharp, "MAX_JUMPS", 29)
    with pytest.raises(TooManyJumps, match="jump count 30 "):
        optimize_sharp(1e-2, WeightParams(1.5, 1.4))


def test_deep_solve_follows_the_energy_law():
    # about 1882 jumps, far beyond the sweep's counts; the energy constant
    # of the cell law is K_s = (3/2) (2/3)**(1/3) / (1 + (2 alpha - beta) / 3)
    eps, w = 1e-10, WeightParams(0.5, 1.0)
    t0 = time.perf_counter()
    res = optimize_sharp(eps, w)
    seconds = time.perf_counter() - t0
    k_s = 1.5 * (2.0 / 3.0) ** (1.0 / 3.0) / (1.0 + (2.0 * w.alpha - w.beta) / 3.0)
    ratio = res.energy.total / (k_s * eps ** (2.0 / 3.0))
    print(
        f"deep solve at ({w.alpha:g}, {w.beta:g}), eps = {eps:g}: "
        f"{res.profile.n_jumps} jumps, bracket {res.bracket}, "
        f"E / (K_s eps^(2/3)) = {ratio!r}, {seconds:.2f} s"
    )
    assert res.converged
    assert abs(res.profile.n_jumps - 1882) <= 10
    assert abs(ratio - 1.0) <= 1e-5


def test_a_deep_solve_forms_no_dense_matrix():
    # one n x n float64 array at the 1882 jumps of eps = 1e-10 is 28 MB;
    # the count is pinned so the traced run refines one count, not nine
    tracemalloc.start()
    try:
        res = optimize_sharp(1e-10, WeightParams(0.5, 1.0), SharpOptions(n_jumps=1882))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged
    assert peak < 16e6


def test_flat_regime_result_does_not_depend_on_blas_threads():
    # near-degenerate first teeth make the totals of many counts agree to
    # rounding, so rounding picks the count; the dense step's LAPACK calls
    # gave 116 jumps under one BLAS thread and 111 under two
    code = (
        "import mspl\n"
        "res = mspl.optimize_sharp(1e-5, mspl.WeightParams(2.0, 0.5))\n"
        "print(repr(res.energy.total))\n"
        "print(repr(res.profile.jumps))\n"
    )
    path = os.pathsep.join([os.path.dirname(os.path.dirname(mspl.__file__)), os.environ.get("PYTHONPATH", "")])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_counts_are_ranked_by_the_reported_total():
    # in the flat regime at (2, 0.5), eps = 1e-5, counts 111 to 116 tie to
    # 1e-13; the candidates' totals are evaluate_sharp's, which the result
    # reports.  With every segment written about t = 0, evaluate_sharp
    # was 1.1e-13 off and put 112 first (0.0002807129981859145; 50-digit
    # decimal arithmetic gives 0.00028071299818594624 on that layout).
    # Each total is now within 1e-16 of the decimal one, and 116 wins at
    # 0.00028071299818594006 (decimal: 0.00028071299818594006)
    eps, w = 1e-5, WeightParams(2.0, 0.5)
    res = optimize_sharp(eps, w)
    reported = {n: evaluate_sharp(p, eps, w).total for n, _, p, _ in res.candidates}
    assert {n: total for n, total, _, _ in res.candidates} == reported
    assert res.energy.total == min(reported.values())
    # solving every count from 1 to 242 on its own also picks 116
    assert res.profile.n_jumps == 116
    assert res.energy.total == pytest.approx(0.00028071299818594006, rel=1e-12)


def test_a_surface_dominated_count_stops_where_a_bulk_tolerance_would(monkeypatch):
    # count 20 at (0, 0), eps = 1e-2: at alpha = 0 the surface energy 0.4
    # does not depend on the positions, and FTOL compares a decrease with
    # the total, bulk 2.1e-4 included.  The descent still ends on the exact
    # uniform layout, where the Newton model predicts a decrease of 8.4e-20,
    # 4e-16 of the bulk; the same tolerance relative to the bulk alone
    # stops at the same step
    eps, w = 1e-2, WeightParams(0.0, 0.0)
    y, f, ok = refine(20, eps, w, 500)
    assert ok
    exact = evaluate_sharp(SawtoothProfile(tuple((2 * k - 1) / 40 for k in range(1, 21))), eps, w)
    assert f == pytest.approx(exact.total, rel=1e-15)
    gy = gap_energy_and_grad(y, eps, w)[1]
    g = gy[:-1] - gy[1:]
    assert -0.5 * float(g @ dense_step(dense_step_matrix(y, eps, w), g, 0.0)) <= FTOL * exact.bulk
    monkeypatch.setattr(mspl.sharp, "FTOL", FTOL * exact.bulk / exact.total)
    y_bulk, f_bulk, ok_bulk = refine(20, eps, w, 500)
    assert ok_bulk and f_bulk == f
    assert_same_bits(y_bulk, y)


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
    """Spy on the gap kernel: one entry per call lands in the list, the
    number of layouts the call evaluated."""
    calls = []
    kernel = mspl.sharp._gap_kernel

    def counting(y, *args):
        calls.append(y.shape[0])
        return kernel(y, *args)

    monkeypatch.setattr(mspl.sharp, "_gap_kernel", counting)
    return calls


def test_collapsing_count_stops_short_of_the_cap(monkeypatch):
    # count 44 at eps = 1e-5 collapses, and its refinement must stop there
    # instead of running towards the iteration cap
    eps, w = 1e-5, WeightParams(0.5, 1.0)
    calls = count_kernel_calls(monkeypatch)
    res = optimize_sharp(eps, w, SharpOptions(n_jumps=44))
    assert len(calls) < 300
    # the collapsed layout is not ranked: the count's start layout stands
    # in for it, unconverged
    assert res.n_candidates == 1
    assert res.profile == profile_from_gaps(graded_start(44, w))
    assert not res.converged


def test_walk_at_smallest_sweep_eps_converges_every_refinement(monkeypatch):
    # the walk at eps = 1e-5 scores counts 36..45; count 42 collapses
    # slowly, and every refinement must end converged or collapsed, none
    # at the iteration cap
    eps, w = 1e-5, WeightParams(0.5, 1.0)
    calls = count_kernel_calls(monkeypatch)
    refine_counts = mspl.sharp._refine_jump_positions
    refined = {}

    def recording(counts, *args):
        gaps, status = refine_counts(counts, *args)
        refined.update(zip(counts, status.tolist()))
        return gaps, status

    monkeypatch.setattr(mspl.sharp, "_refine_jump_positions", recording)
    res = optimize_sharp(eps, w)
    assert len(calls) < 500
    assert res.converged and res.profile.n_jumps == 40
    assert refined[42] == 0
    assert set(refined.values()) <= {0, 1}


@pytest.mark.parametrize(
    "eps,w",
    [(1e-4, WeightParams(0.5, 1.0)), (1e-5, WeightParams(0.5, 1.0)), (1e-2, WeightParams(1.5, 1.4))],
    ids=("0.5-1-1e-4", "0.5-1-1e-5", "1.5-1.4-1e-2"),
)
def test_walk_rows_are_the_pinned_solves(eps, w):
    # the walk refines its counts together, yet each row is bit for bit
    # the solve pinned to its count; at eps = 1e-5 counts 42-45 collapse
    res = optimize_sharp(eps, w)
    for n, total, profile, ok in res.candidates:
        ((n_pinned, total_pinned, profile_pinned, ok_pinned),) = optimize_sharp(
            eps, w, SharpOptions(n_jumps=n)
        ).candidates
        assert n_pinned == n
        assert repr(total_pinned) == repr(total)
        assert profile_pinned == profile
        assert ok_pinned is ok


def test_walk_shares_its_kernel_calls_between_counts(monkeypatch):
    # the walk at eps = 1e-5 scores counts 36..45: each count's 145 Newton
    # steps in all, 296 tridiagonal solves and 162 layout evaluations are
    # those of one-at-a-time solves, which made one kernel call per
    # evaluation; refined together the counts share 35 calls
    eps, w = 1e-5, WeightParams(0.5, 1.0)
    calls = count_kernel_calls(monkeypatch)
    steps, solves = [], []
    newton_steps, solve = mspl.sharp._newton_steps, mspl.sharp._tridiagonal_solve

    def stepping(g, *args):
        steps.append(g.shape[0])
        return newton_steps(g, *args)

    def solving(*args):
        solves.append(None)
        return solve(*args)

    monkeypatch.setattr(mspl.sharp, "_newton_steps", stepping)
    monkeypatch.setattr(mspl.sharp, "_tridiagonal_solve", solving)
    t0 = time.perf_counter()
    res = optimize_sharp(eps, w)
    seconds = time.perf_counter() - t0
    print(
        f"walk at ({w.alpha:g}, {w.beta:g}), eps = {eps:g}: {res.n_candidates} counts, "
        f"{len(calls)} kernel calls for {sum(calls)} layouts, {sum(steps)} Newton steps, "
        f"{len(solves)} tridiagonal solves, {seconds:.3f} s"
    )
    assert res.bracket == (36, 45) and res.n_candidates == 10
    assert sum(calls) == 162
    assert sum(steps) == 145
    assert len(solves) == 296
    assert len(calls) <= 60


SWEEP_EPS = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5)


@pytest.mark.parametrize(
    "alpha,beta", [(0.5, 1.0), (0.0, 0.0), (1.0, 1.0), (1.5, 1.4), (2.0, -0.5)]
)
def test_sweep_rows_are_the_single_solves(alpha, beta):
    # the sweep's walks share their rounds across eps, yet each result is
    # bit for bit the solve at its eps alone, candidate table included
    w = WeightParams(alpha, beta)
    results = optimize_sharp_sweep(SWEEP_EPS, w)
    assert len(results) == len(SWEEP_EPS)
    for eps, res in zip(SWEEP_EPS, results):
        alone = optimize_sharp(eps, w)
        assert repr(res.energy.total) == repr(alone.energy.total)
        assert repr(res.profile.jumps) == repr(alone.profile.jumps)
        assert res.converged is alone.converged
        assert len(res.candidates) == len(alone.candidates)
        for (n, total, profile, ok), (n_alone, total_alone, profile_alone, ok_alone) in zip(
            res.candidates, alone.candidates
        ):
            assert n == n_alone
            assert repr(total) == repr(total_alone)
            assert repr(profile) == repr(profile_alone)
            assert ok is ok_alone


def test_sweep_shares_its_kernel_calls_across_eps(monkeypatch):
    # the sweep at (0.5, 1) scores 64 counts over its 7 eps: 971 layout
    # evaluations, 911 Newton steps and 1979 tridiagonal solves, as eps by
    # eps, where the walks made 203 kernel calls in 9 scoring rounds; in
    # one sweep they share 37 calls in 2 rounds
    w = WeightParams(0.5, 1.0)
    calls = count_kernel_calls(monkeypatch)
    steps, solves, rounds = [], [], []
    newton_steps, solve = mspl.sharp._newton_steps, mspl.sharp._tridiagonal_solve
    count_candidates = mspl.sharp._count_candidates

    def stepping(g, *args):
        steps.append(g.shape[0])
        return newton_steps(g, *args)

    def solving(*args):
        solves.append(None)
        return solve(*args)

    def scoring(counts, *args):
        rounds.append(len(counts))
        return count_candidates(counts, *args)

    monkeypatch.setattr(mspl.sharp, "_newton_steps", stepping)
    monkeypatch.setattr(mspl.sharp, "_tridiagonal_solve", solving)
    monkeypatch.setattr(mspl.sharp, "_count_candidates", scoring)
    t0 = time.perf_counter()
    results = optimize_sharp_sweep(SWEEP_EPS, w)
    seconds = time.perf_counter() - t0
    print(
        f"sweep at ({w.alpha:g}, {w.beta:g}) over {len(SWEEP_EPS)} eps: "
        f"{sum(r.n_candidates for r in results)} counts in {len(rounds)} rounds, "
        f"{len(calls)} kernel calls for {sum(calls)} layouts, {sum(steps)} Newton steps, "
        f"{len(solves)} tridiagonal solves, {seconds:.3f} s"
    )
    assert sum(r.n_candidates for r in results) == sum(rounds) == 64
    assert sum(calls) == 971
    assert sum(steps) == 911
    assert len(solves) == 1979
    assert len(calls) <= 45


# (alpha, beta, eps) of the single solves whose candidate tables the golden
# hash covers after the (0.5, 1) sweep: deep, collapsing, strongly
# weighted and unweighted walks
GOLDEN_SOLVES = (
    (1.5, 1.4, 1e-5),
    (0.5, 2.4, 1e-3),
    (2.0, 0.5, 1e-5),
    (0.0, 0.0, 1e-6),
    (1.0, 2.5, 1e-2),
    (2.0, 1.5, 1e-2),
    (0.5, 1.0, 1e-8),
    (0.5, 2.0, 1e-5),
)
# the digest of the rows (n, total, jumps, converged); it hashes no
# dataclass repr, so it moves with the results alone
GOLDEN_SHA256 = "30689d897e66645d789f57ac245590ae4963e76e0fb285f00eabb675baf0a8bc"


def test_sharp_results_keep_their_bytes(monkeypatch):
    # every candidate row of the (0.5, 1) sweep and of eight single solves,
    # totals and jump positions to the last bit, and the sweep's work: its
    # kernel calls and rows, Newton step calls and tridiagonal solves
    calls = count_kernel_calls(monkeypatch)
    steps, solves = [], []
    newton_steps, solve = mspl.sharp._newton_steps, mspl.sharp._tridiagonal_solve

    def stepping(*args):
        steps.append(None)
        return newton_steps(*args)

    def solving(*args):
        solves.append(None)
        return solve(*args)

    monkeypatch.setattr(mspl.sharp, "_newton_steps", stepping)
    monkeypatch.setattr(mspl.sharp, "_tridiagonal_solve", solving)
    results = list(optimize_sharp_sweep(SWEEP_EPS, WeightParams(0.5, 1.0)))
    print(
        f"sweep: {len(calls)} kernel calls for {sum(calls)} rows, "
        f"{len(steps)} Newton step calls, {len(solves)} tridiagonal solves"
    )
    assert (len(calls), sum(calls), len(steps), len(solves)) == (37, 971, 36, 1979)
    results += [optimize_sharp(eps, WeightParams(a, b)) for a, b, eps in GOLDEN_SOLVES]
    rows = ((n, total, p.jumps, ok) for r in results for n, total, p, ok in r.candidates)
    digest = hashlib.sha256("".join(map(repr, rows)).encode())
    assert digest.hexdigest() == GOLDEN_SHA256


def test_the_sweep_and_its_scores_take_no_segment_integral(monkeypatch):
    # the refinement, the candidate scores, `evaluate_sharp` and
    # `cumulative_energy` share one energy arithmetic, `_layout_kernel`:
    # the per-segment `weighted_square_integrals` is not even imported, and
    # every candidate is scored once by `_sharp_energies`
    assert not hasattr(mspl.sharp, "weighted_square_integrals")
    sharp_energies, scored = mspl.sharp._sharp_energies, []

    def scoring(bp, *args):
        scored.append(bp.shape[0])
        return sharp_energies(bp, *args)

    monkeypatch.setattr(mspl.sharp, "_sharp_energies", scoring)
    w = WeightParams(0.5, 1.0)
    results = optimize_sharp_sweep(SWEEP_EPS, w)
    assert sum(scored) == sum(r.n_candidates for r in results)
    for eps, res in zip(SWEEP_EPS, results):
        assert res.converged
        assert evaluate_sharp(res.profile, eps, w) == res.energy
    assert scored[-len(SWEEP_EPS) :] == [1] * len(SWEEP_EPS)


@pytest.mark.parametrize(
    "eps_list",
    [(1e-2, 1e-3, math.nan), (0.0, 1e-2), (1e-2, -1e-3, 1e-4), (1e-3, math.inf)],
    ids=("nan-last", "zero-first", "negative-middle", "inf-last"),
)
def test_an_invalid_eps_anywhere_fails_the_sweep_before_any_solve(monkeypatch, eps_list):
    def never(*args):
        raise AssertionError("a count was solved")

    monkeypatch.setattr(mspl.sharp, "_count_candidates", never)
    with pytest.raises(InvalidConfig, match="finite"):
        optimize_sharp_sweep(eps_list, WeightParams(0.5, 1.0))


def test_a_sweep_walk_past_max_jumps_names_its_eps(monkeypatch):
    # at (1.5, 1.4) the walks at eps = 3e-2 and 2e-2 stay at or below 25
    # jumps, and the one at 1e-2 climbs to 31: with the limit at 29 the
    # sweep fails on count 30 of that walk, and the round holding it is
    # never scored
    monkeypatch.setattr(mspl.sharp, "MAX_JUMPS", 29)
    count_candidates = mspl.sharp._count_candidates
    scored = []

    def scoring(counts, *args):
        assert max(counts) <= 29
        scored.extend(counts)
        return count_candidates(counts, *args)

    monkeypatch.setattr(mspl.sharp, "_count_candidates", scoring)
    with pytest.raises(TooManyJumps, match=r"jump count 30 at eps=0\.01,"):
        optimize_sharp_sweep((3e-2, 1e-2, 2e-2), WeightParams(1.5, 1.4))
    assert scored


def test_mixed_eps_batches_are_their_single_rows_bitwise():
    # one padded batch of layouts of different sizes, each at its own eps:
    # every row of the gap kernel and of the Newton step is bit for bit
    # that row's call alone at its scalar eps
    rng = np.random.default_rng(77)
    for alpha, beta in ((0.0, 0.0), (0.5, 1.0), (2.0, -0.5), (1.5, 2.5)):
        w = WeightParams(alpha, beta)
        layouts = [
            _decode_gaps(rng.normal(size=m), (m + 1) // 2) for m in (3, 9, 2, 31, 17, 5)
        ]
        eps = 10.0 ** rng.uniform(-8.0, -1.0, size=len(layouts))
        sizes = np.array([y.size for y in layouts])
        batch = np.zeros((len(layouts), sizes.max()))
        for row, y in zip(batch, layouts):
            row[: y.size] = y
        own = np.arange(sizes.max()) < sizes[:, None]
        lams = [0.0, 1e-3, 1.0, 0.0, 1e-8, 0.1]
        energies, gy, p0, vals, zs = _gap_kernel(batch, own, eps, w)
        dy, lam_taken = _newton_steps(
            gy[:, :-1] - gy[:, 1:], zs, p0, vals, sizes, own, lams, eps, w
        )
        for i, y in enumerate(layouts):
            m, own1 = np.array([y.size]), np.ones((1, y.size), dtype=bool)
            (e1,), gy1, p01, vals1, zs1 = _gap_kernel(y[None], own1, float(eps[i]), w)
            (dy1,), (lam1,) = _newton_steps(
                gy1[:, :-1] - gy1[:, 1:], zs1, p01, vals1, m, own1, [lams[i]], float(eps[i]), w
            )
            assert np.float64(energies[i]).tobytes() == np.float64(e1).tobytes()
            assert gy[i, : y.size].tobytes() == gy1[0].tobytes()
            assert dy[i, : y.size].tobytes() == dy1.tobytes()
            assert lam_taken[i] == lam1


def test_curvature_across_the_closure_is_not_damped(monkeypatch):
    # near the 48-jump optimum at (1, 2.5), eps = 1e-2, the scaled Hessian
    # has a negative eigenvalue across the closure constraint while its
    # tangent block is positive definite; a Levenberg shift sized for the
    # former crawls to the iteration cap, the constrained step converges
    eps, w = 1e-2, WeightParams(1.0, 2.5)
    calls = count_kernel_calls(monkeypatch)
    refined = refine(48, eps, w, 500)
    assert refined is not None and refined[2]
    assert len(calls) < 100


@pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0, -1e-3])
def test_eps_that_is_not_positive_and_finite_rejected(eps):
    w = WeightParams(0.5, 1.0)
    with pytest.raises(InvalidConfig, match="finite"):
        optimize_sharp(eps, w)
    with pytest.raises(InvalidConfig, match="finite"):
        evaluate_sharp(SawtoothProfile((0.5,)), eps, w)


@pytest.mark.parametrize("eps", [True, "1e-3", None])
def test_eps_that_is_not_a_number_rejected(eps):
    # eps True solved at eps = 1; a string or None raised a bare TypeError
    w, p = WeightParams(0.5, 1.0), SawtoothProfile((0.5,))
    for call in (
        lambda: optimize_sharp(eps, w),
        lambda: evaluate_sharp(p, eps, w),
        lambda: cumulative_energy(p, eps, w, [1.0]),
    ):
        with pytest.raises(InvalidConfig, match="must be a real number"):
            call()


def test_nonpositive_jump_count_rejected():
    with pytest.raises(InvalidConfig):
        optimize_sharp(1e-4, WeightParams(0.0, 0.0), SharpOptions(n_jumps=0))


@pytest.mark.parametrize(
    "kwargs",
    [{"n_jumps": 2.0}, {"n_jumps": 2.5}, {"n_jumps": True}, {"max_iter": 2.5}, {"max_iter": True}],
    ids=str,
)
def test_a_count_that_is_not_an_integer_is_refused(kwargs):
    # n_jumps 2.0 raised a TypeError, True solved one jump under the count
    # key True, and max_iter 2.5 meant no budget: the refinement never
    # reached its step count and reported converged
    with pytest.raises(InvalidConfig, match="must be an integer"):
        SharpOptions(**kwargs)


def test_numpy_integer_counts_solve_as_integers():
    w = WeightParams(0.5, 1.0)
    got = optimize_sharp(1e-3, w, SharpOptions(n_jumps=np.int64(8), max_iter=np.int32(2)))
    want = optimize_sharp(1e-3, w, SharpOptions(n_jumps=8, max_iter=2))
    assert repr(got) == repr(want)
    assert not got.converged


def test_negative_step_budget_rejected():
    # 0 stays valid: it is the zero-step refinement refine=False makes
    with pytest.raises(InvalidConfig, match="nonnegative"):
        SharpOptions(max_iter=-1)
    w = WeightParams(0.0, 0.0)
    opts = SharpOptions(n_jumps=8, max_iter=0)
    assert optimize_sharp(1e-3, w, opts) == optimize_sharp(
        1e-3, w, SharpOptions(n_jumps=8, refine=False)
    )


def test_collapsed_gap_gradient_is_silent():
    # a degenerate layout may hand the kernel a gap of exactly 0; the
    # resulting 0 * inf in the first moments must not leak a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grad = gap_energy_and_grad(
            np.array([0.0, 0.25, 0.5, 0.25]), 1e-5, WeightParams(0.5, 1.0)
        )[1]
    assert grad.shape == (4,)


@pytest.mark.parametrize(
    "alpha, beta, eps, winner",
    [
        # 0 jumps with total 100.0 and u(1) = 1, marked converged: a row of
        # start widths k**199.25 that overflow, normalized to no jumps
        (0.0, 2.99, 1e-3, "the graded start of 55 jumps overflows"),
        # 150 jumps with total nan, marked converged: every start energy
        # is nan, and `not nan > GTOL` passed as convergence
        (0.0, 2.96, 1e-4, "no jump count has a finite energy at eps=0.0001, weights \\(0, 2.96\\)"),
        # counts 126-129 are nan, and the lowest finite total wins, but
        # the totals fall up to it, so it is not bracketed: unconverged
        (0.0, 2.96, 1e-3, (125, "0x1.7d89173978e0bp+0", False)),
        # its neighbour 2 is finite (about 4.2e5), so count 1 is bracketed
        (-1.0, 2.99, 1e-2, (1, "0x1.8e2a5a5ddaee1p+6", True)),
    ],
    ids=("0-2.99-1e-3", "0-2.96-1e-4", "0-2.96-1e-3", "-1-2.99-1e-2"),
)
def test_a_walk_near_beta_3_is_finite_or_refused(alpha, beta, eps, winner):
    # near beta = 3 the graded starts overflow or score nan: a walk
    # returns its lowest finite total, clamped and silent, or raises
    w = WeightParams(alpha, beta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(winner, str):
            with pytest.raises(DivergentIntegral, match=winner):
                optimize_sharp(eps, w)
            return
        res = optimize_sharp(eps, w)
    assert (res.profile.n_jumps, res.energy.total.hex(), res.converged) == winner
    assert not res.profile.unclamped
    # the winner's refinement converged: only the bracket decides
    assert {n: ok for n, _, _, ok in res.candidates}[winner[0]]
    # a count whose energy is not finite did not converge
    assert all(ok is False for _, t, _, ok in res.candidates if not math.isfinite(t))


def gap_energy_and_grad_loop(y, eps, w):
    """Reference gap kernel: the segment moments taken one segment at a
    time, each segment's integral and first moment in float arithmetic,
    and a per-gap loop for the parity suffix sums."""
    m = y.size
    bp = np.empty(m + 1)
    bp[0] = 0.0
    np.cumsum(y, out=bp[1:])
    zs = bp[1:-1]
    signs = np.ones(m)
    signs[1::2] = -1.0
    vals = np.concatenate(([0.0], np.cumsum(signs * y)))
    seg = np.empty(m)
    J = np.zeros(m)
    for j in range(m):
        p0, p1, p2 = (float(x) for x in segment_moments(bp[j], y[j], w.beta))
        u, s = float(vals[j]), float(signs[j])
        # 0 * inf is nan in float arithmetic, as in the kernel's arrays
        seg[j] = p2 + (u * (u * p0 + 2.0 * s * p1) if u != 0.0 else 0.0)
        if j > 0:
            J[j] = u * p0 + s * p1
    surface = 2.0 * eps * float(np.sum(zs**w.alpha)) if zs.size else 0.0
    energy = surface + float(np.sum(seg))
    grad = np.full(m, vals[-1] ** 2)
    if w.alpha != 0.0 and zs.size:
        with np.errstate(divide="ignore"):
            zpow = zs ** (w.alpha - 1.0)
        suf = np.concatenate((np.cumsum(zpow[::-1])[::-1], [0.0]))
        grad += 2.0 * eps * w.alpha * suf
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
    # n = 1 (two gaps), zero gaps (first, which takes the y[0] == 0
    # branch, interior and last), alpha = 0, the beta = 1 pole, beta < 1
    # and > 1; against the loop and against the kernel's own reference,
    # each layout alone and in one zero-padded batch of all 28 layouts
    rng = np.random.default_rng(2024)
    for alpha in (0.0, 0.5, 2.0):
        for beta in (-0.5, 0.0, 0.5, 1.0, 1.5, 2.5):
            w = WeightParams(alpha, beta)
            layouts = []
            for m in (2, 3, 4, 7, 12, 31, 77):
                for zero in (None, 0, m // 2, m - 1):
                    y = _decode_gaps(rng.normal(scale=3.0, size=m), (m + 1) // 2)
                    if zero is not None:
                        y[zero] = 0.0
                    layouts.append(y)
            batch = np.zeros((len(layouts), 77))
            for row, y in zip(batch, layouts):
                row[: y.size] = y
            sizes = np.array([y.size for y in layouts])
            own = np.arange(77) < sizes[:, None]
            energies, grads = _gap_kernel(batch, own, 1e-4, w)[:2]
            for y, e_batch, g_batch in zip(layouts, energies, grads):
                e_new, g_new = gap_energy_and_grad(y, 1e-4, w)
                for ref in (gap_energy_and_grad_loop, gap_energy_and_grad_reference):
                    e_ref, g_ref = ref(y, 1e-4, w)
                    for e, g in ((e_new, g_new), (e_batch, g_batch[: y.size])):
                        assert np.float64(e).tobytes() == np.float64(e_ref).tobytes()
                        assert g.tobytes() == g_ref.tobytes()


def test_masked_row_sums_are_the_row_sums():
    # the refinement sums the prefix of each row of a padded batch with one
    # masked reduction; numpy must give each row's own sum of its prefix,
    # bit for bit: rows past the pairwise block of 128 and past MAX_JUMPS,
    # magnitudes 1e-8..1e8 of both signs, nan and inf inside the prefix,
    # and the parity views `_close` sums
    rng = np.random.default_rng(28)
    for M in (1, 2, 7, 128, 129, 300, 1000, MAX_JUMPS + 1, 2100):
        x = rng.choice((-1.0, 1.0), size=(24, M)) * 10.0 ** rng.uniform(-8.0, 8.0, (24, M))
        # rows 2-5 sum their whole row: one nan, one inf, one -inf, and
        # inf against -inf (at one index when M = 1: then -inf alone)
        at = rng.integers(M, size=5)
        x[2, at[0]], x[3, at[1]], x[4, at[2]] = math.nan, math.inf, -math.inf
        x[5, at[3]], x[5, at[4]] = math.inf, -math.inf
        k = np.concatenate(([0, 1, M, M, M, M], rng.integers(M + 1, size=18)))
        for view, kv in ((x, k), (x[:, 0::2], (k + 1) // 2), (x[:, 1::2], k // 2)):
            with np.errstate(invalid="ignore"):
                masked = np.add.reduce(view, axis=1, where=np.arange(view.shape[1]) < kv[:, None])
                own = [np.add.reduce(row[:n]) for row, n in zip(view, kv)]
            assert masked.tobytes() == np.array(own).tobytes()


def graded_start_reference(n, beta):
    """Reference for `_graded_start_gaps`: the widths k**gamma of one
    count, at the grading `start_grading(beta)`, over their sum, each
    parity closed by `closed_reference`."""
    y = np.arange(1, n + 2, dtype=float) ** start_grading(beta)
    return closed_reference(y / y.sum())


def test_batched_starts_are_the_closed_powers():
    # every count up to MAX_JUMPS, at the grading of beta from -1 to 2.9,
    # in shuffled batches of 32 counts: each row is its count's start,
    # zero-padded
    rng = np.random.default_rng(2048)
    for beta in (-1.0, 0.0, 1.0, 2.0, 2.9):
        for counts in rng.permutation(np.arange(1, MAX_JUMPS + 1)).reshape(-1, 32):
            starts = _graded_start_gaps(counts, WeightParams(0.0, beta))
            assert starts.shape == (32, counts.max() + 1)
            for row, n in zip(starts, counts.tolist()):
                assert row[: n + 1].tobytes() == graded_start_reference(n, beta).tobytes()
                assert not row[n + 1 :].any()


def sharp_energy_reference(profile, eps, w):
    """Reference for `_sharp_energies` on one profile: its segment
    integrals from its own breakpoints, values and slopes, and its own
    sums."""
    bp = profile.breakpoints
    seg = weighted_square_integrals(bp[:-1], bp[1:], profile.values[:-1], profile.slopes, w.beta)
    surface = 2.0 * eps * np.add.reduce(bp[1:-1] ** w.alpha)
    return EnergyBreakdown(surface=float(surface), well=0.0, bulk=float(np.add.reduce(seg)))


def test_batched_scores_are_the_profile_scores():
    # one call scores the breakpoints of closed profiles of 1 to 2048
    # jumps, each at its own eps
    rng = np.random.default_rng(29)
    sizes = [1, 2, 3, 8, 47, 127, 128, 129, 300, 1000, 2047, MAX_JUMPS]
    layouts = [
        _decode_gaps(rng.normal(size=n + 1), (n + 2) // 2)
        for n in sizes + rng.integers(1, MAX_JUMPS + 1, size=8).tolist()
    ]
    profiles = [profile_from_gaps(y) for y in layouts]
    # the profiles of one padded batch are those of its rows alone, and
    # its breakpoint rows are theirs, padded with 1
    m = [y.size for y in layouts]
    batch = np.zeros((len(m), max(m)))
    for row, y in zip(batch, layouts):
        row[: y.size] = y
    got_profiles, bp = _profile_from_gaps(batch, m)
    assert got_profiles == profiles
    assert bp.shape == (len(m), max(m) + 1)
    for row, p in zip(bp, profiles):
        assert row[: p.n_jumps + 2].tobytes() == p.breakpoints.tobytes()
        assert (row[p.n_jumps + 2 :] == 1.0).all()
    for w in (*ORACLE_WEIGHTS, WeightParams(1.0, 2.9)):
        eps = 10.0 ** rng.uniform(-8.0, -1.0, size=len(profiles))
        got = _sharp_energies(bp, m, eps, w)
        want = [sharp_energy_reference(p, e, w) for p, e in zip(profiles, eps.tolist())]
        assert [repr(e) for e in got] == [repr(e) for e in want]


# ---------------------------------------------------------------------------
# oracles: the gap kernel's arithmetic, kept bit for bit, and the Newton
# step and refinement through the dense n x n Hessian, which the
# tridiagonal step reproduces to rounding
# ---------------------------------------------------------------------------


def gap_energy_and_grad_reference(y: np.ndarray, eps: float, w: WeightParams):
    """Reference for `_gap_kernel` on one layout: the same arithmetic,
    with every array formed afresh."""
    m = y.size
    bp = np.empty(m + 1)
    bp[0] = 0.0
    np.cumsum(y, out=bp[1:])
    zs = bp[1:-1]
    signs = np.ones(m)
    signs[1::2] = -1.0
    vals = np.concatenate(([0.0], np.cumsum(signs * y)))
    u = vals[:-1]

    # each segment [z_j, z_j + y_j] written about its left end
    p0, p1, p2 = segment_moments(bp[:-1], y, w.beta)
    # a gap of exactly 0 makes a later segment start at t = 0, where p0
    # and p1 may diverge, and 0 * inf in its first moment; the refinement
    # never steps onto one (no step more than halves a gap), so let the
    # nan through silently
    with np.errstate(invalid="ignore"):
        up0 = u * p0
        sp1 = signs * p1
        # sigma**2 = 1; where u = 0 only p2 survives
        seg = p2 + np.where(u != 0.0, u * (up0 + 2.0 * sp1), 0.0)
    surface = 2.0 * eps * float(np.sum(zs**w.alpha)) if zs.size else 0.0
    energy = surface + float(np.sum(seg))

    # surface suffix term (a jump at z = 0 gives inf: let it flow through)
    grad = np.full(m, vals[-1] ** 2)
    if w.alpha != 0.0 and zs.size:
        with np.errstate(divide="ignore"):
            zpow = zs ** (w.alpha - 1.0)
        suf = np.concatenate((np.cumsum(zpow[::-1])[::-1], [0.0]))
        grad += 2.0 * eps * w.alpha * suf

    # first moments J_j = int_seg t**-beta * u(t) dt for segments j >= 2
    J = np.zeros(m)
    J[1:] = up0[1:] + sp1[1:]

    # suffix sums of J by parity, added right to left starting from 0:
    # suf_even[k] sums J[2k::2], suf_odd[k] sums J[2k+1::2]
    suf_even = np.cumsum(np.concatenate(([0.0], J[0::2][::-1])))[::-1]
    suf_odd = np.cumsum(np.concatenate(([0.0], J[1::2][::-1])))[::-1]
    opp = np.empty(m)
    opp[0::2] = suf_odd[: (m + 1) // 2]  # even i: odd j > i
    opp[1::2] = suf_even[1 : m // 2 + 1]  # odd i: even j > i
    grad += 4.0 * signs * opp
    return energy, grad


def closed_reference(y: np.ndarray) -> np.ndarray:
    """Reference for `_close`, on a copy of y."""
    out = y.copy()
    out[0::2] *= 0.5 / y[0::2].sum()
    out[1::2] *= 0.5 / y[1::2].sum()
    return out


def jump_hessian(y: np.ndarray, eps: float, w: WeightParams):
    """Exact Hessian of the energy in the interior jump positions z_k of
    the layout with gaps y (slope +1 first, right end at sum(y)).

    Moving z_k flips the slope of everything to its right, so
    du(t)/dz_k = 2 s_k [t > z_k], s_k the slope just left of z_k.  With
    P(x) = int_x^1 t**-beta dt this gives

        H_kl = 8 s_k s_l P(z_max(k, l))                         (k != l)
        H_kk = 8 P(z_k) - 4 s_k z_k**-beta u(z_k)
               + 2 eps alpha (alpha - 1) z_k**(alpha - 2)

    Returns H and the vector P(z)."""
    z = np.cumsum(y)[:-1]
    n = z.size
    s = np.ones(n)
    s[1::2] = -1.0
    u = np.cumsum(s * y[:-1])
    P = power_primitive(z, 1.0, -w.beta)
    idx = np.arange(n)
    H = 8.0 * np.outer(s, s) * P[np.maximum.outer(idx, idx)]
    surface = 2.0 * eps * w.alpha * (w.alpha - 1.0) * z ** (w.alpha - 2.0)
    H[idx, idx] += surface - 4.0 * s * z ** (-w.beta) * u
    return H, P


def dense_step_matrix(y: np.ndarray, eps: float, w: WeightParams):
    """The unshifted matrix of the refinement's step: the Hessian scaled
    by d = (8 P)**-1/2, plus unit curvature along the scaled constraint
    normal ds = d s.  Returns it, d and ds."""
    H, P = jump_hessian(y, eps, w)
    s = np.ones(P.size)
    s[1::2] = -1.0
    d = 1.0 / np.sqrt(8.0 * P)
    ds = d * s
    return H * np.outer(d, d) + np.outer(ds, ds) / float(ds @ ds), d, ds


def dense_step(matrix, g: np.ndarray, lam: float):
    """Reference for `_newton_steps`: the constrained Newton step for the
    position gradient g by two dense solves against the step's matrix
    (from `dense_step_matrix`) shifted by lam, or None where its Cholesky
    factorization fails."""
    A0, d, ds = matrix
    A = A0 + lam * np.eye(g.size)
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None
    a, b = np.linalg.solve(A, np.column_stack((d * g, ds))).T
    return d * (b * (float(ds @ a) / float(ds @ b)) - a)


def refine_jump_positions_reference(n: int, eps: float, w: WeightParams, max_iter: int):
    """Reference for `_refine_jump_positions`: the same descent through
    the dense step, with every array formed afresh."""
    if n == 1:
        # closure pins the single jump to 1/2; nothing to optimize
        gaps = np.array([0.5, 0.5])
        return gaps, gap_energy_and_grad_reference(gaps, eps, w)[0], True

    y = np.arange(1, n + 2, dtype=float) ** start_grading(w.beta)
    y = closed_reference(y / y.sum())
    floor = COLLAPSE_TOL * y
    f, gy = gap_energy_and_grad_reference(y, eps, w)
    s = np.ones(n)
    s[1::2] = -1.0
    lam = 0.0
    for _ in range(max_iter):
        g = gy[:-1] - gy[1:]
        if np.max(np.abs(g - s * (float(s @ g) / n))) <= GTOL:
            return y, f, True
        matrix = dense_step_matrix(y, eps, w)
        while (p := dense_step(matrix, g, lam)) is None:
            lam = max(10.0 * lam, LAM_MIN)
        slope = float(g @ p)
        if -0.5 * slope <= FTOL * f:
            # the Newton model predicts no decrease above rounding
            return y, f, True
        # p != 0 and dy sums to 0, so some gap shrinks
        dy = np.diff(p, prepend=0.0, append=0.0)
        shrink = dy < 0.0
        t = min(1.0, float(np.min(0.5 * y[shrink] / -dy[shrink])))
        for _ in range(MAX_BACKTRACKS):
            y_new = closed_reference(y + t * dy)
            f_new, gy_new = gap_energy_and_grad_reference(y_new, eps, w)
            if f_new <= f + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            return y, f, False
        done = f - f_new <= FTOL * f
        y, f, gy = y_new, f_new, gy_new
        if np.any(y < floor):
            return None
        if done:
            return y, f, True
        lam /= 10.0
    return y, f, False


ORACLE_WEIGHTS = [
    WeightParams(0.0, 0.0),
    WeightParams(0.0, 2.5),  # alpha = 0 drops the surface gradient
    WeightParams(0.5, 1.0),  # beta = 1 takes the log branch of P
    WeightParams(1.0, 1.5),
    WeightParams(1.5, 1.4),
    WeightParams(2.0, 0.5),
    WeightParams(-0.5, -0.5),
]


def assert_same_bits(got, want):
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def assert_same_refinement(got, want):
    """The same collapse (None) or flag, energies within 1e-12 relative
    and gaps within 1e-9: the steps agree to rounding, not to the bit."""
    if want is None:
        assert got is None
        return
    assert got is not None
    assert got[2] is want[2]
    assert got[1] == pytest.approx(want[1], rel=1e-12)
    assert np.abs(got[0] - want[0]).max() <= 1e-9


def oracle_counts(eps, w):
    n0 = jump_count_estimate(eps, w)
    return sorted({1, max(1, n0 - 3), n0, n0 + 1, n0 + 4})


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
def test_refinement_matches_its_reference(eps):
    # each count's gaps, energy and flag, or a collapse (None) on both
    # sides; counts below, at and above the optimum, where most collapse
    for w in ORACLE_WEIGHTS:
        for n in oracle_counts(eps, w):
            assert_same_refinement(
                refine(n, eps, w, 500), refine_jump_positions_reference(n, eps, w, 500)
            )


def test_collapsing_refinement_matches_its_reference():
    # count 44 at eps = 1e-5 collapses, and a small budget stops a count
    # unconverged after the same steps
    w = WeightParams(0.5, 1.0)
    assert refine(44, 1e-5, w, 500) is None
    assert refine_jump_positions_reference(44, 1e-5, w, 500) is None
    got = refine(40, 1e-5, w, 7)
    want = refine_jump_positions_reference(40, 1e-5, w, 7)
    assert got[2] is want[2] is False
    assert_same_refinement(got, want)


def test_newton_step_matches_the_dense_step():
    # random layouts over the regime, from shifts 0, 1e-3 and 1: the
    # tridiagonal LDL^T takes the shift at which Cholesky first succeeds on
    # the dense matrix, and its O(n) step is the dense step to 1e-10
    # wherever that matrix is well conditioned
    rng = np.random.default_rng(300)
    raised, compared = 0, 0
    for _ in range(300):
        n = int(rng.integers(2, 200))
        w = WeightParams(rng.uniform(0.0, 2.0), rng.uniform(-1.0, 2.9))
        eps = 10.0 ** rng.uniform(-8.0, -2.0)
        y = _decode_gaps(rng.normal(size=n + 1), (n + 2) // 2)
        m, own = np.array([n + 1]), np.ones((1, n + 1), dtype=bool)
        _, gy, p0, vals, zs = _gap_kernel(y[None], own, eps, w)
        gs = gy[:, :-1] - gy[:, 1:]
        g = gs[0]
        matrix = dense_step_matrix(y, eps, w)
        eig = np.linalg.eigvalsh(matrix[0])
        for lam0 in (0.0, 1e-3, 1.0):
            lam = lam0
            while (want := dense_step(matrix, g, lam)) is None:
                lam = max(10.0 * lam, LAM_MIN)
            (dy,), (lam_taken,) = _newton_steps(gs, zs, p0, vals, m, own, [lam0], eps, w)
            assert lam_taken == lam
            raised += lam != lam0
            if eig[-1] + lam < 1e8 * (eig[0] + lam):
                want = np.diff(want, prepend=0.0, append=0.0)
                assert np.linalg.norm(dy - want) <= 1e-10 * np.linalg.norm(want)
                compared += 1
    # random layouts lie far from a minimum: about two thirds of the
    # starting shifts are raised (592 of 900), and the matrix of every
    # step taken is well conditioned here
    assert raised > 500
    assert compared > 800


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("beta", [0.5, 1.0, 1.5])
def test_gap_gradient_matches_finite_differences(alpha, beta):
    rng = np.random.default_rng(17)
    w = WeightParams(alpha, beta)
    eps = 1e-3
    for m in (4, 9):
        y = _decode_gaps(rng.normal(scale=0.5, size=m), (m + 1) // 2)
        energy, grad = gap_energy_and_grad(y, eps, w)
        # the gaps close the profile, so the kernel scores a real profile
        ref = evaluate_sharp(profile_from_gaps(y), eps, w).total
        assert energy == pytest.approx(ref, rel=1e-13)
        fd = np.empty(m)
        for i in range(m):
            h = 1e-6 * y[i]
            up, dn = y.copy(), y.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (
                gap_energy_and_grad(up, eps, w)[0]
                - gap_energy_and_grad(dn, eps, w)[0]
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
        gy = gap_energy_and_grad(np.diff(z, prepend=0.0, append=1.0), eps, w)[1]
        return gy[:-1] - gy[1:]

    for m in (3, 6, 11):
        y = _decode_gaps(rng.normal(scale=0.5, size=m), (m + 1) // 2)
        z = np.cumsum(y)[:-1]
        hess, _ = jump_hessian(y, eps, w)
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
    # above rounding.  Every count from 1 to 22 solved on its own picks
    # n = 8, as the walk does.  The total is 0.013156223785776766; 50-digit
    # decimal arithmetic gives 0.013156223785776768 on the layout.  With
    # every segment written about t = 0 it read 0.013156223785776786, on
    # a layout whose decimal total is 0.013156223785776772
    w = WeightParams(0.5, 1.0)
    oracle, _, _ = exhaustive_minimum(1e-3, w)
    res = optimize_sharp(1e-3, w)
    assert res.profile.n_jumps == 8
    assert res.energy.total == oracle.energy.total
    assert res.energy.total == pytest.approx(0.013156223785776766, rel=1e-12)
    assert res.energy.total <= 0.013156223785776766 * (1.0 + 1e-14)


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


@pytest.mark.parametrize(
    "y",
    [
        [0.25, 0.0, 0.25, 0.5],  # jumps at 0.25 twice
        [0.0, 0.5, 0.5],  # a jump at 0
        [0.5, 0.5, 0.0],  # a jump at 1
        [0.25, math.nan, 0.25, 0.5],  # jumps that are not finite
    ],
    ids=("coinciding", "at-0", "at-1", "nan"),
)
def test_profile_from_gaps_refuses_degenerate_jumps(y):
    # a layout is taken as it stands, and one whose jumps do not increase
    # strictly inside (0, 1) is not a profile
    with pytest.raises(InvalidProfile):
        profile_from_gaps(np.array(y))
