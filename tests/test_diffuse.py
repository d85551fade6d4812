"""Discrete double-well energy: assembly, gradient, smoothing, descent."""

import numpy as np
import pytest

from mspl import (
    DiffuseField,
    GradedMesh,
    InvalidConfig,
    InvalidField,
    InvalidMu,
    MuTooLarge,
    SawtoothProfile,
    WeightParams,
    build_smoothed,
    evaluate_diffuse,
    gradient_diffuse,
    minimize_diffuse,
    minimize_with_restarts,
    smoothed_graded_init,
    transition_profile,
)
from mspl.diffuse import double_well

W00 = WeightParams(0.0, 0.0)


def zero_field(mesh):
    return DiffuseField(mesh, np.zeros(mesh.n + 1))


def random_field(mesh, rng, amp=0.3):
    v = amp * rng.standard_normal(mesh.n + 1)
    v[0] = v[-1] = 0.0
    return DiffuseField(mesh, v)


# ---------------------------------------------------------------------------
# mesh / field plumbing
# ---------------------------------------------------------------------------


def test_mesh_nodes_formula():
    m = GradedMesh(64, 2.0)
    i = np.arange(65)
    assert np.allclose(m.nodes, (i / 64.0) ** 2, atol=0.0)
    assert m.nodes[0] == 0.0 and m.nodes[-1] == 1.0
    assert np.all(np.diff(m.nodes) > 0.0)


def test_mesh_validation():
    with pytest.raises(InvalidConfig):
        GradedMesh(8)
    with pytest.raises(InvalidConfig):
        GradedMesh(64, 0.5)


def test_field_validation():
    m = GradedMesh(32, 1.0)
    with pytest.raises(InvalidField):
        DiffuseField(m, np.zeros(7))
    bad = np.zeros(33)
    bad[0] = 0.1
    with pytest.raises(InvalidField):
        DiffuseField(m, bad)


def test_double_well_values():
    assert double_well(1.0) == 0.0
    assert double_well(-1.0) == 0.0
    assert double_well(0.0) == 0.25


def test_slope_reversals_count_teeth_not_ripple():
    # 64 uniform elements: saturated runs of slope +-1, with ripple inside
    # +-0.5 both between equal-sign runs (no tooth) and inside a reversal
    runs = [
        [1.0] * 12, [0.3, -0.4, 0.2, -0.1], [1.0] * 4,
        [-1.0] * 16, [-0.2, 0.4, -0.3, 0.1], [-1.0] * 4,
        [-0.2, 0.2], [1.0] * 8, [-1.0] * 4, [1.0] * 3, [-1.0] * 3,
    ]
    slopes = np.concatenate([np.asarray(r) for r in runs])
    mesh = GradedMesh(64, 1.0)
    vals = np.concatenate(([0.0], np.cumsum(slopes / 64.0)))
    vals[-1] = 0.0
    rev = DiffuseField(mesh, vals).slope_reversals()
    assert rev.size == 5
    assert rev == pytest.approx(np.array([20, 45, 54, 58, 61]) / 64.0, abs=1e-12)


# ---------------------------------------------------------------------------
# smoothing construction
# ---------------------------------------------------------------------------


def test_transition_profile_branches():
    mu = 0.3
    assert transition_profile(0.0, mu) == 0.0
    assert transition_profile(mu, mu) == pytest.approx(mu / 2.0, rel=1e-15)
    assert transition_profile(2 * mu, mu) == pytest.approx(3 * mu / 2.0, rel=1e-15)
    # even, and C^1 across the matching point
    ts = np.linspace(-1.0, 1.0, 321)
    f = transition_profile(ts, mu)
    assert np.allclose(f, transition_profile(-ts, mu), atol=0.0)
    h = 1e-7
    d_in = (transition_profile(mu - h, mu) - transition_profile(mu - 3 * h, mu)) / (2 * h)
    d_out = (transition_profile(mu + 3 * h, mu) - transition_profile(mu + h, mu)) / (2 * h)
    assert d_in == pytest.approx(d_out, abs=1e-5)
    with pytest.raises(InvalidMu):
        transition_profile(0.5, 0.0)


def test_smoothed_cap_height():
    # uniform mesh hits t=1/2 exactly; cap peak is 1/2 - mu/2
    mesh = GradedMesh(64, 1.0)
    f = build_smoothed(SawtoothProfile((0.5,)), 0.125, mesh)
    assert f.values[32] == pytest.approx(7.0 / 16.0, rel=1e-14)


def test_smoothed_small_mu_recovers_sawtooth():
    mesh = GradedMesh(128, 1.0)
    p = SawtoothProfile((0.25, 0.5, 0.75))
    exact = p.evaluate(mesh.nodes)
    dev = []
    for mu in (1e-2, 1e-3, 1e-4):
        f = build_smoothed(p, mu, mesh)
        dev.append(np.max(np.abs(f.values - exact)))
    # deviation is exactly mu/2 at the capped nodes
    assert dev[0] == pytest.approx(5e-3, rel=1e-10)
    assert dev[1] < dev[0] and dev[2] < dev[1]


def test_smoothed_is_one_lipschitz():
    mesh = GradedMesh(256, 2.0)
    f = build_smoothed(SawtoothProfile((0.3, 0.8)), 0.05, mesh)
    assert np.max(np.abs(f.element_slopes)) <= 1.0 + 1e-12


def test_smoothed_mu_guard():
    mesh = GradedMesh(64, 1.0)
    with pytest.raises(MuTooLarge):
        build_smoothed(SawtoothProfile((0.5,)), 0.25, mesh)  # cap hits t=0
    with pytest.raises(InvalidMu):
        build_smoothed(SawtoothProfile((0.5,)), -1e-3, mesh)


# ---------------------------------------------------------------------------
# energy assembly
# ---------------------------------------------------------------------------


def test_zero_field_energy_is_well_only():
    for w in (W00, WeightParams(0.5, 1.0)):
        for q in (1.0, 2.0):
            res = evaluate_diffuse(zero_field(GradedMesh(64, q)), 1e-3, w)
            assert res.surface == 0.0
            assert res.bulk == 0.0
            assert res.well == pytest.approx(0.25, rel=1e-14)
            assert res.total == pytest.approx(0.25, rel=1e-14)


def sin_profile_error(n, eps):
    mesh = GradedMesh(n, 1.0)
    t = mesh.nodes
    f = DiffuseField(mesh, np.sin(np.pi * t) / np.pi)
    got = evaluate_diffuse(f, eps, W00).total
    want = eps**2 * np.pi**2 / 2.0 + 3.0 / 32.0 + 1.0 / (2.0 * np.pi**2)
    return abs(got - want) / want


def test_sin_profile_mesh_convergence():
    eps = 1e-2
    e64 = sin_profile_error(64, eps)
    e512 = sin_profile_error(512, eps)
    assert e512 < e64 / 4.0  # at least first order; stencil gives ~second
    assert e512 < 1e-4


def test_smoothed_tooth_transition_cost():
    # one rounded tooth: total = 1/12 + 2*eps*(1 + o(1))
    eps = 1e-3
    mesh = GradedMesh(4096, 1.0)
    f = build_smoothed(SawtoothProfile((0.5,)), eps, mesh)
    total = evaluate_diffuse(f, eps, W00).total
    excess = (total - 1.0 / 12.0) / (2.0 * eps)
    assert abs(excess - 1.0) <= 0.2


def test_bulk_term_is_quadratic():
    mesh = GradedMesh(64, 2.0)
    rng = np.random.default_rng(3)
    f = random_field(mesh, rng)
    g = DiffuseField(mesh, 2.0 * f.values)
    b1 = evaluate_diffuse(f, 1e-3, WeightParams(0.5, 1.0)).bulk
    b2 = evaluate_diffuse(g, 1e-3, WeightParams(0.5, 1.0)).bulk
    assert b2 == pytest.approx(4.0 * b1, rel=1e-12)


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------


def test_gradient_vanishes_at_zero_field():
    g = gradient_diffuse(zero_field(GradedMesh(64, 2.0)), 1e-3, WeightParams(0.5, 1.0))
    assert np.max(np.abs(g)) == 0.0


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(19)
    worst = 0.0
    for w in (W00, WeightParams(0.5, 1.0)):
        mesh = GradedMesh(64, 1.0)
        f = random_field(mesh, rng)
        grad = gradient_diffuse(f, 1e-3, w)
        scale = np.max(np.abs(f.values))
        h = 1e-6 * scale
        for i in range(1, mesh.n, 7):
            vp = f.values.copy()
            vm = f.values.copy()
            vp[i] += h
            vm[i] -= h
            fd = (
                evaluate_diffuse(DiffuseField(mesh, vp), 1e-3, w).total
                - evaluate_diffuse(DiffuseField(mesh, vm), 1e-3, w).total
            ) / (2.0 * h)
            denom = max(abs(fd), np.max(np.abs(grad)))
            worst = max(worst, abs(grad[i - 1] - fd) / denom)
    assert worst <= 1e-6


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------


def test_descent_never_increases_energy():
    eps = 1e-3
    mesh = GradedMesh(512, 1.0)
    init = smoothed_graded_init(eps, W00, mesh)
    res = minimize_diffuse(init, eps, W00, max_iter=300)
    trace = np.asarray(res.trace)
    assert np.all(np.diff(trace) <= 0.0)
    assert res.energy.total <= evaluate_diffuse(init, eps, W00).total


def test_converged_flag_means_small_gradient():
    eps = 1e-2
    mesh = GradedMesh(64, 1.0)
    init = smoothed_graded_init(eps, W00, mesh)
    res = minimize_diffuse(init, eps, W00, tol=1e-6, max_iter=4000)
    assert res.converged
    assert res.status == "converged"
    g = gradient_diffuse(res.field, eps, W00)
    assert np.max(np.abs(g)) <= 1e-6


def test_max_iter_reported_not_raised():
    eps = 1e-3
    mesh = GradedMesh(512, 1.0)
    init = smoothed_graded_init(eps, W00, mesh)
    res = minimize_diffuse(init, eps, W00, max_iter=5)
    assert not res.converged
    assert res.status == "max_iter"
    assert res.iterations == 5


def test_minimum_scales_like_eps_two_thirds():
    eps = 1e-4
    mesh = GradedMesh(4096, 1.0)
    init = smoothed_graded_init(eps, W00, mesh)
    res = minimize_diffuse(init, eps, W00, max_iter=2500)
    ratio = res.energy.total / eps ** (2.0 / 3.0)
    assert 0.3 <= ratio <= 3.0


def test_slope_saturation_outside_layers():
    eps = 1e-4
    mesh = GradedMesh(4096, 1.0)
    init = smoothed_graded_init(eps, W00, mesh)
    res = minimize_diffuse(init, eps, W00, max_iter=2500)
    slopes = res.field.element_slopes
    # flag transition layers by curvature, judge the rest
    d2 = np.abs(np.diff(slopes) / (0.5 * (mesh.spacings[1:] + mesh.spacings[:-1])))
    interior = np.ones(slopes.size, dtype=bool)
    layer = d2 > 10.0
    interior[1:][layer] = False
    interior[:-1][layer] = False
    frac = np.mean(np.abs(np.abs(slopes[interior]) - 1.0) <= 0.1)
    assert frac > 0.9


def test_restarts_return_best_and_diagnostics():
    eps = 1e-3
    mesh = GradedMesh(512, 1.0)
    best, rows = minimize_with_restarts(eps, W00, mesh, restarts=3, seed=0, max_iter=400)
    labels = [r["label"] for r in rows]
    assert labels[0] == "graded"
    assert "sharp-init" in labels
    assert best.energy.total == min(r["final_total"] for r in rows)
    for r in rows:
        assert r["final_total"] <= r["init_total"] + 1e-15


def test_restarts_are_deterministic():
    eps = 1e-3
    mesh = GradedMesh(256, 1.0)
    a, rows_a = minimize_with_restarts(eps, W00, mesh, restarts=4, seed=7, max_iter=200)
    b, rows_b = minimize_with_restarts(eps, W00, mesh, restarts=4, seed=7, max_iter=200)
    assert a.energy.total == b.energy.total
    assert np.array_equal(a.field.values, b.field.values)
    assert rows_a == rows_b
