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
from mspl.core import power_primitive, power_primitives
from mspl.diffuse import _operators, double_well, double_well_prime

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
# numpy band kernel against a scipy.sparse reference
# ---------------------------------------------------------------------------


def sparse_reference(mesh, w):
    """Second-difference matrix D (interior rows, all n + 1 columns), its
    dual-cell weights and the mass matrix Q of t**(-beta), assembled as
    scipy.sparse matrices straight from the discretization's formulas."""
    import scipy.sparse as sp

    n = mesh.n
    t = mesh.nodes
    h = np.diff(t)
    hl, hr = h[:-1], h[1:]
    cl = 2.0 / (hl * (hl + hr))
    cm = -2.0 / (hl * hr)
    cr = 2.0 / (hr * (hl + hr))
    rows = np.repeat(np.arange(n - 1), 3)
    cols = (np.arange(1, n)[:, None] + np.array([-1, 0, 1])).ravel()
    data = np.column_stack((cl, cm, cr)).ravel()
    D = sp.csr_matrix((data, (rows, cols)), shape=(n - 1, n + 1))
    mids = 0.5 * (t[:-1] + t[1:])
    dual_w = power_primitive(mids[:-1], mids[1:], w.alpha)
    ta, tb = t[:-1], t[1:]
    beta = w.beta
    m2 = np.empty(n)
    m2[0] = tb[0] ** (3.0 - beta) / (3.0 - beta)
    m0 = np.zeros(n)
    m1 = np.zeros(n)
    m0[1:], m1[1:], m2[1:] = power_primitives(
        ta[1:], tb[1:], (-beta, 1.0 - beta, 2.0 - beta)
    )
    q_aa = (tb * tb * m0 - 2.0 * tb * m1 + m2) / (h * h)
    q_ab = (-ta * tb * m0 + (ta + tb) * m1 - m2) / (h * h)
    q_bb = (ta * ta * m0 - 2.0 * ta * m1 + m2) / (h * h)
    q_aa[0] = 0.0
    q_ab[0] = 0.0
    diag = np.zeros(n + 1)
    diag[:-1] += q_aa
    diag[1:] += q_bb
    Q = sp.diags([q_ab, diag, q_ab], offsets=[-1, 0, 1], format="csr")
    return D, dual_w, Q


def sparse_energy_and_grad(ref, mesh, x, eps):
    D, dual_w, Q = ref
    h = mesh.spacings
    u = np.zeros(mesh.n + 1)
    u[1:-1] = x
    curv = D @ u
    wcurv = dual_w * curv
    p = np.diff(u) / h
    qu = Q @ u
    f = eps * eps * float(curv @ wcurv) + float(h @ double_well(p)) + float(u @ qu)
    wp = double_well_prime(p)
    g = 2.0 * eps * eps * (D.T.tocsr() @ wcurv)[1:-1]
    g += wp[:-1] - wp[1:]
    g += 2.0 * qu[1:-1]
    return f, g


KERNEL_CASES = [
    (64, 1.0, W00),
    (257, 1.3, WeightParams(0.3, 1.0 + 1e-13)),
    (512, 2.0, WeightParams(0.5, 1.0)),
    (1000, 1.5, WeightParams(1.0, 2.5)),
    (2048, 2.0, WeightParams(2.0, -0.5)),
]


@pytest.mark.parametrize("n, q, w", KERNEL_CASES)
def test_kernel_matches_sparse_reference(n, q, w):
    mesh = GradedMesh(n, q)
    ref = sparse_reference(mesh, w)
    ops = _operators(n, q, w.alpha, w.beta)
    rng = np.random.default_rng([n, 7])
    for eps in (1e-2, 1e-4):
        f = random_field(mesh, rng)
        x = f.values[1:-1]
        got_f, got_g = ops.energy_and_grad(x, eps)
        want_f, want_g = sparse_energy_and_grad(ref, mesh, x, eps)
        assert got_f == want_f
        assert np.max(np.abs(got_g - want_g)) <= 1e-14 * np.max(np.abs(want_g))
        curv = ref[0] @ f.values
        surface = eps * eps * float(curv @ (ref[1] * curv))
        assert evaluate_diffuse(f, eps, w).surface == surface


def band_to_dense(ab):
    a = np.diag(ab[2]) + np.diag(ab[1, 1:], 1) + np.diag(ab[0, 2:], 2)
    return a + np.triu(a, 1).T


HESSIAN_CASES = [
    (64, 1.0, W00, 1e-2),
    (80, 2.0, WeightParams(0.5, 1.0), 1e-3),
    (96, 1.5, WeightParams(1.0, 1.0 - 1e-9), 3e-3),
    (72, 2.0, WeightParams(2.0, 2.5), 1e-2),
    (64, 1.3, WeightParams(0.25, 2.5), 1e-4),
]


@pytest.mark.parametrize("n, q, w, eps", HESSIAN_CASES)
def test_hessian_base_matches_dense_reference(n, q, w, eps):
    mesh = GradedMesh(n, q)
    D, dual_w, Q = sparse_reference(mesh, w)
    Di = D[:, 1:-1].toarray()
    Qi = Q[1:-1, 1:-1].toarray()
    stiff = 2.0 * eps * eps * Di.T @ (dual_w[:, None] * Di)
    want = stiff + 2.0 * Qi
    # every product and sum in either assembly is bounded by this scale
    scale = 2.0 * eps * eps * np.abs(Di).T @ (dual_w[:, None] * np.abs(Di)) + 2.0 * np.abs(Qi)
    got = band_to_dense(_operators(n, q, w.alpha, w.beta).hessian_base(eps))
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


def steep_field(mesh, rng):
    """Element slopes of magnitude 0.7 to 1.1, beyond 1/sqrt(3) where the
    well is convex, switching sign near t = 0.2, 0.5 and 0.8; the falling
    slopes are scaled so that u(1) = 0."""
    t = mesh.nodes
    h = mesh.spacings
    mid = 0.5 * (t[:-1] + t[1:])
    sign = np.where((mid < 0.2) | ((mid > 0.5) & (mid < 0.8)), 1.0, -1.0)
    p = sign * rng.uniform(0.8, 1.0, h.size)
    p[p < 0] *= np.sum((p * h)[p > 0]) / -np.sum((p * h)[p < 0])
    vals = np.concatenate(([0.0], np.cumsum(p * h)))
    vals[-1] = 0.0
    return DiffuseField(mesh, vals)


@pytest.mark.parametrize("n, q, w, eps", HESSIAN_CASES)
def test_newton_band_is_the_hessian_where_the_well_is_convex(n, q, w, eps):
    mesh = GradedMesh(n, q)
    ops = _operators(n, q, w.alpha, w.beta)
    fld = steep_field(mesh, np.random.default_rng([n, 11]))
    assert np.min(np.abs(fld.element_slopes)) > 1.0 / np.sqrt(3.0)
    x = fld.values[1:-1]
    band = band_to_dense(ops.convexified_hessian(x, ops.hessian_base(eps)))
    delta = 1e-5 * float(np.min(mesh.spacings))
    worst = 0.0
    for j in range(0, n - 1, 3):
        vp, vm = fld.values.copy(), fld.values.copy()
        vp[j + 1] += delta
        vm[j + 1] -= delta
        col = (
            gradient_diffuse(DiffuseField(mesh, vp), eps, w)
            - gradient_diffuse(DiffuseField(mesh, vm), eps, w)
        ) / (2.0 * delta)
        worst = max(worst, np.max(np.abs(col - band[:, j])) / np.max(np.abs(band[:, j])))
    assert worst <= 1e-6
    # with every slope inside the non-convex zone the clipped band stays
    # positive definite
    flat = 0.1 * x
    np.linalg.cholesky(band_to_dense(ops.convexified_hessian(flat, ops.hessian_base(eps))))


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


def test_sharp_init_restart_gets_the_budget(monkeypatch):
    import mspl.sharp

    budgets = []
    solve = mspl.sharp.optimize_sharp

    def spy(eps, w, options=None):
        budgets.append(options.max_iter)
        return solve(eps, w, options)

    monkeypatch.setattr(mspl.sharp, "optimize_sharp", spy)
    mesh = GradedMesh(128, 1.0)
    for budget in (7, None, 2000):
        kw = {} if budget is None else {"max_iter": budget}
        minimize_with_restarts(1e-2, W00, mesh, restarts=2, **kw)
    assert budgets == [7, 500, 2000]


# Per-restart totals of the memory-10 L-BFGS that the convexified Newton
# solver replaced, after 4000 iterations (eight times today's budget) on
# the inputs of the test below.
LBFGS_4000_TOTALS = {
    "graded": 0.017835171363869574,
    "sharp-init": 0.012423828484230449,
    "law-init": 0.013988093896368905,
}


def test_restarts_end_below_the_replaced_solver():
    best, rows = minimize_with_restarts(
        1e-3, WeightParams(0.5, 1.0), GradedMesh(2048, 2.0), restarts=3, seed=0
    )
    assert [r["label"] for r in rows] == list(LBFGS_4000_TOTALS)
    for r in rows:
        assert r["final_total"] <= LBFGS_4000_TOTALS[r["label"]], r["label"]
    assert np.all(np.diff(np.asarray(best.trace)) <= 0.0)
