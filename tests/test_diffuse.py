"""Discrete double-well energy: assembly, gradient, smoothing, descent."""

import numpy as np
import pytest

from mspl import (
    DiffuseField,
    DivergentIntegral,
    GradedMesh,
    InvalidConfig,
    InvalidField,
    InvalidMu,
    MuTooLarge,
    SawtoothProfile,
    SharpOptions,
    WeightParams,
    build_smoothed,
    diffuse_surrogate,
    evaluate_diffuse,
    gradient_diffuse,
    minimize_diffuse,
    minimize_with_restarts,
    optimize_sharp,
    smoothed_graded_init,
    transition_profile,
)
from mspl.core import power_primitive, segment_moments
from mspl.diffuse import _operators, _smooth_capped, double_well, double_well_prime

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
    # a float or bool cell count is refused, a numpy integer taken
    for n in (64.5, 64.0, True):
        with pytest.raises(InvalidConfig, match="must be an integer"):
            GradedMesh(n)
    assert GradedMesh(np.int64(64)).nodes.size == 65


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


def test_a_reversal_without_a_sign_change_sits_mid_gap():
    # a nan node between two opposite saturated runs leaves no sign
    # change to interpolate, so the reversal is the gap's midpoint
    mesh = GradedMesh(32, 1.0)
    slopes = np.array([1.0] * 16 + [-1.0] * 16)
    vals = np.concatenate(([0.0], np.cumsum(slopes / 32.0)))
    vals[-1] = 0.0
    vals[16] = np.nan
    rev = DiffuseField(mesh, vals).slope_reversals()
    assert rev.tolist() == [0.5 * (14.5 + 17.5) / 32.0]


def loop_slope_reversals(field):
    """Element-by-element reference for `DiffuseField.slope_reversals`."""
    nodes = field.mesh.nodes
    positions = 0.5 * (nodes[:-1] + nodes[1:])
    slopes = field.element_slopes
    crossings = []
    state = 0
    last_sat = 0
    for e, p in enumerate(slopes):
        sat = 1 if p >= 0.5 else (-1 if p <= -0.5 else 0)
        if sat == 0:
            continue
        if state != 0 and sat != state:
            # root of the slope between elements last_sat and e
            zc = None
            for j in range(last_sat, e):
                if slopes[j] * slopes[j + 1] <= 0.0 and slopes[j] != slopes[j + 1]:
                    frac = slopes[j] / (slopes[j] - slopes[j + 1])
                    zc = positions[j] + frac * (positions[j + 1] - positions[j])
                    break
            crossings.append(
                zc if zc is not None else 0.5 * (positions[last_sat] + positions[e])
            )
        state = sat
        last_sat = e
    return np.asarray(crossings)


def run_field(mesh, rng):
    """Random runs of saturated slopes, ripple inside +-0.5, exact zeros
    and repeated slopes, with nan nodes where some runs meet."""
    pieces = []
    while sum(len(p) for p in pieces) < mesh.n:
        kind = rng.integers(4)
        size = int(rng.integers(1, 6))
        if kind == 0:
            pieces.append(np.full(size, rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)))
        elif kind == 1:
            pieces.append(rng.uniform(-0.5, 0.5, size))
        elif kind == 2:
            pieces.append(np.zeros(size))
        else:
            pieces.append(np.full(size, rng.uniform(-0.5, 0.5)))
    slopes = np.concatenate(pieces)[: mesh.n]
    vals = np.concatenate(([0.0], np.cumsum(slopes * mesh.spacings)))
    vals[-1] = 0.0
    ends = np.cumsum([len(p) for p in pieces])
    ends = ends[ends < mesh.n]
    vals[rng.choice(ends, size=min(3, ends.size), replace=False)] = np.nan
    return DiffuseField(mesh, vals)


@pytest.mark.parametrize("seed", range(20))
def test_slope_reversals_match_the_loop_on_random_fields(seed):
    rng = np.random.default_rng(seed)
    mesh = GradedMesh(int(rng.integers(16, 400)), float(rng.choice([1.0, 2.0])))
    for field in (run_field(mesh, rng), random_field(mesh, rng)):
        expected = loop_slope_reversals(field)
        got = field.slope_reversals()
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


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


def caps_by_hand(profile, mu, mesh):
    """The rounded sawtooth with each cap written out as the quadratic
    c -+ d**2 / (2 mu) on |d| <= mu: the oracle of the test below."""
    t = mesh.nodes
    u = profile.evaluate(t)
    for k, z in enumerate(profile.jumps):
        d = t - z
        cap = np.abs(d) <= mu
        peak = profile.slopes[k] > 0
        c = profile.values[k + 1] - 0.5 * mu if peak else profile.values[k + 1] + 0.5 * mu
        f = d[cap] ** 2 / (2.0 * mu)
        u[cap] = c - f if peak else c + f
    u[0] = u[-1] = 0.0
    return u


def test_smoothed_caps_are_the_transition_profile():
    # the period-law run's start (criterion 7), then random clamped layouts
    # of paired segments, each bit for bit
    eps, w, mesh = 1e-4, WeightParams(0.5, 1.0), GradedMesh(8192, 2.0)
    layout = optimize_sharp(*diffuse_surrogate(eps, w)).profile
    mu = min(eps, 0.45 * float(np.min(np.diff(layout.breakpoints))))
    start = smoothed_graded_init(eps, w, mesh)
    assert start.values.tobytes() == caps_by_hand(layout, mu, mesh).tobytes()
    rng = np.random.default_rng(17)
    for _ in range(20):
        halves = rng.uniform(0.2, 1.0, int(rng.integers(1, 12)))
        widths = np.repeat(halves / (2.0 * halves.sum()), 2)
        p = SawtoothProfile(tuple(float(z) for z in np.cumsum(widths)[:-1]))
        mu = float(rng.uniform(0.05, 0.45)) * float(np.min(widths))
        mesh = GradedMesh(int(rng.choice([256, 1024])), float(rng.choice([1.0, 2.0])))
        got = build_smoothed(p, mu, mesh).values
        assert got.tobytes() == caps_by_hand(p, mu, mesh).tobytes()


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
    dual-cell weights and the mass matrix Q of t**(-beta) on the interior
    nodes, assembled as scipy.sparse matrices straight from the
    discretization's formulas."""
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
    # element j = 0..n-1 spans nodes j and j + 1, interior nodes 1..n-1 are
    # the unknowns 0..n-2; element 0 touches node 0, which is no unknown,
    # so only its b-side entry is formed
    m0, m1, m2 = segment_moments(t[:-1], h, w.beta)
    q_bb = m2 / (h * h)
    q_ab = m1[1:] / h[1:] - q_bb[1:]
    q_aa = m0[1:] - 2.0 * (m1[1:] / h[1:]) + q_bb[1:]
    # node k gets the b-side entry of element k - 1 and the a-side entry
    # of element k
    diag = np.zeros(n - 1)
    diag += q_bb[:-1]
    diag += q_aa
    Q = sp.diags([q_ab[:-1], diag, q_ab[:-1]], offsets=[-1, 0, 1], format="csr")
    return D, dual_w, Q


def slope_curvature(mesh, u):
    """D u as the difference of the element slopes at each interior node
    over their mean width."""
    h = mesh.spacings
    p = np.diff(u) / h
    return (p[1:] - p[:-1]) * (2.0 / (h[:-1] + h[1:]))


def sparse_energy_and_grad(ref, mesh, x, eps):
    D, dual_w, Q = ref
    h = mesh.spacings
    u = np.zeros(mesh.n + 1)
    u[1:-1] = x
    p = np.diff(u) / h
    curv = slope_curvature(mesh, u)
    wcurv = dual_w * curv
    qx = Q @ x
    f = eps * eps * float(curv @ wcurv) + float(h @ double_well(p)) + float(x @ qx)
    wp = double_well_prime(p)
    g = 2.0 * eps * eps * (D.T.tocsr() @ wcurv)[1:-1]
    g += wp[:-1] - wp[1:]
    g += 2.0 * qx
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
    ops = _operators(mesh, w.alpha, w.beta)
    rng = np.random.default_rng([n, 7])
    for eps in (1e-2, 1e-4):
        f = random_field(mesh, rng)
        x = f.values[1:-1]
        got_f, got_g = ops.energy_and_grad(x, eps)
        want_f, want_g = sparse_energy_and_grad(ref, mesh, x, eps)
        assert got_f == want_f
        assert np.max(np.abs(got_g - want_g)) <= 1e-14 * np.max(np.abs(want_g))
        curv = slope_curvature(mesh, f.values)
        # the row form of D u agrees to the rounding of its terms
        terms = abs(ref[0]) @ np.abs(f.values)
        assert np.all(np.abs(ref[0] @ f.values - curv) <= 1e-14 * terms)
        surface = eps * eps * float(curv @ (ref[1] * curv))
        assert evaluate_diffuse(f, eps, w).surface == surface


def band_to_dense(ab):
    """The symmetric matrix of a lower band with bandwidth 2."""
    a = np.diag(ab[0]) + np.diag(ab[1, :-1], -1) + np.diag(ab[2, :-2], -2)
    return a + np.tril(a, -1).T


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
    Qi = Q.toarray()
    stiff = 2.0 * eps * eps * Di.T @ (dual_w[:, None] * Di)
    want = stiff + 2.0 * Qi
    # every product and sum in either assembly is bounded by this scale
    scale = 2.0 * eps * eps * np.abs(Di).T @ (dual_w[:, None] * np.abs(Di)) + 2.0 * np.abs(Qi)
    got = band_to_dense(_operators(mesh, w.alpha, w.beta).hessian_base(eps))
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


def worst_band_column_error(fld, band, eps, w):
    """Largest relative gap between a column of `band` (every third) and
    the central difference of the gradient in that nodal value."""
    mesh = fld.mesh
    delta = 1e-5 * float(np.min(mesh.spacings))
    worst = 0.0
    for j in range(0, mesh.n - 1, 3):
        vp, vm = fld.values.copy(), fld.values.copy()
        vp[j + 1] += delta
        vm[j + 1] -= delta
        col = (
            gradient_diffuse(DiffuseField(mesh, vp), eps, w)
            - gradient_diffuse(DiffuseField(mesh, vm), eps, w)
        ) / (2.0 * delta)
        worst = max(worst, np.max(np.abs(col - band[:, j])) / np.max(np.abs(band[:, j])))
    return worst


@pytest.mark.parametrize("n, q, w, eps", HESSIAN_CASES)
def test_newton_band_is_the_hessian_where_the_well_is_convex(n, q, w, eps):
    mesh = GradedMesh(n, q)
    ops = _operators(mesh, w.alpha, w.beta)
    fld = steep_field(mesh, np.random.default_rng([n, 11]))
    assert np.min(np.abs(fld.element_slopes)) > 1.0 / np.sqrt(3.0)
    x = fld.values[1:-1]
    band = band_to_dense(ops.hessian(ops.energy(x, eps)[2], ops.hessian_base(eps)))
    assert worst_band_column_error(fld, band, eps, w) <= 1e-6
    # with every slope inside the non-convex zone the band is still the
    # Hessian, and indefinite: the step needs its Levenberg shift there
    flat = fld.with_interior(0.1 * x)
    band = band_to_dense(ops.hessian(ops.energy(0.1 * x, eps)[2], ops.hessian_base(eps)))
    assert worst_band_column_error(flat, band, eps, w) <= 1e-6
    assert np.min(np.linalg.eigvalsh(band)) < 0.0


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
    res = minimize_diffuse(init, eps, W00, max_iter=4000)
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
    best, rows = minimize_with_restarts(eps, W00, mesh, max_iter=400)
    counts = [r["n_jumps"] for r in rows]
    # one row per count, in count order, without gaps: the walk's two legs
    assert counts == list(range(counts[0], counts[-1] + 1))
    assert len(counts) >= 3
    assert best.energy.total == min(r["final_total"] for r in rows)
    for r in rows:
        assert r["final_total"] <= r["init_total"] + 1e-15
        assert r["teeth"] >= 1


def test_restarts_are_deterministic():
    # the walk has no random start: restarts and seed are accepted and ignored
    eps = 1e-3
    mesh = GradedMesh(256, 1.0)
    a, rows_a = minimize_with_restarts(eps, W00, mesh, restarts=4, seed=7, max_iter=200)
    b, rows_b = minimize_with_restarts(eps, W00, mesh, max_iter=200)
    assert a.energy.total == b.energy.total
    assert np.array_equal(a.field.values, b.field.values)
    assert rows_a == rows_b


def _spy_on_surrogate(monkeypatch):
    """Record (eps, w, options) of every `optimize_sharp` solve."""
    import mspl.sharp

    calls = []
    solve = mspl.sharp.optimize_sharp

    def spy(eps, w, options=None):
        calls.append((eps, w, options))
        return solve(eps, w, options)

    monkeypatch.setattr(mspl.sharp, "optimize_sharp", spy)
    return calls


def _spy_on_starts(monkeypatch):
    """Record the surrogate layout of every start `minimize_with_restarts`
    smooths, in the order it smooths them."""
    import mspl.diffuse

    layouts = []
    smooth = mspl.diffuse._smooth_capped

    def spy(profile, mu, mesh):
        layouts.append(profile)
        return smooth(profile, mu, mesh)

    monkeypatch.setattr(mspl.diffuse, "_smooth_capped", spy)
    return layouts


def assert_starts_are_pinned_solves(layouts, surrogate, budget):
    """Every start is the layout the surrogate solve pinned to its count
    returns, with the same budget, exactly."""
    for prof in layouts:
        opts = SharpOptions(n_jumps=prof.n_jumps, max_iter=budget)
        assert prof == optimize_sharp(*surrogate, opts).profile


def test_sharp_init_restart_gets_the_budget(monkeypatch):
    calls = _spy_on_surrogate(monkeypatch)
    layouts = _spy_on_starts(monkeypatch)
    mesh = GradedMesh(128, 1.0)
    surrogate = diffuse_surrogate(1e-2, W00)
    for budget in (7, None, 2000):
        kw = {} if budget is None else {"max_iter": budget}
        calls.clear()
        layouts.clear()
        minimize_with_restarts(1e-2, W00, mesh, **kw)
        want = 500 if budget is None else budget
        assert len(layouts) >= 3
        assert calls and {opts.max_iter for _, _, opts in calls} == {want}
        assert_starts_are_pinned_solves(layouts, surrogate, want)


# Per-start totals of the memory-10 L-BFGS that the convexified Newton
# solver replaced, after 4000 iterations (eight times today's budget) on
# the inputs of the test below; the surrogate layout was its best start.
LBFGS_4000_TOTALS = {
    "graded": 0.017835171363869574,
    "sharp-init": 0.012423828484230449,
    "law-init": 0.013988093896368905,
}


def test_a_descent_reports_the_energy_of_its_trace():
    # evaluate_diffuse takes its parts from the descent's own operators,
    # so a descent's start and its reported energy are the ends of its
    # trace bit for bit; the bulk was once integrated apart, and the two
    # differed at rounding
    eps, w = 1e-3, WeightParams(0.5, 1.0)
    init = smoothed_graded_init(eps, w, GradedMesh(512, 2.0))
    res = minimize_diffuse(init, eps, w, max_iter=20)
    assert res.iterations > 0
    assert evaluate_diffuse(init, eps, w).total == res.trace[0]
    assert res.energy.total == res.trace[-1]


def test_restarts_end_below_the_replaced_solver():
    best, rows = minimize_with_restarts(1e-3, WeightParams(0.5, 1.0), GradedMesh(2048, 2.0))
    assert best.energy.total <= min(LBFGS_4000_TOTALS.values())
    assert np.all(np.diff(np.asarray(best.trace)) <= 0.0)


def test_a_bound_abandons_only_a_descent_projected_above_it():
    eps, budget = 1e-3, 300
    init = smoothed_graded_init(eps, W00, GradedMesh(2048, 2.0))
    free = minimize_diffuse(init, eps, W00, max_iter=budget)
    loose = minimize_diffuse(init, eps, W00, max_iter=budget, bound=np.inf)
    assert loose.status == free.status
    assert np.array_equal(loose.field.values, free.field.values)
    f = np.asarray(free.trace)
    for bound in (-np.inf, 0.0, 0.999 * free.energy.total):
        res = minimize_diffuse(init, eps, W00, max_iter=budget, bound=bound)
        stop = next(
            k
            for k in range(10, free.iterations)
            if f[k] - (budget - k) * (f[k - 10] - f[k]) / 10 > bound
        )
        assert res.status == "dominated"
        assert not res.converged
        assert res.iterations == stop
        assert res.trace == free.trace[: stop + 1]
        assert res.energy.total > bound


@pytest.mark.parametrize(
    "n, q, w, eps",
    [
        (64, 1.0, W00, 1e-2),
        (256, 2.0, WeightParams(0.5, 1.0), 1e-3),
        (128, 1.5, WeightParams(1.0, 1.0), 3e-3),
    ],
)
def test_unshifted_step_is_the_dense_newton_step(n, q, w, eps):
    # a small smooth push off a converged minimum keeps the true Hessian
    # positive definite, so the first step takes no shift and its full
    # length passes the Armijo test
    mesh = GradedMesh(n, q)
    res = minimize_diffuse(smoothed_graded_init(eps, w, mesh), eps, w, max_iter=200)
    assert res.converged
    t = mesh.nodes
    fld = DiffuseField(mesh, res.field.values + 1e-3 * np.sin(3.0 * np.pi * t) * t * (1.0 - t))
    x = fld.values[1:-1]
    ops = _operators(mesh, w.alpha, w.beta)
    hess = band_to_dense(ops.hessian(ops.energy(x, eps)[2], ops.hessian_base(eps)))
    np.linalg.cholesky(hess)
    want = np.linalg.solve(hess, -gradient_diffuse(fld, eps, w))
    step = minimize_diffuse(fld, eps, w, max_iter=1)
    assert step.iterations == 1
    got = step.field.values[1:-1] - x
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_a_non_finite_hessian_ends_the_descent(monkeypatch, entry):
    import mspl.diffuse

    hessian = mspl.diffuse._Operators.hessian

    def broken(self, x, base):
        ab = hessian(self, x, base)
        ab[2, 5] = entry
        return ab

    monkeypatch.setattr(mspl.diffuse._Operators, "hessian", broken)
    init = smoothed_graded_init(1e-2, W00, GradedMesh(64, 1.0))
    res = minimize_diffuse(init, 1e-2, W00)
    assert res.status == "line_search_failure"
    assert res.iterations == 0
    assert len(res.trace) == 1
    assert np.array_equal(res.field.values, init.values)


def test_a_shift_that_overflows_ends_the_descent(monkeypatch):
    import mspl.diffuse

    # finite, but so negative that only a shift past the largest float
    # would make it positive definite
    monkeypatch.setattr(
        mspl.diffuse._Operators, "hessian", lambda self, x, base: np.full_like(base, -1e308)
    )
    init = smoothed_graded_init(1e-2, W00, GradedMesh(64, 1.0))
    res = minimize_diffuse(init, 1e-2, W00)
    assert res.status == "line_search_failure"
    assert res.iterations == 0


@pytest.mark.parametrize("beta", [3.0, 3.5])
def test_a_divergent_bulk_is_refused_before_the_descent(monkeypatch, beta):
    import mspl.diffuse

    def never(*args):
        raise AssertionError("an operator was built")

    init = random_field(GradedMesh(64, 1.0), np.random.default_rng(3))
    monkeypatch.setattr(mspl.diffuse, "_operators", never)
    # the gradient built the operators, and warned at beta 3.5
    for call in (evaluate_diffuse, gradient_diffuse, minimize_diffuse):
        with pytest.raises(DivergentIntegral, match="bulk term infinite"):
            call(init, 1e-2, WeightParams(0.0, beta))


@pytest.mark.parametrize("eps", [0.0, np.nan])
def test_the_gradient_refuses_an_eps_the_energy_refuses(eps):
    # the gradient was zeros at eps 0 and nans at eps nan
    init = random_field(GradedMesh(64, 1.0), np.random.default_rng(3))
    for call in (evaluate_diffuse, gradient_diffuse):
        with pytest.raises(InvalidConfig, match="positive and finite"):
            call(init, eps, W00)


# for each n the least grading at which an operator coefficient at (0.5, 1)
# is not finite, and (8192, 42); the zero field's energy was nan on all but
# (8192, 41)
@pytest.mark.parametrize("n, q", [(16, 135), (64, 90), (1024, 54), (8192, 41), (8192, 42)])
def test_a_mesh_too_thin_for_the_operators_is_refused(n, q):
    mesh = GradedMesh(n, q)
    with pytest.raises(InvalidConfig, match=rf"GradedMesh\(n={n}, q={q}\)"):
        evaluate_diffuse(zero_field(mesh), 1e-3, WeightParams(0.5, 1.0))


@pytest.mark.parametrize("n, q", [(16, 134), (64, 89), (1024, 53), (8192, 40)])
def test_one_step_less_grading_builds_the_operators(n, q):
    energy = evaluate_diffuse(zero_field(GradedMesh(n, q)), 1e-3, WeightParams(0.5, 1.0))
    assert energy.total == energy.well > 0.0


def test_a_hessian_band_that_overflows_ends_the_descent_silently():
    # on GradedMesh(8192, 33) the energies are finite, but the curvature
    # band overflows: numpy warned, and the descent ends at its first step
    eps, w, mesh = 1e-3, WeightParams(0.5, 1.0), GradedMesh(8192, 33)
    assert not np.isfinite(_operators(mesh, w.alpha, w.beta).hessian_base(eps)).all()
    init = smoothed_graded_init(eps, w, mesh)
    res = minimize_diffuse(init, eps, w)
    assert res.status == "line_search_failure"
    assert res.iterations == 0
    assert np.isfinite(res.energy.total)


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
def test_a_hessian_band_that_overflows_is_refused_before_the_walk(monkeypatch, eps):
    # the walk solved the surrogate and descended counts 7-10 on this
    # mesh, each ending 'line_search_failure' after 0 steps
    import mspl.sharp

    calls = []
    monkeypatch.setattr(mspl.sharp, "optimize_sharp", lambda *args: calls.append(args))
    with pytest.raises(InvalidConfig, match=r"too thin for the diffuse Hessian at eps="):
        minimize_with_restarts(eps, WeightParams(0.5, 1.0), GradedMesh(8192, 33))
    assert calls == []


@pytest.mark.parametrize("max_iter", [2.5, 2.0, True])
def test_a_budget_that_is_not_an_integer_is_refused(max_iter):
    # max_iter 2.5 took 5 steps and ended converged where 2 stops at 2
    init = smoothed_graded_init(1e-3, W00, GradedMesh(256, 2.0))
    with pytest.raises(InvalidConfig, match="must be an integer"):
        minimize_diffuse(init, 1e-3, W00, max_iter=max_iter)
    assert minimize_diffuse(init, 1e-3, W00, max_iter=np.int64(2)).status == "max_iter"


def test_a_negative_budget_is_refused_before_the_descent(monkeypatch):
    # a negative budget took no step and reported 'max_iter'
    import mspl.diffuse

    def never(*args):
        raise AssertionError("an operator was built")

    init = random_field(GradedMesh(64, 1.0), np.random.default_rng(3))
    monkeypatch.setattr(mspl.diffuse, "_operators", never)
    with pytest.raises(InvalidConfig, match="nonnegative"):
        minimize_diffuse(init, 1e-2, W00, max_iter=-3)


@pytest.fixture(scope="module")
def period_law_run():
    """Criterion 7's setting, which the diffuse-period benchmark runs."""
    return minimize_with_restarts(1e-4, WeightParams(0.5, 1.0), GradedMesh(8192, 2.0))


def test_period_law_run_converges_in_the_surrogate_basin(period_law_run):
    # the surrogate's own count, 18, converges in few steps and below the
    # energy the unconverged descent from the sharp model's own minimizer
    # reached; its neighbours do not beat it
    eps, w = 1e-4, WeightParams(0.5, 1.0)
    best, rows = period_law_run
    assert best.status == "converged"
    assert np.max(np.abs(gradient_diffuse(best.field, eps, w))) <= 1e-8
    assert best.iterations <= 100
    assert best.energy.total < 1.17347 * eps ** (2.0 / 3.0)
    assert [r["n_jumps"] for r in rows] == [17, 18, 19]
    assert best.energy.total == rows[1]["final_total"]
    assert best.field.slope_reversals().size == rows[1]["teeth"] == 18


def test_slope_reversals_match_the_loop_on_the_period_law_minimizer(period_law_run):
    field = period_law_run[0].field
    assert field.slope_reversals().tobytes() == loop_slope_reversals(field).tobytes()


def test_sharp_init_start_smooths_the_surrogate_minimizer(monkeypatch):
    calls = _spy_on_surrogate(monkeypatch)
    layouts = _spy_on_starts(monkeypatch)
    w = WeightParams(0.5, 1.0)
    _, rows = minimize_with_restarts(1e-3, w, GradedMesh(256, 2.0))
    surrogate = diffuse_surrogate(1e-3, w)
    assert surrogate == (2e-3 / 3.0, WeightParams(0.25, 1.0))
    assert all((e, v) == surrogate for e, v, _ in calls)
    assert all(opts.max_iter == 500 for _, _, opts in calls)
    # the first solve walks to the surrogate's count n0 and starts it; a
    # later solve pins only a count its table lacks, and every count
    # descended has its row
    assert calls[0][2].n_jumps is None
    walk = optimize_sharp(*surrogate)
    assert layouts[0] == walk.profile
    scored = {n for n, _, _, _ in walk.candidates}
    assert not scored & {opts.n_jumps for _, _, opts in calls[1:]}
    assert_starts_are_pinned_solves(layouts, surrogate, 500)
    assert sorted(p.n_jumps for p in layouts) == [r["n_jumps"] for r in rows]


def test_a_pinned_count_is_the_only_count_descended(monkeypatch):
    calls = _spy_on_surrogate(monkeypatch)
    w = WeightParams(0.5, 1.0)
    best, rows = minimize_with_restarts(1e-3, w, GradedMesh(512, 2.0), n_jumps=5)
    assert [opts.n_jumps for _, _, opts in calls] == [5]
    assert [r["n_jumps"] for r in rows] == [5]
    assert best.energy.total == rows[0]["final_total"]


def test_the_start_is_where_the_walk_starts(monkeypatch):
    # the start is, bit for bit, the field the walk's first descent
    # starts from, and a pinned descent starts from the surrogate layout
    # pinned to n, smoothed with caps of half-width eps (below 0.45 of its
    # least gap)
    eps, w, mesh = 1e-3, WeightParams(0.5, 1.0), GradedMesh(256, 2.0)
    descents, _ = _spy_on_descents(monkeypatch)
    minimize_with_restarts(eps, w, mesh)
    assert np.array_equal(smoothed_graded_init(eps, w, mesh).values, descents[0][0].values)
    descents.clear()
    minimize_with_restarts(eps, w, mesh, n_jumps=5)
    pinned = optimize_sharp(*diffuse_surrogate(eps, w), SharpOptions(n_jumps=5)).profile
    mu = min(eps, 0.45 * float(np.min(np.diff(pinned.breakpoints))))
    assert np.array_equal(build_smoothed(pinned, mu, mesh).values, descents[0][0].values)


def test_rows_show_a_pinned_count_that_collapses():
    # pinned 8 on the surrogate descends to a layout of 7 teeth
    best, rows = minimize_with_restarts(1e-2, WeightParams(1.5, 1.4), GradedMesh(2048, 1.0))
    by_count = {r["n_jumps"]: r for r in rows}
    assert by_count[8]["teeth"] == 7
    assert by_count[8]["status"] == "converged"
    assert list(by_count) == sorted(by_count)
    assert best.energy.total == min(r["final_total"] for r in rows)


def _spy_on_descents(monkeypatch):
    """Record (start field, bound) of every descent `minimize_with_restarts`
    runs, in the order it runs them."""
    import mspl.diffuse

    calls = []
    solve = mspl.diffuse.minimize_diffuse

    def spy(init, eps, w, max_iter=500, *, bound=None):
        calls.append((init, bound))
        return solve(init, eps, w, max_iter=max_iter, bound=bound)

    monkeypatch.setattr(mspl.diffuse, "minimize_diffuse", spy)
    return calls, solve


def reference_minimize_diffuse(init, eps, w, max_iter=500, *, bound=None):
    """`minimize_diffuse` written the plain way, as an oracle: each shift
    tried is one `cholesky_banded` call, whose exception rejects it, the
    step is one `cho_solve_banded`, every Armijo trial evaluates the
    gradient too, and the final energy is `evaluate_diffuse` at the
    result.  It has converged at a gradient inf-norm of 1e-8, or once an
    accepted step lowers the energy by at most 1e-14 of it, the stop of a
    sharp refinement.  Returns the minimum and the shifts each step
    tried."""
    from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded

    from mspl.diffuse import DOMINANCE_WINDOW, LAM_MIN, DiffuseMinimum

    gtol, ftol = 1e-8, 1e-14
    ops = _operators(init.mesh, w.alpha, w.beta)
    base = ops.hessian_base(eps)
    x = init.values[1:-1].copy()
    f, g = ops.energy_and_grad(x, eps)
    trace, status, it, lam, tried = [f], None, 0, 0.0, []
    if float(np.max(np.abs(g))) <= gtol:
        status = "converged"
    while status is None and it < max_iter:
        ab = ops.hessian(np.diff(x, prepend=0.0, append=0.0) / ops.h, base)
        diag = ab[0].copy()
        factor = None
        tried.append(0)
        while factor is None and lam < np.inf:
            ab[0] = diag + lam
            tried[-1] += 1
            try:
                factor = cholesky_banded(ab, lower=True)
            except (LinAlgError, ValueError):
                lam = max(10.0 * lam, LAM_MIN)
        if factor is None:
            status = "line_search_failure"
            break
        d = cho_solve_banded((factor, True), -g)
        gd = float(g @ d)
        step, f_new = 1.0, None
        for _ in range(60):
            x_try = x + step * d
            f_try, g_try = ops.energy_and_grad(x_try, eps)
            if f_try <= f + 1e-4 * step * gd:
                f_new = f_try
                break
            step *= 0.5
        if f_new is None:
            status = "line_search_failure"
            break
        f_old = f
        x, f, g = x_try, f_new, g_try
        trace.append(f)
        it += 1
        lam /= 10.0
        if float(np.max(np.abs(g))) <= gtol or f_old - f <= ftol * f_old:
            status = "converged"
        elif bound is not None and DOMINANCE_WINDOW <= it < max_iter:
            rate = (trace[-1 - DOMINANCE_WINDOW] - f) / DOMINANCE_WINDOW
            if f - (max_iter - it) * rate > bound:
                status = "dominated"
    if status is None:
        status = "max_iter"
    field = init.with_interior(x)
    res = DiffuseMinimum(
        field, evaluate_diffuse(field, eps, w), it, status == "converged", status, tuple(trace)
    )
    return res, tried


def assert_same_minimum(got, want):
    assert got.field.values.tobytes() == want.field.values.tobytes()
    assert repr(got.trace) == repr(want.trace)
    assert (got.status, got.converged, got.iterations) == (
        want.status, want.converged, want.iterations
    )
    assert repr(got.energy) == repr(want.energy)


def walk_against_the_reference(monkeypatch, eps, w, mesh):
    """Run a walk and descend each of its starts again with the reference,
    under the same bound: each descent and each row's totals, status and
    iterations must match bit for bit.  Returns the walk's rows, its
    descents as (start, bound, minimum) in the order run, and the shifts
    each step of them tried under the reference."""
    import mspl.diffuse

    solve, seen = mspl.diffuse.minimize_diffuse, []

    def spy(init, eps, w, max_iter=500, *, bound=None):
        res = solve(init, eps, w, max_iter=max_iter, bound=bound)
        seen.append((init, bound, res))
        return res

    monkeypatch.setattr(mspl.diffuse, "minimize_diffuse", spy)
    _, rows = minimize_with_restarts(eps, w, mesh)
    want, tried = [], []
    for init, bound, res in seen:
        ref, shifts = reference_minimize_diffuse(init, eps, w, bound=bound)
        assert_same_minimum(res, ref)
        want.append(
            (evaluate_diffuse(init, eps, w).total, ref.energy.total, ref.status, ref.iterations)
        )
        tried.append(shifts)
    got = [(r["init_total"], r["final_total"], r["status"], r["iterations"]) for r in rows]
    assert repr(sorted(got)) == repr(sorted(want))
    return rows, seen, tried


def test_the_period_law_run_matches_the_reference_descent(monkeypatch):
    # the surrogate's count 18 descends first, then 17, and 19 is abandoned
    # under the bound; 19's first steps are shifted, so the Levenberg
    # ladder is part of what is compared
    rows, seen, tried = walk_against_the_reference(
        monkeypatch, 1e-4, WeightParams(0.5, 1.0), GradedMesh(8192, 2.0)
    )
    by_count = {r["n_jumps"]: r for r in rows}
    assert list(by_count) == [17, 18, 19]
    assert by_count[19]["status"] == "dominated"
    assert [bound is None for _, bound, _ in seen] == [True, False, False]
    (k,) = [k for k, (_, _, res) in enumerate(seen) if res.status == "dominated"]
    assert tried[k][0] > 1
    print(f"period-law run: shifts tried per step of count 19 {tried[k]}")


def test_the_default_diffuse_min_walk_matches_the_reference_descent(monkeypatch):
    # `mspl diffuse-min --eps 1e-2`: each count ends on the decrease test
    # after 5 steps, its gradient inf-norm still above 1e-8; the 30-step
    # stagnation rule this test replaced took 11, 34 and 12
    rows, seen, _ = walk_against_the_reference(monkeypatch, 1e-2, W00, GradedMesh(4096, 2.0))
    assert [(r["n_jumps"], r["status"], r["iterations"]) for r in rows] == [
        (1, "converged", 5), (2, "converged", 5), (3, "converged", 5)
    ]
    worst = [float(np.max(np.abs(gradient_diffuse(res.field, 1e-2, W00)))) for _, _, res in seen]
    assert min(worst) > 1e-8
    print(f"default diffuse-min: max|g| per descent {worst}")


@pytest.mark.parametrize(
    "weights, eps",
    [((0.5, 1.0), 1e-2), ((2.0, 0.0), 1e-2), ((1.0, -1.0), 1e-2), ((0.0, 2.0), 1e-3)],
)
def test_walks_match_the_reference_descent(monkeypatch, weights, eps):
    # long descents, shifted steps and abandoned counts on an
    # under-resolved mesh
    _, _, tried = walk_against_the_reference(
        monkeypatch, eps, WeightParams(*weights), GradedMesh(512, 2.0)
    )
    assert any(n > 1 for shifts in tried for n in shifts)


# (weights, eps, (mesh n, q)) -> the walk's winning count, its tooth count,
# its energy, and the Newton steps of the whole walk, all as the 30-step
# stagnation rule left them (1687 steps over the grid).  The first case is
# the diffuse-period benchmark's, the second `mspl diffuse-min`'s default
WALK_GOLDENS = {
    ((0.5, 1.0), 1e-4, (8192, 2.0)): (18, 18, 0.0024868523436629556, 82),
    ((0.0, 0.0), 1e-2, (4096, 2.0)): (2, 2, 0.04667429074775203, 57),
    ((0.0, 0.0), 1e-3, (4096, 2.0)): (5, 5, 0.009976774138902963, 59),
    ((1.5, 1.4), 1e-2, (2048, 1.0)): (7, 7, 0.04459297539180592, 238),
    ((1.0, 1.0), 1e-3, (2048, 2.0)): (10, 10, 0.009955312619706292, 138),
    ((1.0, 1.0), 1e-4, (8192, 2.0)): (21, 21, 0.001994140323793768, 75),
    ((2.0, -0.5), 1e-3, (2048, 2.0)): (6, 6, 0.0053592061492630065, 131),
    ((0.0, 1.5), 1e-2, (2048, 2.0)): (3, 4, 0.08071883947555206, 172),
    ((0.5, 1.0), 1e-2, (512, 2.0)): (6, 4, 0.054850110658655374, 388),
    ((0.5, 1.0), 1e-3, (1024, 2.0)): (8, 8, 0.011762421621791978, 48),
    ((2.0, 1.0), 1e-3, (512, 2.0)): (14, 14, 0.00507351654014492, 133),
    ((1.0, 2.9), 1e-3, (512, 2.0)): (277, 41, 0.019785720299613486, 166),
}


@pytest.mark.parametrize(
    "case",
    list(WALK_GOLDENS),
    ids=lambda c: f"a{c[0][0]:g}-b{c[0][1]:g}-eps{c[1]:g}-n{c[2][0]}-q{c[2][1]:g}",
)
def test_walk_winners_keep_their_goldens(case):
    # the decrease test ends no walk on another winner, moves no winning
    # energy by more than 1e-15 of it, and takes no more steps
    weights, eps, mesh = case
    count, teeth, total, steps = WALK_GOLDENS[case]
    best, rows = minimize_with_restarts(eps, WeightParams(*weights), GradedMesh(*mesh))
    # at (0, 1.5) counts 3, 4 and 5 end on one 4-tooth minimum; the lowest names it
    winner = min(r["n_jumps"] for r in rows if r["final_total"] == best.energy.total)
    assert (winner, best.field.slope_reversals().size) == (count, teeth)
    assert best.status == "converged"
    assert abs(best.energy.total - total) <= 1e-15 * total
    assert sum(r["iterations"] for r in rows) <= steps


def test_a_walk_builds_its_hessian_band_once(monkeypatch):
    # the band check and each of the five descents built the band afresh,
    # six builds; a configuration no other test walks, so no earlier build
    # is kept
    import mspl.diffuse

    eps, w, mesh = 1e-2, WeightParams(0.5, 1.0), GradedMesh(384, 2.0)
    hessian_base, built = mspl.diffuse._Operators.hessian_base, []

    def building(self, eps):
        built.append(eps)
        return hessian_base(self, eps)

    monkeypatch.setattr(mspl.diffuse._Operators, "hessian_base", building)
    _, rows = minimize_with_restarts(eps, w, mesh)
    assert [r["n_jumps"] for r in rows] == [3, 4, 5, 6, 7]
    assert built == [eps]
    # the kept band is read-only; each step's Hessian is a copy of it
    assert not mspl.diffuse._hessian_base(mesh, w.alpha, w.beta, eps).flags.writeable


@pytest.mark.parametrize("broken", ["nan", "inf", "overflow"])
def test_failed_descents_match_the_reference(monkeypatch, broken):
    import mspl.diffuse

    hessian = mspl.diffuse._Operators.hessian

    def patched(self, x, base):
        if broken == "overflow":
            return np.full_like(base, -1e308)
        ab = hessian(self, x, base)
        ab[2, 5] = float(broken)
        return ab

    monkeypatch.setattr(mspl.diffuse._Operators, "hessian", patched)
    init = smoothed_graded_init(1e-2, W00, GradedMesh(64, 1.0))
    ref, _ = reference_minimize_diffuse(init, 1e-2, W00)
    assert ref.status == "line_search_failure"
    assert_same_minimum(minimize_diffuse(init, 1e-2, W00), ref)


# (weights, eps, mesh, restarts): every weight pair and eps once, meshes of
# 256 to 2048 cells.  `restarts` is the number of starts of the best-of-N
# solver the walk replaced, and RACE_BEST_OF_N its best final energy there
# (graded, surrogate, period-law and seeded perturbed starts, raced
# best-first); the walk ignores `restarts`.  At (1, 2.5) the period law
# places infinitely many corners.
RACES = [
    ((0.0, 0.0), 1e-2, (512, 1.0), 3),
    ((0.0, 0.0), 1e-3, (2048, 2.0), 5),
    ((0.5, 1.0), 1e-2, (1024, 2.0), 5),
    ((0.5, 1.0), 1e-3, (2048, 2.0), 3),
    ((0.0, 1.5), 1e-2, (2048, 2.0), 3),
    ((0.0, 1.5), 1e-3, (1024, 2.0), 5),
    ((1.5, 1.4), 1e-2, (1024, 2.0), 5),
    ((1.5, 1.4), 1e-3, (2048, 2.0), 3),
    ((1.0, 2.5), 1e-2, (256, 2.0), 3),
]
RACE_BEST_OF_N = {
    ((0.0, 0.0), 1e-2): 0.046666002842833676,
    ((0.0, 0.0), 1e-3): 0.009956338799812024,
    ((0.5, 1.0), 1e-2): 0.05487392811884812,
    ((0.5, 1.0), 1e-3): 0.011931990643219453,
    ((0.0, 1.5), 1e-2): 0.08071883947554603,
    ((0.0, 1.5), 1e-3): 0.01900634786652701,
    ((1.5, 1.4), 1e-2): 0.044625804011728186,
    ((1.5, 1.4), 1e-3): 0.00953895370426903,
    ((1.0, 2.5), 1e-2): 0.08047747361993882,
}


@pytest.mark.parametrize("weights,eps,mesh,restarts", RACES)
def test_raced_restarts_match_exhaustive_best_of_n(weights, eps, mesh, restarts):
    # the walk is not above the best unbounded descent over the pinned
    # counts n0 - 4 .. n0 + 4 around the surrogate's count n0, nor above
    # the best-of-N solver it replaced; a count that collapses onto
    # another ties with it to rounding
    w = WeightParams(*weights)
    mesh = GradedMesh(*mesh)
    best, _ = minimize_with_restarts(eps, w, mesh, restarts=restarts, seed=0)
    surrogate = diffuse_surrogate(eps, w)
    n0 = optimize_sharp(*surrogate).profile.n_jumps
    scan = []
    for n in range(max(1, n0 - 4), n0 + 5):
        prof = optimize_sharp(*surrogate, SharpOptions(n_jumps=n)).profile
        scan.append(minimize_diffuse(_smooth_capped(prof, eps, mesh), eps, w).energy.total)
    assert best.energy.total <= min(scan) * (1.0 + 1e-12)
    assert best.energy.total <= RACE_BEST_OF_N[weights, eps] * (1.0 + 1e-12)


DIFFUSE_STATUSES = {"converged", "max_iter", "line_search_failure", "dominated"}


def test_raced_restarts_keep_their_invariants(monkeypatch):
    eps, w = 1e-3, WeightParams(1.5, 1.4)
    calls, _ = _spy_on_descents(monkeypatch)
    best, rows = minimize_with_restarts(eps, w, GradedMesh(2048, 2.0))
    assert len(calls) == len(rows)
    assert best.status != "dominated"
    assert best.energy.total == min(r["final_total"] for r in rows)
    assert any(r["status"] == "dominated" for r in rows)
    for r in rows:
        assert r["status"] in DIFFUSE_STATUSES
        assert r["final_total"] <= r["init_total"]
        if r["status"] == "dominated":
            assert r["final_total"] > best.energy.total
    # the surrogate's count descends with no bound, each later count
    # bounded by the lowest final energy before it
    starts = [evaluate_diffuse(init, eps, w).total for init, _ in calls]
    assert sorted(starts) == sorted(r["init_total"] for r in rows)
    by_start = {r["init_total"]: r["final_total"] for r in rows}
    finals = [by_start[e] for e in starts]
    bounds = [bound for _, bound in calls]
    assert bounds[0] is None
    for k in range(1, len(bounds)):
        assert bounds[k] == min(finals[:k])
