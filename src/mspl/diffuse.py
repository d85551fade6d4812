"""Diffuse-interface model on a graded mesh.

The energy replaces the slope constraint by a double-well penalty:

    F = int eps**2 t**alpha u''**2  +  W(u')  +  t**(-beta) u**2 dt,
    W(x) = (1 - x**2)**2 / 4,

discretized with nodal values on a power-graded mesh: three-point
nonuniform second differences with dual-cell weights for the curvature
term, elementwise slopes for the well, and the exact singular-weight
integral of the linear interpolant for the bulk.  Minimization takes
Newton steps on the pentadiagonal Hessian, with the non-convex part of
the well dropped so every step descends, and Armijo backtracking; it is
written here so the descent trace and stopping flags are fully under
our control.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    EnergyBreakdown,
    WeightParams,
    power_primitive,
    power_primitives,
    weighted_square_integrals,
)
from .errors import (
    DivergentIntegral,
    InvalidConfig,
    InvalidField,
    InvalidMu,
    MuTooLarge,
    UnclampedProfile,
)
from .sharp import (
    GradedSpacingConfig,
    SawtoothProfile,
    build_graded_profile,
    calibrate_bracket_constant,
    default_gamma,
)

BOUNDARY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GradedMesh:
    """Nodes t_i = (i/n)**q, i = 0..n: polynomial clustering toward the
    singular end t = 0 (q = 1 is uniform)."""

    n: int
    q: float = 2.0

    def __post_init__(self):
        if self.n < 16:
            raise InvalidConfig(f"mesh needs at least 16 cells, got {self.n}")
        if not self.q >= 1.0:
            raise InvalidConfig(f"grading exponent must be >= 1, got {self.q!r}")

    @property
    def nodes(self) -> np.ndarray:
        return _mesh_nodes(self.n, self.q)

    @property
    def spacings(self) -> np.ndarray:
        return np.diff(self.nodes)


@lru_cache(maxsize=64)
def _mesh_nodes(n: int, q: float) -> np.ndarray:
    t = (np.arange(n + 1) / n) ** q
    t[0], t[-1] = 0.0, 1.0
    t.setflags(write=False)
    return t


@dataclass(frozen=True, eq=False)
class DiffuseField:
    """Nodal values on a graded mesh, pinned to zero at both ends."""

    mesh: GradedMesh
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (self.mesh.n + 1,):
            raise InvalidField(
                f"expected {self.mesh.n + 1} nodal values, got shape {v.shape}"
            )
        if abs(v[0]) > BOUNDARY_TOL or abs(v[-1]) > BOUNDARY_TOL:
            raise InvalidField("boundary values must vanish")
        v[0] = 0.0
        v[-1] = 0.0
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def element_slopes(self) -> np.ndarray:
        return np.diff(self.values) / self.mesh.spacings

    def with_interior(self, x: np.ndarray) -> "DiffuseField":
        v = np.zeros(self.mesh.n + 1)
        v[1:-1] = x
        return DiffuseField(self.mesh, v)

    def slope_reversals(self) -> np.ndarray:
        """Locations where the element slope crosses zero between
        saturated runs (hysteresis at +-0.5 suppresses rounding ripple,
        so its size is the tooth count)."""
        nodes = self.mesh.nodes
        positions = 0.5 * (nodes[:-1] + nodes[1:])
        slopes = self.element_slopes
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


def double_well(x):
    return 0.25 * (1.0 - np.asarray(x) ** 2) ** 2


def double_well_prime(x):
    x = np.asarray(x)
    return -x * (1.0 - x**2)


def transition_profile(t, mu: float):
    """C^1 corner-rounding kernel: quadratic |t| <= mu, affine outside.

    f(t) = t**2/(2 mu) inside, |t| - mu/2 outside; slope ramps linearly
    from -1 to +1 across the cap, f(0) = 0, f(mu) = mu/2.
    """
    if not mu > 0.0:
        raise InvalidMu(f"cap half-width must be positive, got {mu!r}")
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) <= mu, t * t / (2.0 * mu), np.abs(t) - 0.5 * mu)


def build_smoothed(
    profile: SawtoothProfile, mu: float, mesh: GradedMesh
) -> DiffuseField:
    """Sample the corner-rounded sawtooth on the mesh.

    Each tooth tip at z_k is replaced on [z_k - mu, z_k + mu] by the
    quadratic cap, shifted by mu/2 toward the axis so the result is C^1:
    peaks sit at u(z_k) - mu/2, valleys at u(z_k) + mu/2.
    """
    if not mu > 0.0:
        raise InvalidMu(f"cap half-width must be positive, got {mu!r}")
    if profile.unclamped:
        raise UnclampedProfile(
            f"u(1) = {profile.boundary_value:.3e}; smooth only admissible profiles"
        )
    gaps = np.diff(profile.breakpoints)
    if not mu < 0.5 * float(np.min(gaps)):
        raise MuTooLarge(
            f"mu={mu:g} >= half the minimum gap {np.min(gaps) / 2:g}: caps overlap"
        )
    t = mesh.nodes
    u = profile.evaluate(t)
    vals = profile.values
    slopes = profile.slopes
    for k, z in enumerate(profile.jumps):
        d = t - z
        cap = np.abs(d) <= mu
        if not np.any(cap):
            continue
        peak = slopes[k] > 0  # slope flips + -> - : local max
        c = vals[k + 1] - 0.5 * mu if peak else vals[k + 1] + 0.5 * mu
        f = d[cap] ** 2 / (2.0 * mu)
        u[cap] = c - f if peak else c + f
    u[0] = 0.0
    u[-1] = 0.0
    return DiffuseField(mesh, u)


def _smooth_capped(profile: SawtoothProfile, mu: float, mesh: GradedMesh) -> DiffuseField:
    """build_smoothed with mu capped at 0.45x the minimum gap, so the
    caps never overlap."""
    gaps = np.diff(profile.breakpoints)
    return build_smoothed(profile, min(mu, 0.45 * float(np.min(gaps))), mesh)


# ---------------------------------------------------------------------------
# discrete operators (cached per mesh/weights)
# ---------------------------------------------------------------------------


class _Operators:
    """Mesh and weight data of the discrete energy, as numpy arrays.

    Row j of the second-difference operator (interior node j + 1) is
    cl[j] u[j] + cm[j] u[j+1] + cr[j] u[j+2], weighted by the dual-cell
    stiffness dual_w[j]; the mass matrix of t**(-beta) is tridiagonal
    with diagonal mass_diag (n + 1 entries) and off-diagonal mass_off (n).
    """

    def __init__(self, n: int, q: float, alpha: float, beta: float):
        t = _mesh_nodes(n, q)
        h = np.diff(t)
        self.t = t
        self.h = h
        hl, hr = h[:-1], h[1:]
        self.cl = 2.0 / (hl * (hl + hr))
        self.cm = -2.0 / (hl * hr)
        self.cr = 2.0 / (hr * (hl + hr))
        # dual-cell stiffness weights: integral of t**alpha between
        # midpoints around each interior node
        mids = 0.5 * (t[:-1] + t[1:])
        self.dual_w = power_primitive(mids[:-1], mids[1:], alpha)
        # tridiagonal mass matrix of t**(-beta) on linear elements;
        # the first element keeps only its (1,1) block because u_0 = 0
        ta, tb = t[:-1], t[1:]
        m2 = np.empty(n)
        m2[0] = tb[0] ** (3.0 - beta) / (3.0 - beta)
        m0 = np.zeros(n)
        m1 = np.zeros(n)
        m0[1:], m1[1:], m2[1:] = power_primitives(
            ta[1:], tb[1:], (-beta, 1.0 - beta, 2.0 - beta)
        )
        h2 = h * h
        q_aa = (tb * tb * m0 - 2.0 * tb * m1 + m2) / h2
        q_ab = (-ta * tb * m0 + (ta + tb) * m1 - m2) / h2
        q_bb = (ta * ta * m0 - 2.0 * ta * m1 + m2) / h2
        q_aa[0] = 0.0
        q_ab[0] = 0.0
        self.mass_diag = np.zeros(n + 1)
        self.mass_diag[:-1] += q_aa
        self.mass_diag[1:] += q_bb
        self.mass_off = q_ab

    def curvature(self, u: np.ndarray) -> np.ndarray:
        """Second differences of the nodal values at the interior nodes."""
        return self.cl * u[:-2] + self.cm * u[1:-1] + self.cr * u[2:]

    def energy_and_grad(self, x: np.ndarray, eps: float):
        """Objective and gradient in the interior unknowns."""
        n = self.h.size
        u = np.zeros(n + 1)
        u[1:-1] = x
        curv = self.curvature(u)
        wcurv = self.dual_w * curv
        surface = eps * eps * float(curv @ wcurv)
        p = np.diff(u) / self.h
        well = float(self.h @ double_well(p))
        qu = self.mass_diag * u
        qu[1:] += self.mass_off * u[:-1]
        qu[:-1] += self.mass_off * u[1:]
        bulk = float(u @ qu)
        f = surface + well + bulk
        wp = double_well_prime(p)
        # transpose of the second-difference operator, interior rows
        dtw = self.cm * wcurv
        dtw[1:] += self.cr[:-1] * wcurv[:-1]
        dtw[:-1] += self.cl[1:] * wcurv[1:]
        g = 2.0 * eps * eps * dtw
        g += wp[:-1] - wp[1:]
        g += 2.0 * qu[1:-1]
        return f, g

    def hessian_base(self, eps: float) -> np.ndarray:
        """Hessian of the curvature and bulk terms, 2 eps**2 D^T W D + 2 Q
        on the interior nodes, in upper band form with bandwidth 2 (row 2
        the diagonal, row 1 the first and row 0 the second superdiagonal,
        right-aligned as `scipy.linalg.solveh_banded` reads it)."""
        cl, cm, cr, w = self.cl, self.cm, self.cr, self.dual_w
        ab = np.zeros((3, cm.size))
        ab[2] = w * cm * cm
        ab[2, 1:] += (w * cr * cr)[:-1]
        ab[2, :-1] += (w * cl * cl)[1:]
        ab[1, 1:] = (w * cm * cr)[:-1] + (w * cl * cm)[1:]
        ab[0, 2:] = (w * cl * cr)[1:-1]
        ab *= 2.0 * eps * eps
        ab[2] += 2.0 * self.mass_diag[1:-1]
        ab[1, 1:] += 2.0 * self.mass_off[1:-1]
        return ab

    def convexified_hessian(self, x: np.ndarray, base: np.ndarray) -> np.ndarray:
        """`base` (from `hessian_base`) plus the well Hessian at the interior
        values x, with each element's W''(p) / h = (3 p**2 - 1) / h clipped
        at 0: symmetric positive definite, in the same band form."""
        p = np.diff(x, prepend=0.0, append=0.0) / self.h
        well = np.maximum(3.0 * p * p - 1.0, 0.0) / self.h
        ab = base.copy()
        ab[2] += well[:-1] + well[1:]
        ab[1, 1:] -= well[1:-1]
        return ab


@lru_cache(maxsize=32)
def _operators(n: int, q: float, alpha: float, beta: float) -> _Operators:
    return _Operators(n, q, alpha, beta)


def evaluate_diffuse(field: DiffuseField, eps: float, w: WeightParams) -> EnergyBreakdown:
    """Discrete energy of a nodal field, split into curvature (surface),
    double-well, and singular-bulk parts.  The bulk integrates the linear
    interpolant against t**(-beta) exactly."""
    if not eps > 0.0:
        raise InvalidConfig(f"eps must be positive, got {eps!r}")
    if not w.beta < 3.0:
        raise DivergentIntegral(f"beta={w.beta:g} >= 3: bulk term infinite")
    ops = _operators(field.mesh.n, field.mesh.q, w.alpha, w.beta)
    u = field.values
    curv = ops.curvature(u)
    surface = eps * eps * float(curv @ (ops.dual_w * curv))
    p = np.diff(u) / ops.h
    well = float(ops.h @ double_well(p))
    t = ops.t
    bulk = float(
        np.sum(weighted_square_integrals(t[:-1], t[1:], u[:-1], p, w.beta))
    )
    return EnergyBreakdown(surface=surface, well=well, bulk=bulk)


def gradient_diffuse(field: DiffuseField, eps: float, w: WeightParams) -> np.ndarray:
    """Gradient of the discrete energy in the interior nodal values."""
    ops = _operators(field.mesh.n, field.mesh.q, w.alpha, w.beta)
    _, g = ops.energy_and_grad(field.values[1:-1], eps)
    return g


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiffuseMinimum:
    field: DiffuseField
    energy: EnergyBreakdown
    iterations: int
    converged: bool
    status: str  # converged | max_iter | line_search_failure
    trace: tuple[float, ...]


def minimize_diffuse(
    init: DiffuseField,
    eps: float,
    w: WeightParams,
    tol: float | None = None,
    max_iter: int = 500,
) -> DiffuseMinimum:
    """Descend from `init` with convexified Newton steps + Armijo backtracking.

    Each step solves with the banded Hessian of the curvature and bulk
    terms plus the well Hessian clipped per element to
    max(3 p**2 - 1, 0) / h, which is symmetric positive definite, so
    every step is a descent direction.  Where no element's slope lies
    inside +-1/sqrt(3) the clip is inactive and the step is plain Newton.

    Stops on gradient inf-norm <= tol (default 1e-8) or when the energy
    stagnates at rounding level for 30 consecutive steps; iteration
    budget exhaustion is reported via status='max_iter', a stalled line
    search or a failed factorization via status='line_search_failure' --
    both still return the best point seen, and the trace is strictly
    decreasing either way.
    """
    if not eps > 0.0:
        raise InvalidConfig(f"eps must be positive, got {eps!r}")
    # imported here so commands that never minimize skip loading scipy.linalg
    from scipy.linalg import LinAlgError, solveh_banded

    gtol = 1e-8 if tol is None else tol
    ops = _operators(init.mesh.n, init.mesh.q, w.alpha, w.beta)
    base = ops.hessian_base(eps)

    x = init.values[1:-1].copy()
    f, g = ops.energy_and_grad(x, eps)
    trace = [f]
    status = "max_iter"
    it = 0
    stagnant = 0

    while it < max_iter:
        if float(np.max(np.abs(g))) <= gtol:
            status = "converged"
            break
        try:
            d = solveh_banded(ops.convexified_hessian(x, base), -g, overwrite_ab=True)
        except LinAlgError:
            status = "line_search_failure"
            break
        gd = float(g @ d)

        step = 1.0
        f_new = None
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

        stagnant = stagnant + 1 if f - f_new <= 1e-15 * max(1.0, abs(f)) else 0
        x, f, g = x_try, f_new, g_try
        trace.append(f)
        it += 1
        if stagnant >= 30:
            status = "converged"
            break
    if status == "max_iter" and float(np.max(np.abs(g))) <= gtol:
        status = "converged"

    field = init.with_interior(x)
    energy = evaluate_diffuse(field, eps, w)
    return DiffuseMinimum(
        field=field,
        energy=energy,
        iterations=it,
        converged=status == "converged",
        status=status,
        trace=tuple(trace),
    )


def smoothed_graded_init(
    eps: float,
    w: WeightParams,
    mesh: GradedMesh,
    n: int | None = None,
    gamma: float | None = None,
    mu: float | None = None,
) -> DiffuseField:
    """Canonical starting point: corner-rounded graded sawtooth.

    Tooth count defaults to the cheapest count among a small family
    around the calibrated c * eps**(-1/3); mu defaults to eps, capped at
    0.45x the minimum gap so the caps never overlap.
    """
    gamma = default_gamma(w.beta) if gamma is None else gamma
    mu = eps if mu is None else mu

    def make(count: int) -> DiffuseField:
        prof = build_graded_profile(GradedSpacingConfig(count, gamma))
        return _smooth_capped(prof, mu, mesh)

    if n is not None:
        return make(n)
    c = calibrate_bracket_constant(w, gamma)
    base = c * eps ** (-1.0 / 3.0)
    counts = sorted({max(1, round(base * fac)) for fac in (0.6, 0.8, 1.0, 1.25, 1.6)})
    best = None
    for count in counts:
        fld = make(count)
        total = evaluate_diffuse(fld, eps, w).total
        if best is None or total < best[0]:
            best = (total, fld)
    return best[1]


def minimize_with_restarts(
    eps: float,
    w: WeightParams,
    mesh: GradedMesh,
    *,
    restarts: int = 3,
    seed: int = 0,
    tol: float | None = None,
    max_iter: int = 500,
    gamma: float | None = None,
):
    """Best of several descents.  Restart 0 is the plain smoothed graded
    construction; restart 1 smooths the refined sharp-model minimizer
    (its jump layout is a much better guess at the final tooth spacing);
    later restarts rescale the tooth count and add a small seeded smooth
    perturbation.  Returns (best DiffuseMinimum, diagnostics rows)."""
    # resolved at call time, so a wrapper installed on
    # mspl.sharp.optimize_sharp (bench/tracer.py) also times this solve
    from .sharp import SharpOptions, optimize_sharp

    base_init = smoothed_graded_init(eps, w, mesh, gamma=gamma)
    saw_teeth = base_init.slope_reversals().size
    inits: list[tuple[str, DiffuseField]] = [("graded", base_init)]
    if restarts >= 2:
        prof = optimize_sharp(eps, w, SharpOptions(gamma=gamma, max_iter=max_iter)).profile
        inits.append(("sharp-init", _smooth_capped(prof, eps, mesh)))
    if restarts >= 3 and w.limit_ok:
        # teeth spaced by the predicted local period; a distinct basin
        # from the sharp layout whenever alpha > 0
        from .asymptotics import period_law_profile

        law = period_law_profile(eps, w)
        inits.append(("law-init", _smooth_capped(law, eps, mesh)))
    factors = [1.25, 0.8, 1.5, 0.65, 2.0]
    k = 2
    while len(inits) < max(1, restarts):
        fac = factors[(k - 2) % len(factors)]
        count = max(1, round(max(saw_teeth, 1) * fac))
        fld = smoothed_graded_init(eps, w, mesh, n=count, gamma=gamma)
        rng = np.random.default_rng([seed, k])
        t = mesh.nodes
        bump = np.zeros_like(t)
        for _ in range(3):
            j = int(rng.integers(1, 9))
            bump += float(rng.normal()) * np.sin(np.pi * j * t)
        amp = 0.02 * float(np.max(np.abs(fld.values)))
        vals = fld.values + amp * bump
        vals[0] = vals[-1] = 0.0
        inits.append((f"restart{k}", DiffuseField(mesh, vals)))
        k += 1

    best = None
    diagnostics = []
    for label, init in inits:
        res = minimize_diffuse(init, eps, w, tol=tol, max_iter=max_iter)
        init_total = evaluate_diffuse(init, eps, w).total
        diagnostics.append(
            {
                "label": label,
                "init_total": init_total,
                "final_total": res.energy.total,
                "status": res.status,
                "iterations": res.iterations,
            }
        )
        if best is None or res.energy.total < best.energy.total:
            best = res
    return best, diagnostics
