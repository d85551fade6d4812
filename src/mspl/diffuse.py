"""Diffuse-interface model on a graded mesh.

The energy replaces the slope constraint by a double-well penalty:

    F = int eps**2 t**alpha u''**2  +  W(u')  +  t**(-beta) u**2 dt,
    W(x) = (1 - x**2)**2 / 4,

discretized with nodal values on a power-graded mesh: three-point
nonuniform second differences with dual-cell weights for the curvature
term, elementwise slopes for the well, and the exact singular-weight
integral of the linear interpolant for the bulk.  Minimization takes
Newton steps on the true pentadiagonal Hessian, shifted by a Levenberg
term where the well makes it indefinite, with Armijo backtracking; it
is written here so the descent trace and stopping flags are fully under
our control.  The descent keeps the tooth count of its start, so
`minimize_with_restarts` walks that count, starting each descent from
the smoothed minimizer of the model's sharp-interface limit
(`diffuse_surrogate`) at the count.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import GradedMesh
from .core import EnergyBreakdown, check_energy, power_primitive, segment_moments
from .errors import (
    InvalidConfig,
    InvalidField,
    InvalidMu,
    MuTooLarge,
    UnclampedProfile,
    check_integer,
)
from .sharp import FTOL, LAM_MIN, SawtoothProfile
from .weights import WeightParams

BOUNDARY_TOL = 1e-12
# steps over which a bounded descent measures its recent rate of decrease
DOMINANCE_WINDOW = 10
# a descent has converged at this gradient inf-norm, or once an accepted
# step lowers the energy by at most FTOL of it, as a sharp refinement does
GTOL = 1e-8


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
        so its size is the tooth count).

        Each reversal sits in the gap between two consecutive saturated
        elements of opposite sign, at the first sign change of the slope
        in that gap, interpolated linearly between element midpoints; a
        gap with no sign change (nan slopes) gets its midpoint."""
        nodes = self.mesh.nodes
        positions = 0.5 * (nodes[:-1] + nodes[1:])
        slopes = self.element_slopes
        sat = np.where(slopes >= 0.5, 1, np.where(slopes <= -0.5, -1, 0))
        runs = np.flatnonzero(sat)
        flip = np.flatnonzero(sat[runs[1:]] != sat[runs[:-1]])
        lo, hi = runs[flip], runs[flip + 1]
        # an overflowing product (+inf) and inf * 0 (nan) are no sign change
        with np.errstate(over="ignore", invalid="ignore"):
            change = (slopes[:-1] * slopes[1:] <= 0.0) & (slopes[:-1] != slopes[1:])
        roots = np.flatnonzero(change)
        k = np.searchsorted(roots, lo)
        found = k < roots.size
        found[found] = roots[k[found]] < hi[found]
        j = roots[k[found]]
        frac = slopes[j] / (slopes[j] - slopes[j + 1])
        crossings = 0.5 * (positions[lo] + positions[hi])
        crossings[found] = positions[j] + frac * (positions[j + 1] - positions[j])
        return crossings


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
    quadratic cap of `transition_profile`, shifted by mu/2 toward the
    axis so the result is C^1: peaks sit at u(z_k) - mu/2, valleys at
    u(z_k) + mu/2.
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
        f = transition_profile(d[cap], mu)
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
    """Mesh and weight data of the discrete energy, and the energy,
    gradient and Hessian built from them.

    Row j of the second-difference operator D (interior node j + 1) is
    cl[j] u[j] + cm[j] u[j+1] + cr[j] u[j+2], weighted by the dual-cell
    stiffness dual_w[j].  The energy takes D u as the difference of the
    element slopes at the node over their mean width.  The row's terms
    are each about u / h**2, and summed they would make the energy on
    `GradedMesh(8192, 2)` jitter by 1e-17 under perturbations below its
    resolution, too much for the descent's Armijo test to take its last
    Newton step; the slope form jitters by 3e-19.

    Q, the mass matrix of t**(-beta) on the interior nodes, is tridiagonal
    with diagonal mass_diag (n - 1 entries) and off-diagonal mass_off
    (n - 2).  With the moments M_k of an element of width h
    (`segment_moments`), q_bb = M2 / h**2, q_ab = M1 / h - q_bb and
    q_aa = M0 - 2 M1 / h + q_bb cancel at most sevenfold: on
    `GradedMesh(8192, 2)` each entry is within 2e-15 of 50-digit
    arithmetic (beta = -0.5, 1, 2.5), where moments about t = 0 would
    lose 2 log10(t / h) digits (6.4e-8).
    """

    # on cells too thin for the weights a coefficient overflows or divides
    # by zero; the check at the end refuses the mesh
    @np.errstate(all="ignore")
    def __init__(self, mesh: GradedMesh, alpha: float, beta: float):
        t = mesh.nodes
        self.h = h = mesh.spacings
        hl, hr = h[:-1], h[1:]
        self.cl = 2.0 / (hl * (hl + hr))
        self.cm = -2.0 / (hl * hr)
        self.cr = 2.0 / (hr * (hl + hr))
        self.mean_inv = 2.0 / (hl + hr)
        # dual-cell stiffness weights: integral of t**alpha between
        # midpoints around each interior node
        mids = 0.5 * (t[:-1] + t[1:])
        self.dual_w = power_primitive(mids[:-1], mids[1:], alpha)
        m0, m1, m2 = segment_moments(t[:-1], h, beta)
        q_bb = m2 / (h * h)
        # element j couples nodes j and j + 1, and node 0 is no unknown: the
        # a-side entries start at element 1, whose moments are finite
        m1h = m1[1:] / h[1:]
        q_ab = m1h - q_bb[1:]
        q_aa = m0[1:] - 2.0 * m1h + q_bb[1:]
        self.mass_diag = q_bb[:-1] + q_aa
        self.mass_off = q_ab[:-1]
        if not all(np.isfinite(a).all() for a in vars(self).values()):
            raise InvalidConfig(
                f"the cells of {mesh!r} are too thin for the diffuse operators "
                f"at alpha={alpha:g}, beta={beta:g}"
            )

    def energy(self, x: np.ndarray, eps: float):
        """The discrete energy at the interior values x, and what its
        gradient reuses: the weighted curvatures, the element slopes (which
        the Hessian reuses too) and Q x."""
        u = np.zeros(self.h.size + 1)
        u[1:-1] = x
        p = np.diff(u) / self.h
        curv = (p[1:] - p[:-1]) * self.mean_inv
        wcurv = self.dual_w * curv
        qx = self.mass_diag * x
        qx[1:] += self.mass_off * x[:-1]
        qx[:-1] += self.mass_off * x[1:]
        well, bulk = float(self.h @ double_well(p)), float(x @ qx)
        return EnergyBreakdown(eps * eps * float(curv @ wcurv), well, bulk), wcurv, p, qx

    def gradient(self, wcurv: np.ndarray, p: np.ndarray, qx: np.ndarray, eps: float):
        """Gradient in the interior unknowns, from what `energy` returned
        beside the energy at the same point."""
        wp = double_well_prime(p)
        # transpose of the second-difference operator, interior rows
        dtw = self.cm * wcurv
        dtw[1:] += self.cr[:-1] * wcurv[:-1]
        dtw[:-1] += self.cl[1:] * wcurv[1:]
        g = 2.0 * eps * eps * dtw
        g += wp[:-1] - wp[1:]
        g += 2.0 * qx
        return g

    def energy_and_grad(self, x: np.ndarray, eps: float):
        """Objective and gradient in the interior unknowns."""
        parts, *kept = self.energy(x, eps)
        return parts.total, self.gradient(*kept, eps)

    # on very thin cells the band overflows to inf, which ends the descent
    # as 'line_search_failure' at its first step
    @np.errstate(over="ignore")
    def hessian_base(self, eps: float) -> np.ndarray:
        """Hessian of the curvature and bulk terms, 2 eps**2 D^T W D + 2 Q
        on the interior nodes, in LAPACK's lower band storage with
        bandwidth 2: row 0 the diagonal, row 1 the first and row 2 the
        second subdiagonal, column j holding the entries (j, j), (j + 1, j)
        and (j + 2, j), so the unused tail of rows 1 and 2 is 0.  The array
        is Fortran-ordered, as LAPACK reads it, so passing it makes no
        transposed copy."""
        cl, cm, cr, w = self.cl, self.cm, self.cr, self.dual_w
        ab = np.zeros((3, cm.size), order="F")
        ab[0] = w * cm * cm
        ab[0, 1:] += (w * cr * cr)[:-1]
        ab[0, :-1] += (w * cl * cl)[1:]
        ab[1, :-1] = (w * cm * cr)[:-1] + (w * cl * cm)[1:]
        ab[2, :-2] = (w * cl * cr)[1:-1]
        ab *= 2.0 * eps * eps
        ab[0] += 2.0 * self.mass_diag
        ab[1, :-1] += 2.0 * self.mass_off
        return ab

    def hessian(self, p: np.ndarray, base: np.ndarray) -> np.ndarray:
        """`base` (from `hessian_base`) plus the well Hessian at the element
        slopes p, which `energy` returned at the same point, each element
        adding W''(p) / h = (3 p**2 - 1) / h: the true Hessian, in the same
        band form.  Where slopes lie inside +-1/sqrt(3) the well curves
        down, and the band can be indefinite."""
        well = (3.0 * p * p - 1.0) / self.h
        ab = base.copy(order="F")
        ab[0] += well[:-1] + well[1:]
        ab[1, :-1] -= well[1:-1]
        return ab


_operators = lru_cache(maxsize=32)(_Operators)


@lru_cache(maxsize=8)
def _hessian_base(mesh: GradedMesh, alpha: float, beta: float, eps: float) -> np.ndarray:
    """`_Operators.hessian_base` of the operators of (mesh, alpha, beta) at
    eps, built once and read-only: the walk's band check and each of its
    descents share it, and `hessian` copies it."""
    base = _operators(mesh, alpha, beta).hessian_base(eps)
    base.setflags(write=False)
    return base


def evaluate_diffuse(field: DiffuseField, eps: float, w: WeightParams) -> EnergyBreakdown:
    """Discrete energy of a nodal field, split into curvature (surface),
    double-well, and singular-bulk parts: the arithmetic of the descent's
    objective, so a descent's final energy is the last entry of its
    trace.  The bulk integrates the linear interpolant against
    t**(-beta) exactly."""
    check_energy(eps, w)
    ops = _operators(field.mesh, w.alpha, w.beta)
    return ops.energy(field.values[1:-1], eps)[0]


def gradient_diffuse(field: DiffuseField, eps: float, w: WeightParams) -> np.ndarray:
    """Gradient of the discrete energy in the interior nodal values."""
    check_energy(eps, w)
    ops = _operators(field.mesh, w.alpha, w.beta)
    _, g = ops.energy_and_grad(field.values[1:-1], eps)
    return g


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiffuseMinimum:
    """Where a `minimize_diffuse` descent stopped, and why.

    status is 'converged' (gradient inf-norm at most GTOL, or an accepted
    step that lowers the energy by at most FTOL of it: the stop of a sharp
    refinement), 'max_iter' (budget spent), 'line_search_failure' (no
    backtracked step descends, or no finite Levenberg shift makes the
    Hessian positive definite) or 'dominated' (abandoned under a
    `bound`).  `converged` is status == 'converged'.  `trace` holds the
    energy at the start and after each of the `iterations` accepted
    steps; it never increases."""

    field: DiffuseField
    energy: EnergyBreakdown
    iterations: int
    converged: bool
    status: str  # converged | max_iter | line_search_failure | dominated
    trace: tuple[float, ...]


def minimize_diffuse(
    init: DiffuseField,
    eps: float,
    w: WeightParams,
    max_iter: int = 500,
    *,
    bound: float | None = None,
) -> DiffuseMinimum:
    """Descend from `init` with Levenberg-shifted Newton steps + Armijo
    backtracking.

    Each step solves against the true banded Hessian
    (`_Operators.hessian`) plus a shift lam * I with one LAPACK `dpbsv`
    call, a band Cholesky factorization and solve, per shift tried; the
    call's `info` says whether the shifted matrix is positive definite.
    Where it is not, lam is raised tenfold (to at least LAM_MIN) and the
    call repeated; after each accepted step lam is cut tenfold, so near a
    nondegenerate minimum the shift dies out and the steps become plain
    Newton steps.  The shifted matrix is positive definite, so every step
    is a descent direction.  Each backtracking trial evaluates only the
    energy, and the gradient is taken at the trial accepted.

    The descent has converged at the start, or after an accepted step,
    once the gradient inf-norm is at most GTOL (1e-8), or once that step
    lowered the energy f by at most FTOL * f (FTOL = 1e-14, as in
    `sharp._refine_jump_positions`).  It stops unconverged with
    status='max_iter' after max_iter steps, and with
    status='line_search_failure' on a stalled line search or a Hessian
    that no finite shift makes positive definite (a non-finite entry, or
    a shift that overflows the diagonal); both still return the best
    point seen, and the trace never increases either way.

    With a `bound`, the descent is abandoned with status='dominated' once,
    after step k >= 10 (DOMINANCE_WINDOW), its projected energy
    f_k - (max_iter - k) * (f_{k-10} - f_k) / 10 -- its mean decrease per
    step over the last 10 steps, kept up for the rest of the budget -- is
    above the bound.  The trace decreases, so the projection is at most
    f_k and an abandoned descent ends above the bound.

    A max_iter that is not a nonnegative integer raises InvalidConfig
    before the descent.
    """
    check_energy(eps, w)
    check_integer("max_iter", max_iter)
    if max_iter < 0:
        raise InvalidConfig(f"max_iter must be nonnegative, got {max_iter}")
    # imported here so commands that never minimize skip loading scipy.linalg
    from scipy.linalg.lapack import dpbsv

    ops = _operators(init.mesh, w.alpha, w.beta)
    base = _hessian_base(init.mesh, w.alpha, w.beta, eps)

    x = init.values[1:-1].copy()
    # the energy, and its weighted curvatures, element slopes and Q x
    parts, wcurv, slopes, qx = ops.energy(x, eps)
    f, g = parts.total, ops.gradient(wcurv, slopes, qx, eps)
    trace = [f]
    status = "converged" if float(np.max(np.abs(g))) <= GTOL else None
    it = 0
    lam = 0.0

    while status is None:
        if it == max_iter:
            status = "max_iter"
            break
        ab = ops.hessian(slopes, base)
        # info stays nonzero where no shift is tried: LAPACK's pivot test
        # passes nan, and no shift removes a non-finite entry.  A shift is
        # tried while the shifted diagonal stays finite, which its largest
        # entry tells, as float addition is monotone
        info = -1
        if np.isfinite(ab).all():
            diag = ab[0].copy()
            top = float(diag.max())
            while top + lam < math.inf:
                ab[0] = diag + lam
                _, d, info = dpbsv(ab, -g, lower=1, overwrite_b=1)
                if info == 0:
                    break
                lam = max(10.0 * lam, LAM_MIN)
        if info != 0:
            status = "line_search_failure"
            break
        gd = float(g @ d)

        step = 1.0
        accepted = None
        for _ in range(60):
            x_try = x + step * d
            trial = ops.energy(x_try, eps)
            if trial[0].total <= f + 1e-4 * step * gd:
                accepted = trial
                break
            step *= 0.5
        if accepted is None:
            status = "line_search_failure"
            break

        parts, wcurv, slopes, qx = accepted
        done = f - parts.total <= FTOL * f
        x, f, g = x_try, parts.total, ops.gradient(wcurv, slopes, qx, eps)
        trace.append(f)
        it += 1
        lam /= 10.0
        if done or float(np.max(np.abs(g))) <= GTOL:
            status = "converged"
        elif bound is not None and DOMINANCE_WINDOW <= it < max_iter:
            rate = (trace[-1 - DOMINANCE_WINDOW] - f) / DOMINANCE_WINDOW
            if f - (max_iter - it) * rate > bound:
                status = "dominated"

    return DiffuseMinimum(
        field=init.with_interior(x),
        energy=parts,
        iterations=it,
        converged=status == "converged",
        status=status,
        trace=tuple(trace),
    )


def diffuse_surrogate(eps: float, w: WeightParams) -> tuple[float, WeightParams]:
    """(eps', w') of the sharp model that is the diffuse model's
    sharp-interface limit: its minimizers are what the diffuse minimizers
    approach as eps -> 0.

    Across a diffuse slope reversal at t the curvature cost
    eps**2 t**alpha u''**2 balances the well, and the layer costs
    A0 eps t**(alpha/2), with A0 = 2 int_{-1}^{1} sqrt(W) = 4/3
    (`cell.A0_constant`).  A sharp corner at t costs
    2 eps t**alpha.  The bulk terms agree, so matching the corner costs,
    2 eps' t**alpha' = A0 eps t**(alpha/2), gives

        eps' = A0 eps / 2 = 2 eps / 3,    w' = (alpha / 2, beta),

    and the diffuse model's period law is `cell.sharp_period` at (eps', w').
    """
    return 2.0 * eps / 3.0, WeightParams(0.5 * w.alpha, w.beta)


def smoothed_graded_init(eps: float, w: WeightParams, mesh: GradedMesh) -> DiffuseField:
    """The diffuse model's start: the minimizer of its sharp-interface
    limit, `optimize_sharp` at `diffuse_surrogate(eps, w)`, with its
    corners rounded by caps of half-width eps, capped at 0.45x the
    minimum gap so the caps never overlap.  This is the field the first
    descent of `minimize_with_restarts` starts from."""
    # resolved at call time, as in minimize_with_restarts
    from .sharp import optimize_sharp

    return _smooth_capped(optimize_sharp(*diffuse_surrogate(eps, w)).profile, eps, mesh)


def minimize_with_restarts(
    eps: float,
    w: WeightParams,
    mesh: GradedMesh,
    *,
    n_jumps: int | None = None,
    restarts: int | None = None,
    seed: int | None = None,
    max_iter: int = 500,
):
    """Walk the tooth count of the diffuse minimum.

    The descent keeps the tooth count of its start, so each count gets
    its own start: the minimizer of the model's sharp-interface limit,
    `optimize_sharp` at `diffuse_surrogate(eps, w)` with `max_iter`
    Newton steps, smoothed with caps of half-width eps.  The walk begins
    at the surrogate's own minimizer, count n0, which descends in full.
    One leg then goes down from n0 - 1 and one up from n0 + 1; each
    count descends with the lowest final energy so far as the `bound` of
    `minimize_diffuse`, and a leg ends at the first count that does not
    strictly lower it.  A descent abandoned as 'dominated' ends above
    the bound, so it ends its leg and is never returned.  A pinned
    `n_jumps` is the only count descended.

    The surrogate solve that finds n0 scores the counts around it, and
    each row of its table (`SharpMinimum.candidates`) is the layout a
    solve pinned to that count (SharpOptions(n_jumps=n)) returns.  A
    leg's count starts from its row; only a count the table lacks is
    pinned on the surrogate.

    Each count descends by `minimize_diffuse` with the same `max_iter`,
    so a row is 'converged' by its GTOL or FTOL stop.

    A mesh whose Hessian band (`_hessian_base`) is not finite
    at eps ends every descent as 'line_search_failure' at its first
    step, so it raises InvalidConfig before the surrogate is solved.

    `restarts` and `seed` are ignored: the walk has no random starts, and
    each sharp solve starts from the graded layouts of its own start rule.
    Returns (best DiffuseMinimum, diagnostics rows); one row per count
    descended, in count order, with the pinned count `n_jumps`, the tooth
    count `teeth` the descent ended with (it differs where the descent
    merged or added teeth), and its `init_total`, `final_total`, `status`
    and `iterations`."""
    # resolved at call time, so a wrapper installed on
    # mspl.sharp.optimize_sharp (bench/tracer.py) also times these solves
    from .sharp import SharpOptions, optimize_sharp

    check_energy(eps, w)
    if not np.isfinite(_hessian_base(mesh, w.alpha, w.beta, eps)).all():
        raise InvalidConfig(
            f"the cells of {mesh!r} are too thin for the diffuse Hessian "
            f"at eps={eps:g}, alpha={w.alpha:g}, beta={w.beta:g}"
        )
    surrogate = diffuse_surrogate(eps, w)
    found = optimize_sharp(*surrogate, SharpOptions(n_jumps=n_jumps, max_iter=max_iter))
    # count -> its layout on the surrogate
    layouts = {n: profile for n, _, profile, _ in found.candidates}
    rows = []

    def descend(prof: SawtoothProfile, bound: float | None) -> DiffuseMinimum:
        init = _smooth_capped(prof, eps, mesh)
        res = minimize_diffuse(init, eps, w, max_iter=max_iter, bound=bound)
        rows.append(
            {
                "n_jumps": prof.n_jumps,
                "teeth": res.field.slope_reversals().size,
                "init_total": res.trace[0],
                "final_total": res.energy.total,
                "status": res.status,
                "iterations": res.iterations,
            }
        )
        return res

    best = descend(found.profile, None)
    if n_jumps is None:
        n0 = found.profile.n_jumps
        # a tooth needs at least one cell, so the mesh caps the up leg
        for leg in (range(n0 - 1, 0, -1), range(n0 + 1, mesh.n)):
            for n in leg:
                if n not in layouts:
                    opts = SharpOptions(n_jumps=n, max_iter=max_iter)
                    layouts[n] = optimize_sharp(*surrogate, opts).profile
                res = descend(layouts[n], best.energy.total)
                if not res.energy.total < best.energy.total:
                    break
                best = res
    return best, sorted(rows, key=lambda r: r["n_jumps"])
