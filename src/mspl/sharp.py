"""Sharp-interface model: slope-one sawtooth profiles and their energy.

A profile is an alternating-slope piecewise affine function on [0, 1]
pinned to zero at both ends.  Its energy is

    surface + bulk  =  2*eps * sum_k z_k**alpha  +  int t**(-beta) u(t)**2 dt,

each interior slope reversal at z_k carrying curvature mass 2.  Everything
here is exact given the jump positions; optimization is over those
positions and their count.
"""

import math
import threading
from dataclasses import dataclass
from functools import cached_property

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
    InvalidProfile,
    InvalidSample,
    UnclampedProfile,
)

# |u(1)| below this counts as clamped (returning to zero).
CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class SawtoothProfile:
    """Piecewise affine profile with slopes +-1 alternating at `jumps`.

    `jumps` are the interior slope-reversal locations, strictly
    increasing inside (0, 1); the slope on [0, z_1] is `initial_slope`.
    u(0) = 0 always; u(1) = 0 only if the jump pattern closes, which the
    `unclamped` flag reports.
    """

    jumps: tuple[float, ...]
    initial_slope: int = 1

    def __post_init__(self):
        if self.initial_slope not in (-1, 1):
            raise InvalidProfile(f"initial_slope must be +-1, got {self.initial_slope!r}")
        zs = np.asarray(self.jumps, dtype=float)
        if zs.size and not (
            np.all(zs > 0.0) and np.all(zs < 1.0) and np.all(np.diff(zs) > 0.0)
        ):
            raise InvalidProfile(
                "jumps must be strictly increasing and strictly inside (0, 1)"
            )

    @property
    def n_jumps(self) -> int:
        return len(self.jumps)

    @cached_property
    def breakpoints(self) -> np.ndarray:
        return np.concatenate(([0.0], np.asarray(self.jumps, dtype=float), [1.0]))

    @cached_property
    def slopes(self) -> np.ndarray:
        """Slope on each of the n_jumps + 1 segments."""
        signs = np.ones(self.n_jumps + 1)
        signs[1::2] = -1.0
        return self.initial_slope * signs

    @cached_property
    def values(self) -> np.ndarray:
        """u at each breakpoint (first entry 0 by construction)."""
        gaps = np.diff(self.breakpoints)
        return np.concatenate(([0.0], np.cumsum(self.slopes * gaps)))

    @property
    def boundary_value(self) -> float:
        return float(self.values[-1])

    @property
    def unclamped(self) -> bool:
        return abs(self.boundary_value) > CLAMP_TOL

    def evaluate(self, t):
        """u(t) for scalar or array t in [0, 1]."""
        return np.interp(np.asarray(t, dtype=float), self.breakpoints, self.values)


@dataclass(frozen=True)
class GradedSpacingConfig:
    """Tooth-width grading law: n interior "primary" jumps with gaps
    proportional to k**gamma, k = 1..n+1."""

    n: int
    gamma: float

    def __post_init__(self):
        if self.n < 1:
            raise InvalidConfig(f"need at least one jump, got n={self.n}")
        if not self.gamma > -1.0:
            raise InvalidConfig(f"gamma must exceed -1, got {self.gamma!r}")

    def spacings(self) -> np.ndarray:
        k = np.arange(1, self.n + 2, dtype=float)
        y = k**self.gamma
        return y / y.sum()


def default_gamma(beta: float) -> float:
    """Default grading exponent: the smallest nonnegative exponent that
    balances the bulk-sum scaling, plus a 0.25 safety margin."""
    return max(0.0, 2.0 / (3.0 - beta) - 1.0) + 0.25


def close_profile(p: SawtoothProfile) -> SawtoothProfile:
    """Make u(1) = 0 by inserting one auxiliary jump (or, degenerately,
    deleting one).

    Inserting a jump at w flips every slope after it, so the new boundary
    value is 2*u(w) - u(1); closure therefore needs u(w) = u(1)/2, which
    exists by the intermediate value theorem.  The last gap is preferred
    so the graded teeth stay untouched.
    """
    r = p.boundary_value
    if abs(r) <= CLAMP_TOL:
        return p
    bp = p.breakpoints
    vals = p.values
    slopes = p.slopes

    # Preferred: solve inside the last gap.
    s_last = slopes[-1]
    zn, un = bp[-2], vals[-2]
    w = 0.5 * (zn + 1.0 - s_last * un)
    eps_gap = 1e-12 * (bp[-1] - bp[-2])
    if zn + eps_gap < w < 1.0 - eps_gap:
        return SawtoothProfile(p.jumps + (w,), p.initial_slope)

    # Otherwise scan gaps from the back for a strict crossing of r/2.
    target = 0.5 * r
    for j in range(len(slopes) - 1, -1, -1):
        a, b = vals[j], vals[j + 1]
        if (target - a) * (target - b) < 0.0:
            w = bp[j] + (target - a) / slopes[j]
            jumps = sorted(p.jumps + (w,))
            return SawtoothProfile(tuple(jumps), p.initial_slope)

    # Degenerate: r/2 hit exactly at an existing jump -- deleting that
    # jump flips the tail the same way.
    for j in range(1, len(bp) - 1):
        if vals[j] == target:
            jumps = tuple(z for i, z in enumerate(p.jumps) if i != j - 1)
            return SawtoothProfile(jumps, p.initial_slope)

    raise InvalidProfile("could not close profile (no crossing of u(1)/2 found)")


def build_graded_profile(
    cfg: GradedSpacingConfig, *, clamp: bool = True
) -> SawtoothProfile:
    """Sawtooth with gap widths proportional to k**gamma.

    With clamp=False the profile has exactly cfg.n jumps at the partial
    sums of the graded gaps and generally does NOT return to zero at
    t = 1.  With clamp=True (default) one auxiliary jump is added so the
    result is admissible.
    """
    y = cfg.spacings()
    jumps = np.cumsum(y)[:-1]
    p = SawtoothProfile(tuple(float(z) for z in jumps))
    if clamp:
        p = close_profile(p)
    return p


def evaluate_sharp(
    profile: SawtoothProfile,
    eps: float,
    w: WeightParams,
    *,
    allow_unclamped: bool = False,
) -> EnergyBreakdown:
    """Exact energy of a sawtooth profile.

    surface = 2*eps * sum z_k**alpha (each slope reversal carries
    curvature mass 2); bulk integrates t**(-beta) u**2 in closed form
    per segment.  The well component is identically zero in this model.
    """
    if not eps > 0.0:
        raise InvalidConfig(f"eps must be positive, got {eps!r}")
    if not w.beta < 3.0:
        raise DivergentIntegral(f"beta={w.beta:g} >= 3: bulk term infinite")
    if profile.unclamped and not allow_unclamped:
        raise UnclampedProfile(
            f"u(1) = {profile.boundary_value:.3e}; pass allow_unclamped=True "
            "to evaluate anyway"
        )
    zs = np.asarray(profile.jumps, dtype=float)
    surface = 2.0 * eps * float(np.sum(zs**w.alpha)) if zs.size else 0.0
    bp = profile.breakpoints
    bulk = float(
        np.sum(
            weighted_square_integrals(
                bp[:-1], bp[1:], profile.values[:-1], profile.slopes, w.beta
            )
        )
    )
    return EnergyBreakdown(surface=surface, well=0.0, bulk=bulk)


@dataclass(frozen=True)
class CumulativeEnergyProfile:
    """phi(x): energy of the profile restricted to [0, x], sampled at xs."""

    xs: tuple[float, ...]
    phis: tuple[float, ...]
    eps: float
    weights: WeightParams

    def ratios(self) -> np.ndarray:
        """phi(x) / (x * eps**(2/3)) -- flat iff energy is uniformly
        distributed at the predicted rate."""
        xs = np.asarray(self.xs)
        return np.asarray(self.phis) / (xs * self.eps ** (2.0 / 3.0))


def distribution_threshold(eps: float, beta: float, c1: float = 1.0) -> float:
    """Left edge of the window where the uniform-distribution statement
    applies: x >= c1 * eps**(2/(9-3*beta))."""
    return c1 * eps ** (2.0 / (9.0 - 3.0 * beta))


def cumulative_energy(
    profile: SawtoothProfile,
    eps: float,
    w: WeightParams,
    xs,
    *,
    allow_unclamped: bool = False,
) -> CumulativeEnergyProfile:
    """Sample the cumulative energy phi at sorted locations xs in (0, 1].

    Jumps landing exactly at a sample point count toward it (surface is
    accumulated inclusively)."""
    if profile.unclamped and not allow_unclamped:
        raise UnclampedProfile(f"u(1) = {profile.boundary_value:.3e}")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise InvalidSample("xs must be a nonempty 1-d array")
    if not (np.all(xs > 0.0) and np.all(xs <= 1.0)):
        raise InvalidSample("samples must lie in (0, 1]")
    if np.any(np.diff(xs) < 0.0):
        raise InvalidSample("samples must be sorted ascending")

    zs = np.asarray(profile.jumps, dtype=float)
    surf_prefix = np.concatenate(([0.0], np.cumsum(2.0 * eps * zs**w.alpha)))
    bp = profile.breakpoints
    vals = profile.values
    slopes = profile.slopes
    seg_bulk = weighted_square_integrals(bp[:-1], bp[1:], vals[:-1], slopes, w.beta)
    bulk_prefix = np.concatenate(([0.0], np.cumsum(seg_bulk)))

    n_jumps_le = np.searchsorted(zs, xs, side="right")
    # side="left" puts every x in a segment with bp[j] < x <= bp[j + 1],
    # so each sample has a partial segment of positive length
    j = np.searchsorted(bp, xs, side="left") - 1
    partial = weighted_square_integrals(bp[j], xs, vals[j], slopes[j], w.beta)
    phis = surf_prefix[n_jumps_le] + bulk_prefix[j] + partial
    return CumulativeEnergyProfile(
        xs=tuple(float(x) for x in xs),
        phis=tuple(float(p) for p in phis),
        eps=eps,
        weights=w,
    )


# ---------------------------------------------------------------------------
# minimization over jump count and positions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SharpOptions:
    """Knobs for optimize_sharp: the grading exponent of the starting
    layouts (default `default_gamma`), a jump count to solve instead of
    searching the calibrated bracket, the Newton step budget per count,
    and whether to refine at all (refine=False takes zero steps)."""

    gamma: float | None = None
    n_jumps: int | None = None
    max_iter: int = 500
    refine: bool = True

    def __post_init__(self):
        if self.n_jumps is not None and self.n_jumps < 1:
            raise InvalidConfig(f"need at least one jump, got n_jumps={self.n_jumps}")


@dataclass(frozen=True)
class SharpMinimum:
    """Best candidate of `optimize_sharp`.  `bracket` is the lowest and
    the highest jump count scored, `n_candidates` the number of counts
    scored: each count has one candidate."""

    profile: SawtoothProfile
    energy: EnergyBreakdown
    converged: bool
    bracket: tuple[int, int]
    n_candidates: int


# callers may run optimize_sharp from several threads of their own
_CAL_LOCK = threading.Lock()
_CAL_CACHE: dict[tuple[float, float, float], float] = {}
_CAL_EPS = 1e-3

# each leg of optimize_sharp's walk stops after this many consecutive
# counts that do not lower the best energy found so far
STALE_COUNTS = 4

# a refined gap below this fraction of its graded starting width has
# collapsed, and its layout is one of fewer teeth
COLLAPSE_TOL = 1e-6

# a refinement has converged at this projected-gradient inf-norm, or
# once a step lowers the energy by less than this fraction
GTOL = 1e-10
FTOL = 1e-14
# floor of the Levenberg shift once the scaled Hessian is indefinite, and
# the Armijo halvings tried before a step is given up
LAM_MIN = 1e-8
MAX_BACKTRACKS = 40


def _gap_energy_and_grad(y: np.ndarray, eps: float, w: WeightParams):
    """Energy and its exact gradient in the (unconstrained) gap widths y >= 0.

    One pass: each power primitive of the segments after the first is
    computed once and serves both the segment integrals and the first
    moments.  Moving gap i shifts every breakpoint and vertex to its
    right, so the derivative collects a surface suffix sum plus the first
    moments J_j of the weighted interpolant over later segments; the
    boundary evaluation terms of adjacent segments cancel, and only
    segments of opposite parity survive (same-parity vertices move in
    lockstep):

        dE/dy_i = 2 eps alpha * sum_{k>=i} z_k**(alpha-1)
                  + 4 sigma_i * sum_{j>i, parity(j) != parity(i)} J_j
                  + u(1)**2
    """
    m = y.size
    bp = np.empty(m + 1)
    bp[0] = 0.0
    np.cumsum(y, out=bp[1:])
    zs = bp[1:-1]
    signs = np.ones(m)
    signs[1::2] = -1.0
    vals = np.concatenate(([0.0], np.cumsum(signs * y)))

    # segments j >= 2 written about t = 0: u(t) = c + sigma_j * t
    p, q = bp[1:-1], bp[2:]
    s = signs[1:]
    c = vals[1:-1] - s * p
    p0, p1, p2 = power_primitives(p, q, (-w.beta, 1.0 - w.beta, 2.0 - w.beta))

    surface = 2.0 * eps * float(np.sum(zs**w.alpha)) if zs.size else 0.0
    if y[0] == 0.0:
        # segment 2 starts at t = 0 too: let the general kernel apply its
        # origin branch and divergence checks
        seg = weighted_square_integrals(bp[:-1], bp[1:], vals[:-1], signs, w.beta)
    else:
        seg = np.empty(m)
        # segment 1 has u(0) = 0 and slope 1: only its slope term survives
        seg[:1] = bp[1:2] ** (3.0 - w.beta) / (3.0 - w.beta)
        seg[1:] = c * c * p0 + 2.0 * c * s * p1 + s * s * p2
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
    # a gap of exactly 0 gives 0 * inf here; the refinement never steps
    # onto one (no step more than halves a gap), so let the nan through
    # silently
    with np.errstate(invalid="ignore"):
        J[1:] = c * p0 + s * p1

    # suffix sums of J by parity, added right to left starting from 0:
    # suf_even[k] sums J[2k::2], suf_odd[k] sums J[2k+1::2]
    suf_even = np.cumsum(np.concatenate(([0.0], J[0::2][::-1])))[::-1]
    suf_odd = np.cumsum(np.concatenate(([0.0], J[1::2][::-1])))[::-1]
    opp = np.empty(m)
    opp[0::2] = suf_odd[: (m + 1) // 2]  # even i: odd j > i
    opp[1::2] = suf_even[1 : m // 2 + 1]  # odd i: even j > i
    grad += 4.0 * signs * opp
    return energy, grad


def _closed(y: np.ndarray) -> np.ndarray:
    """Gaps `y` with each parity rescaled to sum to 1/2, so the profile
    ends at t = 1 with u(1) = 0."""
    out = y.copy()
    out[0::2] *= 0.5 / y[0::2].sum()
    out[1::2] *= 0.5 / y[1::2].sum()
    return out


def _graded_start_gaps(n: int, gamma: float) -> np.ndarray:
    """Starting gaps of an n-jump refinement: the graded widths k**gamma,
    each parity rescaled to sum to 1/2 so the profile closes."""
    k = np.arange(1, n + 2, dtype=float)
    y = k**gamma
    return _closed(y / y.sum())


def _jump_hessian(y: np.ndarray, eps: float, w: WeightParams):
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


def _refine_jump_positions(
    n: int, eps: float, w: WeightParams, gamma: float, max_iter: int
):
    """Best n-jump profile: damped Newton descent on the interior jump
    positions z from the parity-projected graded gaps, with the exact
    Hessian of `_jump_hessian` and the gradient of the fused gap kernel.

    Closure is the linear constraint sum_k s_k z_k = const (s_k the slope
    left of z_k), eliminated in each step by two solves against one
    matrix.  That matrix is the Hessian scaled symmetrically by its
    8 P(z) part, plus a rank-one term along the constraint normal (the
    step only sees the Hessian on the constraint's tangent space), plus
    a Levenberg shift lam * I raised tenfold until its Cholesky
    factorization succeeds and cut tenfold after each step.  A step
    shrinks no gap by more than half, is backtracked to an Armijo
    decrease, and the gaps of each parity are rescaled to sum to 1/2, so
    rounding cannot drift u(1) away from 0.  The descent has converged
    once the projected-gradient inf-norm falls to GTOL, or the relative
    decrease, taken or predicted by the Newton model, to FTOL.  It stops
    unconverged after max_iter steps, or when no backtracked step lowers
    the energy.

    Returns (gaps, energy, converged), or None once the layout collapses:
    some gap falls below COLLAPSE_TOL times its own starting width.  The
    descent stops there, and the layout is not returned, because it is
    really one of fewer teeth."""
    if n == 1:
        # closure pins the single jump to 1/2; nothing to optimize
        gaps = np.array([0.5, 0.5])
        return gaps, _gap_energy_and_grad(gaps, eps, w)[0], True

    y = _graded_start_gaps(n, gamma)
    floor = COLLAPSE_TOL * y
    f, gy = _gap_energy_and_grad(y, eps, w)
    s = np.ones(n)
    s[1::2] = -1.0
    eye = np.eye(n)
    lam = 0.0
    for _ in range(max_iter):
        g = gy[:-1] - gy[1:]
        if np.max(np.abs(g - s * (float(s @ g) / n))) <= GTOL:
            return y, f, True
        H, P = _jump_hessian(y, eps, w)
        d = 1.0 / np.sqrt(8.0 * P)
        H *= np.outer(d, d)
        dg, ds = d * g, d * s
        # a multiple of ds ds^T leaves the constrained step as it is; one of
        # unit curvature, like the scaled diagonal, lifts negative curvature
        # across the constraint that the step never sees
        H += np.outer(ds, ds) / float(ds @ ds)
        while True:
            A = H + lam * eye
            try:
                np.linalg.cholesky(A)
                break
            except np.linalg.LinAlgError:
                lam = max(10.0 * lam, LAM_MIN)
        a, b = np.linalg.solve(A, np.column_stack((dg, ds))).T
        p = d * (b * (float(ds @ a) / float(ds @ b)) - a)
        slope = float(g @ p)
        if -0.5 * slope <= FTOL * f:
            # the Newton model predicts no decrease above rounding
            return y, f, True
        # p != 0 and dy sums to 0, so some gap shrinks
        dy = np.diff(p, prepend=0.0, append=0.0)
        shrink = dy < 0.0
        t = min(1.0, float(np.min(0.5 * y[shrink] / -dy[shrink])))
        for _ in range(MAX_BACKTRACKS):
            y_new = _closed(y + t * dy)
            f_new, gy_new = _gap_energy_and_grad(y_new, eps, w)
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


def _profile_from_gaps(y: np.ndarray) -> SawtoothProfile:
    """Profile with slope +1 first and a jump after each gap but the last.

    A gap driven below the rounding of its neighbours' partial sums
    makes jumps coincide, or land on 0 or 1.  Such a layout is
    normalized without changing u: two reversals at one point cancel, a
    jump at 0 only flips the initial slope, and one at 1 does nothing.
    The surface energy of the dropped jumps goes with them.  Refined
    layouts never get there: `_refine_jump_positions` drops a layout
    long before, once a gap falls below COLLAPSE_TOL of its start.
    """
    at, count = np.unique(np.cumsum(y)[:-1], return_counts=True)
    odd = count % 2 == 1
    initial_slope = -1 if at.size and at[0] == 0.0 and odd[0] else 1
    keep = odd & (at > 0.0) & (at < 1.0)
    return SawtoothProfile(tuple(float(z) for z in at[keep]), initial_slope)


def calibrate_bracket_constant(w: WeightParams, gamma: float) -> float:
    """Brute-force the optimal jump count at a fixed reference eps; the
    constant c in n*(eps) ~ c * eps**(-1/3) is cached per weight/grading."""
    key = (w.alpha, w.beta, gamma)
    with _CAL_LOCK:
        if key in _CAL_CACHE:
            return _CAL_CACHE[key]
    # cheap pass: clamped graded constructions locate the neighbourhood
    coarse = []
    for n in range(1, 61):
        p = build_graded_profile(GradedSpacingConfig(n, gamma))
        coarse.append((evaluate_sharp(p, _CAL_EPS, w).total, n))
    n_hat = min(coarse)[1]
    # refined pass in a window around it
    best = (math.inf, n_hat)
    for n in range(max(1, n_hat - 5), n_hat + 7):
        refined = _refine_jump_positions(n, _CAL_EPS, w, gamma, max_iter=150)
        if refined is not None and refined[1] < best[0]:
            best = (refined[1], n)
    c = best[1] * _CAL_EPS ** (1.0 / 3.0)
    with _CAL_LOCK:
        _CAL_CACHE[key] = c
    return c


def _count_candidate(n: int, eps: float, w: WeightParams, gamma: float, max_iter: int):
    """(total, profile, converged) of the one candidate of count n: its
    refined layout, or its unrefined start layout if the refinement
    collapsed."""
    refined = _refine_jump_positions(n, eps, w, gamma, max_iter)
    if refined is None:
        gaps = _graded_start_gaps(n, gamma)
        refined = gaps, _gap_energy_and_grad(gaps, eps, w)[0], False
    gaps, total, ok = refined
    return total, _profile_from_gaps(gaps), ok


def optimize_sharp(
    eps: float, w: WeightParams, options: SharpOptions | None = None
) -> SharpMinimum:
    """Minimize the sharp energy over admissible sawtooth profiles.

    Each count scored has one candidate: its jump positions refined on
    the closure manifold by damped Newton steps with the exact Hessian
    (`_refine_jump_positions`, at most `max_iter` steps, none with
    refine=False).  A refinement whose gap falls below COLLAPSE_TOL times
    its graded starting width has collapsed into a layout of fewer teeth:
    it is stopped there, and the count is scored by its unrefined start
    layout instead, marked unconverged.

    A pinned `n_jumps` is the only count scored.  Otherwise the walk over
    counts starts at n0 = round(c * eps**(-1/3)), c the calibrated
    constant, goes down from n0 and then up from n0 + 1, and ends each
    leg once STALE_COUNTS consecutive counts in its direction fail to
    strictly lower the best energy so far.  A collapse says nothing about
    the counts above it (at (0.5, 0.5), eps = 1e-7, count 137 collapses
    and 139 and 141 are lower still), so it does not end a leg by itself.
    The bracket [n*/2, 2n*] around the calibrated count is a hard cap on
    both legs.
    """
    if not eps > 0.0:
        raise InvalidConfig(f"eps must be positive, got {eps!r}")
    if not w.beta < 3.0:
        raise DivergentIntegral(f"beta={w.beta:g} >= 3: no finite minimizer")
    opts = options or SharpOptions()
    gamma = opts.gamma if opts.gamma is not None else default_gamma(w.beta)
    max_iter = opts.max_iter if opts.refine else 0

    # count -> (total, profile, converged), in the order scored
    candidates: dict[int, tuple[float, SawtoothProfile, bool]] = {}

    def score(n: int) -> float:
        candidates[n] = _count_candidate(n, eps, w, gamma, max_iter)
        return candidates[n][0]

    if opts.n_jumps is not None:
        score(opts.n_jumps)
    else:
        base = calibrate_bracket_constant(w, gamma) * eps ** (-1.0 / 3.0)
        lo = max(1, math.floor(base) // 2)
        hi = max(lo + 2, 2 * math.ceil(base))
        n0 = max(round(base), lo)
        best = math.inf
        for leg in (range(n0, lo - 1, -1), range(n0 + 1, hi + 1)):
            stale = 0
            for n in leg:
                total = score(n)
                if total < best:
                    best, stale = total, 0
                    continue
                stale += 1
                if stale == STALE_COUNTS:
                    break

    _, best_profile, ok = min(
        candidates.values(), key=lambda cand: (cand[0], cand[1].n_jumps, cand[1].jumps)
    )
    return SharpMinimum(
        profile=best_profile,
        energy=evaluate_sharp(best_profile, eps, w),
        converged=ok,
        bracket=(min(candidates), max(candidates)),
        n_candidates=len(candidates),
    )


def rescaled_min_energy(
    a: float, eps: float, w: WeightParams, options: SharpOptions | None = None
) -> float:
    """Minimal energy of the same model restricted to [0, a], clamped at
    both ends, via the exact self-similar change of variables: it equals
    a**(3-beta) times the full-interval minimum at the effective
    eps * a**(alpha+beta-3)."""
    if not 0.0 < a <= 1.0:
        raise InvalidSample(f"subinterval length must be in (0, 1], got {a!r}")
    eps_eff = eps * a ** (w.alpha + w.beta - 3.0)
    res = optimize_sharp(eps_eff, w, options)
    return a ** (3.0 - w.beta) * res.energy.total


def amplitude_envelope_ratio(
    profile: SawtoothProfile, eps: float, beta: float, n_samples: int = 2048
) -> float:
    """max over t of |u(t)| / (eps**(2/9) * t**(beta/3)).

    Boundedness of this statistic across eps is the quantitative form of
    the amplitude decay law near the singular end."""
    bp = profile.breakpoints
    grid = np.geomspace(max(bp[1] * 1e-3, 1e-9), 1.0, n_samples)
    ts = np.unique(np.concatenate((bp[1:], grid)))
    u = np.abs(profile.evaluate(ts))
    env = eps ** (2.0 / 9.0) * ts ** (beta / 3.0)
    return float(np.max(u / env))
