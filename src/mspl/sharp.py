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

    def constraint_report(self, w: WeightParams) -> dict[str, bool]:
        """Which admissibility/energy-bound conditions this grading meets
        for the given weights."""
        g, a, b = self.gamma, w.alpha, w.beta
        return {
            "gamma_gt_minus_one": g > -1.0,
            "beta_lt_three": b < 3.0,
            "bulk_sum_finite": 3.0 * g - b * (g + 1.0) > -1.0,
            "bulk_scaling": (g + 1.0) * (3.0 - b) >= 2.0,
            "surface_sum_finite": a > -1.0 / (1.0 + g),
        }


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
    cfg: GradedSpacingConfig, *, clamp: bool = True, initial_slope: int = 1
) -> SawtoothProfile:
    """Sawtooth with gap widths proportional to k**gamma.

    With clamp=False the profile has exactly cfg.n jumps at the partial
    sums of the graded gaps and generally does NOT return to zero at
    t = 1.  With clamp=True (default) one auxiliary jump is added so the
    result is admissible.
    """
    y = cfg.spacings()
    jumps = np.cumsum(y)[:-1]
    p = SawtoothProfile(tuple(float(z) for z in jumps), initial_slope)
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

    phis = np.empty(xs.size)
    n_jumps_le = np.searchsorted(zs, xs, side="right")
    seg_idx = np.searchsorted(bp, xs, side="left") - 1
    for i, x in enumerate(xs):
        j = seg_idx[i]
        partial = (
            float(
                weighted_square_integrals(bp[j], x, vals[j], slopes[j], w.beta)[0]
            )
            if x > bp[j]
            else 0.0
        )
        phis[i] = surf_prefix[n_jumps_le[i]] + bulk_prefix[j] + partial
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
    """Knobs for optimize_sharp; defaults follow the calibrated rules."""

    gamma: float | None = None
    n_min: int | None = None
    n_max: int | None = None
    max_iter: int = 300
    refine: bool = True
    bracket_constant: float | None = None


@dataclass(frozen=True)
class SharpMinimum:
    profile: SawtoothProfile
    energy: EnergyBreakdown
    converged: bool
    bracket: tuple[int, int]
    n_candidates: int


# callers may run optimize_sharp from several threads of their own
_CAL_LOCK = threading.Lock()
_CAL_CACHE: dict[tuple[float, float, float], float] = {}
_CAL_EPS = 1e-3


def _interleave(y_odd: np.ndarray, y_even: np.ndarray) -> np.ndarray:
    y = np.empty(y_odd.size + y_even.size)
    y[0::2] = y_odd
    y[1::2] = y_even
    return y


def _profile_energy_from_gaps(y: np.ndarray, eps: float, w: WeightParams) -> float:
    """Total energy for gap vector y whose alternating sums are both 1/2
    (closure holds by construction)."""
    bp = np.empty(y.size + 1)
    bp[0] = 0.0
    np.cumsum(y, out=bp[1:])
    zs = bp[1:-1]
    signs = np.ones(y.size)
    signs[1::2] = -1.0
    vals = np.concatenate(([0.0], np.cumsum(signs * y)))
    surface = 2.0 * eps * float(np.sum(zs**w.alpha)) if zs.size else 0.0
    bulk = float(
        np.sum(weighted_square_integrals(bp[:-1], bp[1:], vals[:-1], signs, w.beta))
    )
    return surface + bulk


def _gap_energy_and_grad(y: np.ndarray, eps: float, w: WeightParams):
    """Energy and its exact gradient in the (unconstrained) gap widths.

    Moving gap i shifts every breakpoint and vertex to its right, so the
    derivative collects a surface suffix sum plus the first moments J_j
    of the weighted interpolant over later segments; the boundary
    evaluation terms of adjacent segments cancel, and only segments of
    opposite parity survive (same-parity vertices move in lockstep):

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

    surface = 2.0 * eps * float(np.sum(zs**w.alpha)) if zs.size else 0.0
    seg = weighted_square_integrals(bp[:-1], bp[1:], vals[:-1], signs, w.beta)
    energy = surface + float(np.sum(seg))

    # surface suffix term (z -> 0 on probe points: let inf flow through)
    grad = np.full(m, vals[-1] ** 2)
    if w.alpha != 0.0 and zs.size:
        with np.errstate(divide="ignore"):
            zpow = zs ** (w.alpha - 1.0)
        suf = np.concatenate((np.cumsum(zpow[::-1])[::-1], [0.0]))
        grad += 2.0 * eps * w.alpha * suf

    # first moments J_j = int_seg t**-beta * u(t) dt for segments j >= 2
    p, q = bp[1:-1], bp[2:]
    c = vals[1:-1] - signs[1:] * p
    p0 = power_primitive(p, q, -w.beta)
    p1 = power_primitive(p, q, 1.0 - w.beta)
    J = np.zeros(m)
    # a gap driven to exactly 0 gives 0 * inf here; the line search
    # rejects such probe points, so let the nan through silently
    with np.errstate(invalid="ignore"):
        J[1:] = c * p0 + signs[1:] * p1

    suf_even = np.zeros(m + 1)
    suf_odd = np.zeros(m + 1)
    for j in range(m - 1, -1, -1):  # suffix sums of J by segment parity
        suf_even[j] = suf_even[j + 1] + (J[j] if j % 2 == 0 else 0.0)
        suf_odd[j] = suf_odd[j + 1] + (J[j] if j % 2 == 1 else 0.0)
    idx = np.arange(m)
    opp = np.where(idx % 2 == 0, suf_odd[idx + 1], suf_even[idx + 1])
    grad += 4.0 * signs * opp
    return energy, grad


def _decode_gaps(x: np.ndarray, k_odd: int) -> np.ndarray:
    eo = np.exp(x[:k_odd] - np.max(x[:k_odd]))
    ee = np.exp(x[k_odd:] - np.max(x[k_odd:]))
    return _interleave(0.5 * eo / eo.sum(), 0.5 * ee / ee.sum())


def _refine_jump_positions(
    n: int, eps: float, w: WeightParams, gamma: float, max_iter: int
):
    """Best n-jump profile: start from the parity-projected graded gaps
    and descend on the closure manifold (alternating gap sums pinned to
    1/2 by a softmax reparameterization), with exact gradients."""
    m = n + 1
    k = np.arange(1, m + 1, dtype=float)
    y = k**gamma
    y /= y.sum()
    y_odd, y_even = y[0::2].copy(), y[1::2].copy()
    y_odd *= 0.5 / y_odd.sum()
    y_even *= 0.5 / y_even.sum()
    k_odd = y_odd.size

    if n == 1:
        # closure pins the single jump to 1/2; nothing to optimize
        gaps = np.array([0.5, 0.5])
        return gaps, _profile_energy_from_gaps(gaps, eps, w), True

    x0 = np.concatenate((np.log(y_odd), np.log(y_even)))

    def objective(x):
        gaps = _decode_gaps(x, k_odd)
        energy, gy = _gap_energy_and_grad(gaps, eps, w)
        # chain through the two softmax groups: y = 0.5 * softmax(x)
        gx = np.empty_like(x)
        yo, go = gaps[0::2], gy[0::2]
        ye, ge = gaps[1::2], gy[1::2]
        gx[:k_odd] = yo * (go - 2.0 * float(go @ yo))
        gx[k_odd:] = ye * (ge - 2.0 * float(ge @ ye))
        return energy, gx

    # imported here so commands that never refine skip loading scipy.optimize
    from scipy.optimize import minimize

    res = minimize(
        objective,
        x0,
        method="L-BFGS-B",
        jac=True,
        options={"maxiter": max_iter, "ftol": 1e-14, "gtol": 1e-10},
    )
    f0 = _profile_energy_from_gaps(_interleave(y_odd, y_even), eps, w)
    if res.fun <= f0:
        gaps = _decode_gaps(res.x, k_odd)
        return gaps, float(res.fun), bool(res.success)
    return _interleave(y_odd, y_even), f0, True


def _profile_from_gaps(y: np.ndarray) -> SawtoothProfile:
    bp = np.cumsum(y)[:-1]
    return SawtoothProfile(tuple(float(z) for z in bp), 1)


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
        _, total, _ = _refine_jump_positions(n, _CAL_EPS, w, gamma, max_iter=150)
        if total < best[0]:
            best = (total, n)
    c = best[1] * _CAL_EPS ** (1.0 / 3.0)
    with _CAL_LOCK:
        _CAL_CACHE[key] = c
    return c


def optimize_sharp(
    eps: float, w: WeightParams, options: SharpOptions | None = None
) -> SharpMinimum:
    """Minimize the sharp energy over admissible sawtooth profiles.

    Jump counts are swept over a bracket around the calibrated
    c * eps**(-1/3); for each count the positions are refined on the
    closure manifold.  The clamped graded construction is always among
    the candidates, so the result can never be worse than it.
    """
    if not eps > 0.0:
        raise InvalidConfig(f"eps must be positive, got {eps!r}")
    if not w.beta < 3.0:
        raise DivergentIntegral(f"beta={w.beta:g} >= 3: no finite minimizer")
    opts = options or SharpOptions()
    gamma = opts.gamma if opts.gamma is not None else default_gamma(w.beta)

    c = (
        opts.bracket_constant
        if opts.bracket_constant is not None
        else calibrate_bracket_constant(w, gamma)
    )
    base = c * eps ** (-1.0 / 3.0)
    lo = max(1, math.floor(base) // 2)
    hi = max(lo + 2, 2 * math.ceil(base))
    if opts.n_min is not None:
        lo = max(lo, opts.n_min)
    if opts.n_max is not None:
        hi = min(hi, opts.n_max)
    if hi < lo:
        raise InvalidConfig(f"empty jump-count bracket [{lo}, {hi}]")

    candidates: list[tuple[float, int, SawtoothProfile, bool]] = []
    for n in range(lo, hi + 1):
        if opts.refine:
            gaps, total, ok = _refine_jump_positions(n, eps, w, gamma, opts.max_iter)
            candidates.append((total, n, _profile_from_gaps(gaps), ok))
        graded = build_graded_profile(GradedSpacingConfig(n, gamma))
        gtotal = evaluate_sharp(graded, eps, w).total
        candidates.append((gtotal, graded.n_jumps, graded, True))

    candidates.sort(key=lambda cand: (cand[0], cand[1], cand[2].jumps))
    total, _, best_profile, ok = candidates[0]
    energy = evaluate_sharp(best_profile, eps, w)
    return SharpMinimum(
        profile=best_profile,
        energy=energy,
        converged=ok,
        bracket=(lo, hi),
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
