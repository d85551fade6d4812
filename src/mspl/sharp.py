"""Sharp-interface model: slope-one sawtooth profiles and their energy.

A profile is an alternating-slope piecewise affine function on [0, 1]
pinned to zero at both ends.  Its energy is

    surface + bulk  =  2*eps * sum_k z_k**alpha  +  int t**(-beta) u(t)**2 dt,

each interior slope reversal at z_k carrying curvature mass 2.  Everything
here is exact given the jump positions; optimization is over those
positions and their count.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .core import EnergyBreakdown, check_energy, power_primitive, segment_moments
from .errors import (
    DivergentIntegral,
    InvalidConfig,
    InvalidProfile,
    InvalidSample,
    TooManyJumps,
    UnclampedProfile,
    check_integer,
)
from .weights import WeightParams

if TYPE_CHECKING:
    from .config import ExperimentConfig

# |u(1)| below this counts as clamped (returning to zero).
CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class SawtoothProfile:
    """Piecewise affine profile with slopes +-1 alternating at `jumps`.

    `jumps` are the interior slope-reversal locations, strictly
    increasing inside (0, 1); the slope on [0, z_1] is +1, as the energy
    is symmetric under u -> -u.  u(0) = 0 always; u(1) = 0 only if the
    jump pattern closes, which the `unclamped` flag reports."""

    jumps: tuple[float, ...]

    def __post_init__(self):
        # 0, the jumps and 1 strictly increasing, which nan and inf fail
        bp = np.array((0.0, *self.jumps, 1.0), dtype=float)
        if not (bp[1:] > bp[:-1]).all():
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
        """Slope on each of the n_jumps + 1 segments, read-only."""
        return _alternating_signs(self.n_jumps + 1)

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


def evaluate_sharp(profile: SawtoothProfile, eps: float, w: WeightParams) -> EnergyBreakdown:
    """Exact energy of a sawtooth profile.

    surface = 2*eps * sum z_k**alpha (each slope reversal carries
    curvature mass 2); bulk integrates t**(-beta) u**2 on each segment
    through its moments, by the refinement's arithmetic
    (`_layout_kernel`).  The well component is identically zero in this
    model.  A profile with |u(1)| > CLAMP_TOL is not admissible and
    raises UnclampedProfile."""
    check_energy(eps, w)
    if profile.unclamped:
        raise UnclampedProfile(f"u(1) = {profile.boundary_value:.3e}")
    return _sharp_energies(profile.breakpoints[None], [profile.n_jumps + 1], [eps], w)[0]


def _sharp_energies(bp: np.ndarray, m, eps, w: WeightParams) -> list[EnergyBreakdown]:
    """`evaluate_sharp` of the layout of each row of the padded breakpoint
    array bp at its eps (one per row, or one for all), unchecked: one
    `_layout_kernel` call at the widths np.diff(bp).  Row i holds 0, the
    m[i] - 1 jumps of a layout, then its right end padded with itself (1
    for a profile, x for its part on [0, x]); slopes alternate from +1."""
    own = np.arange(bp.shape[1] - 1) < np.asarray(m)[:, None]
    surface, bulk = _layout_kernel(bp, np.diff(bp, axis=1), own, eps, w)[:2]
    rows = zip(surface.tolist(), bulk.tolist())
    return [EnergyBreakdown(surface=s, well=0.0, bulk=b) for s, b in rows]


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


def distribution_threshold(eps: float, beta: float) -> float:
    """Left edge of the window where the uniform-distribution statement
    applies: x >= eps**(2/(9-3*beta))."""
    return eps ** (2.0 / (9.0 - 3.0 * beta))


def cumulative_energy(
    profile: SawtoothProfile, eps: float, w: WeightParams, xs
) -> CumulativeEnergyProfile:
    """Sample the cumulative energy phi at sorted locations xs in (0, 1].

    phi(x) is the energy of the layout 0, the jumps z <= x (a jump at x
    counts), then x; one `_sharp_energies` call scores every sample's, so
    phi(1) is the `evaluate_sharp` total, bit for bit.  Raises
    UnclampedProfile where |u(1)| > CLAMP_TOL, as `evaluate_sharp` does."""
    check_energy(eps, w)
    if profile.unclamped:
        raise UnclampedProfile(f"u(1) = {profile.boundary_value:.3e}")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise InvalidSample("xs must be a nonempty 1-d array")
    if not (np.all(xs > 0.0) and np.all(xs <= 1.0)):
        raise InvalidSample("samples must lie in (0, 1]")
    if np.any(np.diff(xs) < 0.0):
        raise InvalidSample("samples must be sorted ascending")

    # row i: 0 and the k[i] jumps z <= x_i, then x_i to the row's end
    head = profile.breakpoints[:-1]
    k = np.searchsorted(head[1:], xs, side="right")
    bp = np.repeat(xs[:, None], head.size + 1, axis=1)
    np.copyto(bp[:, :-1], head, where=np.arange(head.size) <= k[:, None])
    return CumulativeEnergyProfile(
        xs=tuple(float(x) for x in xs),
        phis=tuple(e.total for e in _sharp_energies(bp, k + 1, eps, w)),
        eps=eps,
        weights=w,
    )


# ---------------------------------------------------------------------------
# minimization over jump count and positions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SharpOptions:
    """Knobs for optimize_sharp: a jump count to solve instead of walking
    the counts from `jump_count_estimate`, the Newton step budget per
    count, and whether to refine at all (refine=False takes zero steps).
    The start layouts are always those of `_graded_start_gaps`."""

    n_jumps: int | None = None
    max_iter: int = 500
    refine: bool = True

    def __post_init__(self):
        if self.n_jumps is not None:
            check_integer("n_jumps", self.n_jumps)
            if self.n_jumps < 1:
                raise InvalidConfig(f"need at least one jump, got n_jumps={self.n_jumps}")
        check_integer("max_iter", self.max_iter)
        if self.max_iter < 0:
            raise InvalidConfig(f"max_iter must be nonnegative, got {self.max_iter}")


def sharp_options(cfg: "ExperimentConfig") -> SharpOptions:
    """Options of every sharp solve a configuration runs: its jump count
    if one is fixed, and its iteration budget."""
    return SharpOptions(n_jumps=cfg.n_jumps, max_iter=cfg.max_iter)


@dataclass(frozen=True)
class SharpMinimum:
    """Best candidate of `optimize_sharp`, and the table it was chosen from.

    `candidates` has one row (n, total, profile, converged) per jump count
    n scored, in count order: the count's one candidate, its refined
    layout, or its start layout where the refinement collapsed, with
    exactly n jumps, and its `evaluate_sharp` total.  `profile` is the
    candidate of the lowest finite total, the lower count on a tie, and
    is `converged` if its refinement converged and it is bracketed: no
    count n +- 1 was scored with a total that is not finite.  `bracket` is
    the lowest and the highest count scored, `n_candidates` their number."""

    profile: SawtoothProfile
    energy: EnergyBreakdown
    converged: bool
    candidates: tuple[tuple[int, float, SawtoothProfile, bool], ...]

    @property
    def bracket(self) -> tuple[int, int]:
        return self.candidates[0][0], self.candidates[-1][0]

    @property
    def n_candidates(self) -> int:
        return len(self.candidates)


# each leg of optimize_sharp's walk stops after this many consecutive
# counts that do not lower the best energy found so far
STALE_COUNTS = 4

# optimize_sharp scores no larger count and raises TooManyJumps.  The
# limit bounds the time of a solve, not its memory, which is O(n): a
# 4054-jump solve at eps = 1e-11 converges in 0.6 s with a 2.7 MB peak,
# but a walk from a start far above its optimum refines every count on
# the way down
MAX_JUMPS = 2048

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


@lru_cache(maxsize=8)
def _alternating_signs(m: int) -> np.ndarray:
    """The read-only slopes +1, -1, +1, ... of m consecutive segments."""
    signs = np.ones(m)
    signs[1::2] = -1.0
    signs.setflags(write=False)
    return signs


def _gap_kernel(y: np.ndarray, own: np.ndarray, eps, w: WeightParams):
    """(surface + bulk, grad, p0, vals, zs) of `_layout_kernel` at the cumsum of y."""
    bp = np.zeros((y.shape[0], y.shape[1] + 1))
    y.cumsum(axis=1, out=bp[:, 1:])
    surface, bulk, *rest = _layout_kernel(bp, y, own, eps, w)
    return surface + bulk, *rest


def _layout_kernel(bp: np.ndarray, y: np.ndarray, own: np.ndarray, eps, w: WeightParams):
    """Sharp energies of a batch of layouts and their exact gradients in
    the (unconstrained) gap widths y >= 0: the one energy arithmetic of
    the refinement (`_gap_kernel`) and of the scores (`_sharp_energies`).

    Row i of the (B, M) array y holds the m[i] gaps of one layout, padded
    with zeros, and row i of the boolean mask own marks them (True in its
    first m[i] columns): padded gaps add zero-width segments at the right
    end, whose moments, segment integrals and first moments are exactly 0.
    Row i of bp holds 0 and the layout's breakpoints after it; its right
    end bp[i, m[i]] enters no result (the values come from y), so it may
    be a cumsum of y, a profile's exact 1 or a sample x of
    `cumulative_energy`.  eps is the eps of each row, or one eps for all
    of them.  The elementwise work runs on whole rows, and each energy sum
    is one masked sum over the batch that reads only a row's own m[i]
    entries, bit for bit the sum of its unpadded slice, so a row's results
    do not depend on the rest of the batch.

    One pass: the moments p0, p1, p2 of t**-beta on each segment
    [z_j, z_j + y_j], written about its left end (`segment_moments`),
    give both its integral u_j**2 p0 + 2 sigma_j u_j p1 + p2 and its first
    moment J_j = u_j p0 + sigma_j p1, u_j the value at z_j.  Moving gap i
    shifts every breakpoint and vertex to its right, so the derivative
    collects a surface suffix sum plus the first moments J_j of the
    weighted interpolant over later segments; the boundary evaluation
    terms of adjacent segments cancel, and only segments of opposite
    parity survive (same-parity vertices move in lockstep):

        dE/dy_i = 2 eps alpha * sum_{k>=i} z_k**(alpha-1)
                  + 4 sigma_i * sum_{j>i, parity(j) != parity(i)} J_j
                  + u(1)**2

    Products with a slope sigma = +-1 are exact and are regrouped freely;
    every other operation keeps the order of the formulas above.

    Returns (surface, bulk, grad, p0, vals, zs): the B terms
    2 eps sum z_k**alpha and bulk sums, the (B, M) gradients, and what the
    Newton step reuses: p0, the integrals of t**-beta over the segments
    after the first, vals, u at 0, at each jump and at the right end, and
    zs, the jump positions.  Entries past a row's own m[i] gaps
    (m[i] - 1 jumps) are padding; those of p0 are 0.
    """
    b, M = y.shape
    eps = np.asarray(eps)
    signs = _alternating_signs(M)
    # own marks each row's own segments, and (from column 1) its own jumps
    zs = bp[:, 1:-1]
    vals = np.zeros((b, M + 1))
    np.multiply(signs, y, out=vals[:, 1:]).cumsum(axis=1, out=vals[:, 1:])
    u = vals[:, :-1]
    # the first moments J_j of the segments j >= 2, in a buffer whose pairs
    # (J_{2k}, J_{2k+1}), padded with zeros to even length plus one zero
    # pair, are the rows of a (K + 1, 2) array
    K = (M + 1) // 2
    buf = np.zeros((b, 2 * K + 2))
    zpow = np.zeros((b, M - 1))
    # degenerate segments (a gap of exactly 0) give inf or nan here: a
    # segment after a first gap of 0 starts at t = 0, where p0 and p1 may
    # diverge, 0 * inf in its first moment, 1/0 in the surface gradient of
    # a jump at 0; the refinement never steps onto one (no step more than
    # halves a gap), so let them through silently
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p0, p1, p2 = segment_moments(bp[:, :-1], y, w.beta)
        up0 = u * p0
        sp1 = signs * p1
        np.add(up0[:, 1:], sp1[:, 1:], out=buf[:, 1:M])
        # sigma**2 = 1; where u = 0 (segment 1, and a segment starting at
        # t = 0) only p2 survives, also against a diverging p0 or p1
        seg = p2 + np.where(u != 0.0, u * (up0 + 2.0 * sp1), 0.0)
        if w.alpha != 0.0:
            np.power(zs, w.alpha - 1.0, out=zpow, where=own[:, 1:])

    surface = 2.0 * eps * np.add.reduce(zs**w.alpha, axis=1, where=own[:, 1:])
    bulk = np.add.reduce(seg, axis=1, where=own)

    # surface suffix term (a jump at z = 0 gives inf: let it flow through);
    # the last gap moves no jump.  Padded rows read u(1) at their end too,
    # squared by the scalar power, which rounds unlike the array square
    grad = np.empty((b, M))
    grad[:] = np.array([v**2 for v in vals[:, -1].tolist()])[:, None]
    if w.alpha != 0.0:
        grad[:, :-1] += (2.0 * eps * w.alpha)[..., None] * zpow[:, ::-1].cumsum(axis=1)[:, ::-1]
    # suffix sums of J by parity, added bottom to top starting from the
    # zero pair: row k then holds (sum J[2k::2], sum J[2k+1::2]), so the
    # sum over later segments of the opposite parity of segment i is
    # entry i + 1 of the flat buffer
    pairs = buf.reshape(b, K + 1, 2)[:, ::-1]
    pairs.cumsum(axis=1, out=pairs)
    grad += 4.0 * signs * buf[:, 1 : M + 1]
    return surface, bulk, grad, p0[:, 1:], vals, zs


def _close(y: np.ndarray, own: np.ndarray) -> np.ndarray:
    """Rescale each parity of the gaps of each row of y that the boolean
    mask own marks (its first m[i] columns) in place to sum to 1/2, so each
    profile ends at t = 1 with u(1) = 0; returns y.  Each parity's sums are
    one masked sum over the batch, bit for bit the sum of row i's own gaps
    of that parity."""
    for p in (0, 1):
        y[:, p::2] *= (0.5 / np.add.reduce(y[:, p::2], axis=1, where=own[:, p::2]))[:, None]
    return y


def _graded_start_gaps(counts, w: WeightParams) -> np.ndarray:
    """Starting gaps of the refinement of each count n in `counts`, the
    rows of a zero-padded array: the graded widths k**gamma, k = 1..n + 1,
    over their sum, each parity rescaled to sum to 1/2 so the profile
    closes.  Each row's sums are masked sums over the batch, bit for bit
    the sums of that count's own widths.  This is the sharp solver's one
    start rule.

    The grading gamma is the smallest nonnegative exponent that balances
    the bulk-sum scaling, plus 1/4.  Near beta = 3 it grows without bound
    (199.25 at beta = 2.99), and the widths of a few dozen teeth, or their
    sum, overflow: that raises DivergentIntegral, naming the smallest
    such count and beta."""
    gamma = max(0.0, 2.0 / (3.0 - w.beta) - 1.0) + 0.25
    m = np.asarray(counts) + 1
    M = int(m.max())
    own = np.arange(M) < m[:, None]
    with np.errstate(over="ignore"):
        y = np.where(own, np.arange(1, M + 1, dtype=float) ** gamma, 0.0)
        sums = np.add.reduce(y, axis=1, where=own)
    if not np.isfinite(sums).all():
        raise DivergentIntegral(
            f"the graded start of {int(m[~np.isfinite(sums)].min()) - 1} jumps overflows: "
            f"its widths k**gamma at beta = {w.beta:g} (gamma = {gamma:g}) "
            "do not sum to a finite number"
        )
    y /= sums[:, None]
    return _close(y, own)


def _tridiagonal_solve(p0: list, E: list, P: list, lam: float, h: list):
    """The solve of `_newton_steps` against one layout's tridiagonal T / 8
    at the shift lam, by the LDL^T factorization of T / 8, or None at the
    first pivot not > 0 (nan included), where T is not positive definite.

    T / 8 has diagonal p0_k + e_k + e_{k+1} and off-diagonal -e_{k+1}:
    p0 holds the n segment integrals, and E and P the n + 1 entries e_k / 8
    of `_newton_steps` at lam = 0 and the P(z_k) that lam scales, with
    P_{n+1} = 0 under e_{n+1} = c, so e_k / 8 = E_k + lam P_k.  Each e_k is
    formed as the elimination reaches it, so a shift that fails at the
    first pivot costs that pivot.  h holds the n entries s_k r_k / 8.
    Returns vhat_k = s_k v_k for k = 1..n, where vhat_n = v_n = 0, and a
    last 0."""
    n = len(p0)
    ek = E[1] + lam * P[1]
    d = p0[0] + (E[0] + lam * P[0]) + ek
    if not d > 0.0:
        return None
    # the ratios e_k / d_{k-1} of the pivots d, and the eliminated
    # right-hand side y over the pivots, with the alternating slope signs
    # taken out
    y = h[0]
    qs, ys = [0.0], [y / d]
    for gk, Ek1, Pk1, hk in zip(p0[1:], E[2:], P[2:], h[1:]):
        ek1 = Ek1 + lam * Pk1
        q = ek / d
        d = gk + ek + ek1 - ek * q
        if not d > 0.0:
            return None
        y = hk - q * y
        qs.append(q)
        ys.append(y / d)
        ek = ek1
    vhat = [0.0] * (n + 1)
    v = 0.0
    for k in range(n - 2, -1, -1):
        v = -qs[k + 1] * v - ys[k]
        vhat[k] = v
    return vhat


def _newton_steps(g, zs, p0, vals, m, own, lam: list, eps, w: WeightParams):
    """Gap changes of the constrained Newton steps of
    `_refine_jump_positions` at a batch of layouts, as the rows of a
    zero-padded array like the gaps, and the shifts they took: each row's
    lam, raised tenfold from LAM_MIN until its step's matrix is positive
    definite.  Row i has m[i] gaps, which row i of the boolean mask own
    marks, and position gradient g[i, :m[i] - 1]; zs, p0 and vals are the
    jump positions, segment integrals and vertex values of the layouts'
    kernel call, and eps is each row's eps or one for all.  O(n) per
    layout: no n x n array is formed.

    Moving z_k flips the slope of everything to its right, so
    du(t)/dz_k = 2 s_k [t > z_k], s_k the slope just left of z_k.  With
    P(x) = int_x^1 t**-beta dt the Hessian in the jump positions is

        H_kl = s_k s_l (8 P(z_max(k, l)) + [k == l] E_k),
        E_k = 2 eps alpha (alpha - 1) z_k**(alpha - 2) - 4 s_k z_k**-beta u(z_k).

    8 P(z_max(k, l)) sums g_j = 8 int_{z_j}^{z_{j+1}} t**-beta dt = 8 p0_j
    (z_{n+1} = 1) over j >= max(k, l), so H = S U (G + (I-N) E (I-N)^T) U^T S,
    with S = diag(s), U the upper-triangular matrix of ones and
    U^-1 = I - N, N the superdiagonal shift.  The step's matrix is
    A = D H D + ds ds^T / (ds . ds) + lam I, with D = diag(8 P)**-1/2 and
    ds = D s.  Under C = D S U the shift is C lam (I-N) D**-2 (I-N)^T C^T,
    and ds = C e_n because (I-N) 1 = e_n, so A = C T C^T with T
    tridiagonal:

        T_kk = g_k + e_k + e_{k+1},  T_k,k+1 = -e_{k+1},
        e_k = E_k + 8 lam P(z_k),  e_{n+1} = c = 1 / sum_k 1 / (8 P(z_k)).

    A is positive definite iff T is (Sylvester's law of inertia).  With
    a = A^-1 D g and b = A^-1 ds, the step p = D (b (ds . a) / (ds . b) - a)
    is S (I-N)^T v, where v = T^-1 (rho e_n - r), r = (I-N) S g and
    rho = (T^-1 r)_n / (T^-1 e_n)_n.  Forward elimination turns r into y
    with rho = y_n, so the back substitution starts from v_n = 0 (the step
    keeps sum_k s_k z_k) and c enters only the last pivot, that is only
    the definiteness test.  The signs alternate, so r_k = s_k (g_k + g_{k+1})
    and, with vhat_k = s_k v_k (0 outside 1..n), p_k = vhat_k + vhat_{k-1}
    and the gap change p_k - p_{k-1} is vhat_k - vhat_{k-2}.  T is solved
    as T / 8, which scales exactly.  Each layout keeps its own
    factorization, and its c is one masked sum over the batch that reads
    only the row's own entries, bit for bit the sum of its slice.  The
    solves read each row's own entries from flat lists and write their
    steps into one zero-padded array."""
    M = vals.shape[1] - 1
    eps = np.asarray(eps)
    s = _alternating_signs(M)[:-1]
    # each row's own jumps
    jumps = own[:, 1:]
    P = p0[:, ::-1].cumsum(axis=1)[:, ::-1]
    # e_k / 8 at lam = 0, and e_{n+1} / 8 = c / 8, which no shift moves
    E = (
        (0.25 * eps * w.alpha * (w.alpha - 1.0))[..., None] * zs ** (w.alpha - 2.0)
        - 0.5 * s * zs ** (-w.beta) * vals[:, 1:-1]
    )
    inv_P = np.divide(1.0, P, out=np.zeros_like(P), where=jumps)
    c8 = 1.0 / np.add.reduce(inv_P, axis=1, where=jumps)
    # s_k r_k / 8
    h = g.copy()
    np.add(h[:, :-1], g[:, 1:], out=h[:, :-1], where=jumps[:, 1:])
    h *= 0.125
    lam = list(lam)
    # the rows' own entries, one after another, and their steps vhat
    p0_f, E_f, P_f, h_f = (a[jumps].tolist() for a in (p0, E, P, h))
    vhats = []
    start = 0
    for i, (k, c8_i) in enumerate(zip((m - 1).tolist(), c8.tolist())):
        end = start + k
        p0_i, h_i = p0_f[start:end], h_f[start:end]
        # the last entry e_{n+1} / 8 = c / 8, which P = 0 keeps off the shift
        E_i = E_f[start:end] + [c8_i]
        P_i = P_f[start:end] + [0.0]
        while (vhat := _tridiagonal_solve(p0_i, E_i, P_i, lam[i], h_i)) is None:
            lam[i] = max(10.0 * lam[i], LAM_MIN)
        vhats += vhat
        start = end
    # the gap changes vhat_k - vhat_{k-2}, which reach two columns into
    # each row's padding
    dy = np.zeros((len(lam), M))
    dy[own] = vhats
    dy[:, 2:] -= dy[:, :-2]
    np.copyto(dy, 0.0, where=~own)
    return dy, lam


def _refine_jump_positions(counts, eps, w: WeightParams, max_iter: int):
    """Best n-jump profile for each count n in `counts`, at its own eps
    (eps holds one per count, or one for all): damped Newton
    descent on the interior jump positions z from the parity-projected
    graded gaps, with the exact Hessian and the gradient of the fused gap
    kernel.

    Closure is the linear constraint sum_k s_k z_k = const (s_k the slope
    left of z_k), eliminated in each step.  The step's matrix is the
    Hessian scaled symmetrically by its 8 P(z) part, plus a rank-one term
    along the constraint normal (the step only sees the Hessian on the
    constraint's tangent space), plus a Levenberg shift lam * I raised
    tenfold from LAM_MIN until the matrix is positive definite and cut
    tenfold after each step.  That matrix is congruent to a tridiagonal
    one built from the segment integrals and vertex values the accepted
    kernel call already computed, so one LDL^T factorization in O(n) both
    tests it and gives the step (`_newton_steps`); no n x n array is
    formed.  A step shrinks no gap by more than half, is backtracked to an
    Armijo decrease, and the gaps of each parity are rescaled to sum to
    1/2, so rounding cannot drift u(1) away from 0.  The descent has
    converged once the projected-gradient inf-norm falls to GTOL, or the
    relative decrease, taken or predicted by the Newton model, to FTOL.
    It stops unconverged after max_iter steps, or when no backtracked step
    lowers the energy.

    The counts descend together, each on its own, whatever their eps:
    the starts of all counts are built in one pass (`_graded_start_gaps`)
    and scored by one kernel call; every round evaluates the next trial
    layout of each count still descending in one kernel call, and sets up
    the next steps of the counts it moved in one `_newton_steps` call.
    The state of the counts still descending -- gaps, step, collapse
    floor, energy, step length, slope, shift, steps, backtracks, gap
    count, the mask of its own gaps and eps -- is one row per count, in
    count order, of arrays that hold no other row: a round filters them
    once, when counts leave, so the mask that the kernel, the closure,
    the Newton step and the convergence and slope sums read is built once
    per batch state.  The Armijo, FTOL, collapse and max_iter tests are
    masks over the state, with the float operations of a single count's
    tests in the same order.  A count leaves once it converges, collapses
    or stalls, and its result is bit for bit that of a batch of one.  A
    count whose start energy is not finite leaves at once, unconverged.

    Returns (gaps, status): gaps is the zero-padded array of the starts
    (`_graded_start_gaps`), each count's row overwritten by its final
    gaps, and status holds 1 for a count that converged, -1 for one that
    stopped unconverged, and 0 for one that collapsed: some gap fell
    below COLLAPSE_TOL times its own starting width.  The descent stops
    there, and a collapsed count keeps its start, because the layout is
    really one of fewer teeth.  The energy of a row is that of the gap
    kernel on the row alone, bit for bit."""
    counts = np.asarray(counts)
    m = counts + 1
    eps = np.broadcast_to(np.asarray(eps, dtype=float), m.shape)
    starts = _graded_start_gaps(counts, w)
    # closure pins a single jump to 1/2: nothing to optimize
    starts[counts == 1, :2] = 0.5
    status = np.zeros(m.size, dtype=int)

    # the state, one row per count still descending: its gaps y, the mask
    # own of its own gaps, step dy, collapse floor, energy f, step length
    # t, slope g . p and shift lam, steps taken and failed trials; f comes
    # from the starts
    idx = np.arange(m.size)
    y, dy, floor = starts.copy(), np.zeros_like(starts), COLLAPSE_TOL * starts
    own = np.arange(y.shape[1]) < m[:, None]
    t, slope, lam = (np.zeros(m.size) for _ in range(3))
    steps, tries = np.zeros(m.size, dtype=int), np.zeros(m.size, dtype=int)

    def advance(rows, gy, p0, vals, zs):
        """Test the state's rows `rows` (positions), which have just moved
        to layouts with the kernel results gy, p0, vals and zs of the whole
        state, for convergence, and set up the next step of the others,
        which then search along it."""
        gy, mm, mine = gy[rows], m[rows], own[rows]
        g = gy[:, :-1] - gy[:, 1:]
        # the projected-gradient inf-norm of each layout, about the mean of
        # its own s_k g_k; like the slope below, a masked sum over the rows,
        # silent as the kernel is on an inf it let through
        s = _alternating_signs(y.shape[1])[:-1]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            mean = np.add.reduce(s * g, axis=1, where=mine[:, 1:]) / (mm - 1)
        dev = np.abs(g - s * mean[:, None]).max(axis=1, where=mine[:, 1:], initial=0.0)
        if not (going := dev > GTOL).all():
            ended[rows[~going]] = 1
            rows, mm, mine, g, gy = (a[going] for a in (rows, mm, mine, g, gy))
            if not rows.size:
                return
        step, lam[rows] = _newton_steps(
            g, zs[rows], p0[rows], vals[rows], mm, mine, lam[rows].tolist(), eps[rows], w
        )
        # the slope g . p, summed by parts
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            slope[rows] = np.add.reduce(gy * step, axis=1, where=mine)
        # the Newton model predicts no decrease above rounding
        if (flat := -0.5 * slope[rows] <= FTOL * f[rows]).any():
            ended[rows[flat]] = 1
            rows, step = rows[~flat], step[~flat]
        gaps = y[rows]
        # p != 0 and dy sums to 0, so some gap shrinks: dy / y has a
        # negative minimum, and t, min(1, -0.5 / shrink) as Python's min
        # takes it, caps the fastest shrink at half its gap
        shrink = np.divide(step, gaps, out=np.full_like(gaps, np.inf), where=gaps > 0.0)
        cap = -0.5 / shrink.min(axis=1)
        dy[rows], t[rows], tries[rows] = step, np.where(cap < 1.0, cap, 1.0), 0
        search[rows] = True

    # the starts are scored, and a single jump is its closed start; a
    # start whose energy is not finite cannot descend.  `ended` is 1 for a
    # descent that has just converged, -1 for one that has stopped
    # unconverged, and 0 otherwise
    f, gy, p0, vals, zs = _gap_kernel(y, own, eps, w)
    ended = np.where(np.isfinite(f), counts == 1, -1)
    moved, search = ended == 0, np.zeros(m.size, dtype=bool)
    while True:
        # a count that moved stops after max_iter steps, or sets up a step
        capped = moved & (steps == max_iter)
        ended[capped] = -1
        if (moved := moved & ~capped).any():
            advance(moved.nonzero()[0], gy, p0, vals, zs)
        if not search.all():
            # counts leave: a descent that ended writes its gaps over its
            # start, and one that collapsed keeps it; the state keeps the
            # others' rows, and their columns, and their mask
            status[idx[~search]] = ended[~search]
            gave = ~search & (ended != 0)
            starts[idx[gave], : y.shape[1]] = y[gave]
            if not search.any():
                return starts, status
            width = int(m[search].max())
            idx, m, eps, f, t, slope, lam, steps, tries = (
                a[search] for a in (idx, m, eps, f, t, slope, lam, steps, tries)
            )
            y, dy, floor, own = (a[search, :width] for a in (y, dy, floor, own))
            ended = np.zeros(m.size, dtype=int)
        trial = _close(y + t[:, None] * dy, own)
        f_new, gy, p0, vals, zs = _gap_kernel(trial, own, eps, w)
        # a trial that fails the Armijo test is backtracked, MAX_BACKTRACKS
        # times at most; one that passes is taken, and ends the descent once
        # it lowers f by at most FTOL f, or is dropped once it collapses
        armijo = f_new <= f + 1e-4 * t * slope
        search = ~armijo
        np.multiply(t, 0.5, out=t, where=search)
        tries += search
        stalled = search & (tries == MAX_BACKTRACKS)
        ended[stalled] = -1
        search &= ~stalled
        done = armijo & (f - f_new <= FTOL * f)
        moved = armijo & ~(trial < floor).any(axis=1)
        np.copyto(y, trial, where=armijo[:, None])
        np.copyto(f, f_new, where=armijo)
        ended[moved & done] = 1
        moved &= ~done
        np.divide(lam, 10.0, out=lam, where=moved)
        steps += moved


def _profile_from_gaps(y: np.ndarray, m) -> tuple[list[SawtoothProfile], np.ndarray]:
    """The profile of each row i of the zero-padded gap array y, whose
    m[i] gaps it holds: slope +1 first and a jump after each gap but the
    last.  One cumsum over the batch places every jump.  Returns the
    profiles and their padded breakpoints, the rows 0, the jumps of a
    profile, then 1 to its end, which `_sharp_energies` scores.  A row
    whose jumps do not increase strictly inside (0, 1) -- coinciding,
    at 0 or 1, or not finite -- raises InvalidProfile."""
    m = np.asarray(m)
    b, M = y.shape
    bp = np.zeros((b, M + 1))
    y.cumsum(axis=1, out=bp[:, 1:])
    np.copyto(bp[:, 1:], 1.0, where=np.arange(M) >= (m - 1)[:, None])
    rows = zip(bp[:, 1:].tolist(), (m - 1).tolist())
    return [SawtoothProfile(tuple(row[:n])) for row, n in rows], bp


def jump_count_estimate(eps: float, w: WeightParams) -> int:
    """Jump count of the cell law, where `optimize_sharp` starts its walk
    over counts; a start, not a bound on the counts it scores.

    The jumps have density 2 / h(s), with h the local period
    `cell.sharp_period`, so their count is

        n = (12 eps)**(-1/3) * int_{eps**2}^1 s**(-(alpha+beta)/3) ds.

    The integral diverges at 0 once alpha + beta >= 3, and just below 3
    the law's first tooth ends far below any resolvable s (near 1e-63 at
    alpha + beta = 2.9, eps = 1e-3).  The cut at eps**2 keeps the value
    finite and continuous over the whole regime (`power_primitive` takes
    the log branch at alpha + beta = 3), and for alpha + beta near and
    above 3 it is the cut, not the law, that sets the value."""
    density = power_primitive(eps**2, 1.0, -(w.alpha + w.beta) / 3.0)
    return max(1, round(float((12.0 * eps) ** (-1.0 / 3.0) * density)))


def _count_candidates(counts, eps, w: WeightParams, max_iter: int) -> list:
    """(energy, profile, converged) of the one candidate of each count n
    in `counts`, at its own eps (one per count, or one for all), refined
    together: the padded gaps that `_refine_jump_positions` returns, its
    refined layout or, where the refinement collapsed, its start layout.
    The profiles' padded breakpoints (`_profile_from_gaps`) are scored by
    one `_sharp_energies` call, so the energy is `evaluate_sharp`'s, whose
    total `optimize_sharp` reports.  Its arithmetic is the gap kernel's,
    but a profile's breakpoints end at exactly 1 and its widths are their
    differences, so its total can differ from the refinement's at
    rounding, and so could its order of the counts in a flat regime."""
    eps = np.broadcast_to(eps, (len(counts),)).tolist()
    m = np.asarray(counts) + 1
    gaps, status = _refine_jump_positions(counts, eps, w, max_iter)
    profiles, bp = _profile_from_gaps(gaps, m)
    return list(zip(_sharp_energies(bp, m, eps, w), profiles, (status > 0).tolist()))


def _count_walk(n0: int, scored: dict):
    """The rounds of `optimize_sharp`'s walk over counts from n0: yields
    the counts of each round, in walk order, which the caller scores into
    `scored` (count -> (energy, profile, converged)) before resuming it."""
    # n0 lowers the infinite best, so each leg scores at least its
    # first STALE_COUNTS counts after n0's
    yield [*range(n0, max(0, n0 - STALE_COUNTS - 1), -1), *range(n0 + 1, n0 + STALE_COUNTS + 1)]
    best = math.inf
    for n, step in ((n0, -1), (n0 + 1, 1)):
        stale = 0
        while n >= 1 and stale < STALE_COUNTS:
            if n not in scored:
                # the leg goes on for at least its remaining stale counts
                yield [k for k in range(n, n + step * (STALE_COUNTS - stale), step) if k >= 1]
            total = scored[n][0].total
            if total < best:
                best, stale = total, 0
            else:
                stale += 1
            n += step


def optimize_sharp(
    eps: float, w: WeightParams, options: SharpOptions | None = None
) -> SharpMinimum:
    """Minimize the sharp energy over admissible sawtooth profiles:
    `optimize_sharp_sweep((eps,), w, options)[0]`.

    Each count scored has one candidate: its jump positions refined on
    the closure manifold by damped Newton steps with the exact Hessian
    (`_refine_jump_positions`, at most `max_iter` steps, none with
    refine=False), from the graded widths of `_graded_start_gaps`.  A
    refinement whose gap falls below COLLAPSE_TOL times its starting
    width has collapsed into a layout of fewer teeth:
    it is stopped there, and the count is scored by its unrefined start
    layout instead, marked unconverged.

    A pinned `n_jumps` is the only count scored.  Otherwise the walk over
    counts starts at n0 = `jump_count_estimate(eps, w)`, goes down from
    n0 towards 1 and then up from n0 + 1 without limit, and ends each
    leg once STALE_COUNTS consecutive counts in its direction fail to
    strictly lower the best energy so far.  A collapse says nothing about
    the counts above it (at (0.5, 0.5), eps = 1e-7, count 137 collapses
    and 139 and 141 are lower still), so it does not end a leg by itself.

    The walk scores its counts in rounds, each refining together the
    counts the walk is certain to reach: first n0 - STALE_COUNTS to
    n0 + STALE_COUNTS, then the STALE_COUNTS counts past any count that
    lowers the best.  It scores the counts a one-at-a-time walk scores,
    and each count's row is the one its own solve gives, bit for bit.

    A count above MAX_JUMPS, pinned or reached by the walk, raises
    TooManyJumps before it is scored: a start above it fails before any
    count is solved, and a walk that climbs past it fails rather than
    return a count the limit chose.

    The result keeps every count's candidate in `SharpMinimum.candidates`:
    the row of count n is what the same options pinned to n return.
    """
    return optimize_sharp_sweep((eps,), w, options)[0]


def optimize_sharp_sweep(
    eps_list, w: WeightParams, options: SharpOptions | None = None
) -> tuple[SharpMinimum, ...]:
    """`optimize_sharp` at each eps of `eps_list`, with one weight pair
    and one set of options; one result per eps, in list order.

    Every eps runs its own walk over counts, and the walks advance
    together: each scoring round refines the pending round of every walk
    still going in one batch, so each Newton round makes one gap-kernel
    call for the whole sweep.  Each result is bit for bit what
    `optimize_sharp` alone returns at its eps.

    Every eps is checked by `check_energy` before any count is scored:
    one that is not positive and finite raises InvalidConfig, and
    beta >= 3 raises DivergentIntegral.  Near beta = 3 so does a start
    layout that overflows (`_graded_start_gaps`), and a walk none of
    whose counts has a finite total, with a message that names its eps
    and the weights; each result is the count of the lowest finite
    total, unconverged beside a scored count of no finite total.  A round
    holding a count above MAX_JUMPS raises TooManyJumps before any of it
    is scored, for the first such count in eps-list order, then in walk
    order; the message names that count and its eps.
    """
    eps_list = tuple(eps_list)
    for eps in eps_list:
        check_energy(eps, w)
    opts = options or SharpOptions()
    max_iter = opts.max_iter if opts.refine else 0

    # per eps: count -> (energy, profile, converged)
    scored: list[dict[int, tuple[EnergyBreakdown, SawtoothProfile, bool]]] = [
        {} for _ in eps_list
    ]
    walks = [
        iter([[int(opts.n_jumps)]])
        if opts.n_jumps is not None
        else _count_walk(jump_count_estimate(eps, w), done)
        for eps, done in zip(eps_list, scored)
    ]
    rounds = [next(walk) for walk in walks]
    while any(rounds):
        batch = [(i, n) for i, counts in enumerate(rounds) for n in counts]
        for i, n in batch:
            if n > MAX_JUMPS:
                raise TooManyJumps(
                    f"jump count {n} at eps={eps_list[i]:g}, weights ({w.alpha:g}, {w.beta:g}) "
                    f"is above MAX_JUMPS = {MAX_JUMPS}"
                )
        rows = _count_candidates(
            [n for _, n in batch], [eps_list[i] for i, _ in batch], w, max_iter
        )
        for (i, n), row in zip(batch, rows):
            scored[i][n] = row
        rounds = [next(walk, []) if counts else [] for walk, counts in zip(walks, rounds)]

    results = []
    for eps, done in zip(eps_list, scored):
        table = tuple((n, done[n][0].total, *done[n][1:]) for n in sorted(done))
        finite = [(total, n) for n, total, *_ in table if math.isfinite(total)]
        if not finite:
            raise DivergentIntegral(
                f"no jump count has a finite energy at eps={eps:g}, "
                f"weights ({w.alpha:g}, {w.beta:g})"
            )
        n_best = min(finite)[1]
        energy, profile, ok = done[n_best]
        # a winner beside a count of no finite total is not bracketed
        beside = [done[k][0].total for k in (n_best - 1, n_best + 1) if k in done]
        ok = ok and all(map(math.isfinite, beside))
        results.append(
            SharpMinimum(profile=profile, energy=energy, converged=ok, candidates=table)
        )
    return tuple(results)


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


def amplitude_envelope_ratio(profile: SawtoothProfile, eps: float, beta: float) -> float:
    """max over t of |u(t)| / (eps**(2/9) * t**(beta/3)), over the
    breakpoints and 2048 geometric samples.

    Boundedness of this statistic across eps is the quantitative form of
    the amplitude decay law near the singular end."""
    bp = profile.breakpoints
    grid = np.geomspace(max(bp[1] * 1e-3, 1e-9), 1.0, 2048)
    ts = np.unique(np.concatenate((bp[1:], grid)))
    u = np.abs(profile.evaluate(ts))
    env = eps ** (2.0 / 9.0) * ts ** (beta / 3.0)
    return float(np.max(u / env))
