"""Local cell problem and period measurement.

Around an interior point s the energy looks, after zooming by eps**(1/3),
like a frozen-coefficient functional whose minimizers are periodic
sawtooth waves.  This module computes that cell density, its optimal
period in closed form and numerically, evaluates the zoomed window
functional on sampled data, and measures empirical periods of computed
minimizers for comparison against the prediction

    h(s) = eps**(1/3) * L * s**((alpha + 2*beta)/6),   L = (96 I)**(1/3),

with I the area under sqrt of the double well.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import WeightParams, power_primitive, weighted_square_integrals
from .diffuse import DiffuseField, double_well
from .errors import (
    BracketFailure,
    InvalidConfig,
    InvalidPeriod,
    InvalidSample,
    TooFewOscillations,
    WindowOutOfDomain,
)
from .sharp import SawtoothProfile


def sawtooth(t, h: float):
    """Reference h-periodic zero-mean sawtooth: |t| - h/4 on the cell
    (-h/2, h/2], extended periodically.  Slopes are +-1, teeth h/2 wide."""
    if not h > 0.0:
        raise InvalidPeriod(f"period must be positive, got {h!r}")
    t = np.asarray(t, dtype=float)
    # shift into (-h/2, h/2]
    tt = t - h * np.ceil(t / h - 0.5)
    return np.abs(tt) - 0.25 * h


def A0_constant() -> float:
    """Per-corner cost of an optimal slope transition in rescaled
    coordinates: twice the area under sqrt(W) across the well,
    2 * int_{-1}^{1} sqrt(W).  Equals 4/3 for the quartic well, where
    sqrt(W) = (1 - x**2)/2."""
    return 4.0 / 3.0


def period_law_constant() -> float:
    """L = (96 * int_0^1 sqrt(W))**(1/3) = (48 * A0)**(1/3); equals 4."""
    return (48.0 * A0_constant()) ** (1.0 / 3.0)


@dataclass(frozen=True)
class CellDensityParams:
    """Frozen coefficients of the zoomed cell problem at location s."""

    a_s: float
    b_s: float

    def __post_init__(self):
        if not (self.a_s > 0.0 and self.b_s > 0.0):
            raise InvalidConfig(
                f"cell coefficients must be positive, got ({self.a_s!r}, {self.b_s!r})"
            )

    @classmethod
    def from_location(cls, s: float, w: WeightParams) -> "CellDensityParams":
        if not 0.0 < s < 1.0:
            raise InvalidSample(f"location must be interior, got {s!r}")
        return cls(a_s=s**w.alpha, b_s=s ** (-w.beta))


def cell_density(h: float, p: float, params: CellDensityParams) -> float:
    """Mean energy density of a sawtooth wave with corner spacing h
    (tooth width; the full pattern period is 2h) at mean offset p:

        A0*sqrt(a)/h  +  b*h**2/12  +  b*p**2

    -- one corner of cost A0*sqrt(a) per length h, plus the mean square
    of a tooth of width h, plus the offset penalty."""
    if not h > 0.0:
        raise InvalidPeriod(f"corner spacing must be positive, got {h!r}")
    a, b = params.a_s, params.b_s
    return A0_constant() * math.sqrt(a) / h + b * h * h / 12.0 + b * p * p


def optimal_period(params: CellDensityParams) -> float:
    """Closed-form optimal pattern period (48*A0*sqrt(a)/b)**(1/3),
    i.e. twice the corner spacing that minimizes cell_density(., 0)
    (the spacing solves h**3 = 6*A0*sqrt(a)/b)."""
    return (48.0 * A0_constant() * math.sqrt(params.a_s) / params.b_s) ** (1.0 / 3.0)


@dataclass(frozen=True)
class CellMinimum:
    period: float  # full pattern period, twice the optimal corner spacing
    spacing: float
    density: float
    bracket: tuple[float, float]
    iterations: int


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def minimize_cell(params: CellDensityParams, p: float = 0.0) -> CellMinimum:
    """Minimize the cell density over the corner spacing, derivative-free;
    reports the resulting pattern period (twice the spacing).

    Golden-section search on an auto-expanded bracket (up to 60 doublings
    each way), followed by a parabolic vertex polish: pure golden section
    stalls at ~sqrt(machine eps) relative accuracy, the parabola through
    three nearby samples pins the minimum to ~1e-11."""

    def g(h):
        return cell_density(h, p, params)

    lo, hi = 1e-3, 1.0
    it = 0
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if g(lo) > g(mid) < g(hi):
            break
        if g(lo) <= g(mid):
            lo *= 0.5
        else:
            hi *= 2.0
        it += 1
    else:
        raise BracketFailure(
            f"no interior minimum of the cell density in [{lo:g}, {hi:g}]"
        )
    bracket = (lo, hi)

    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    gc, gd = g(c), g(d)
    while (b - a) > 1e-7 * (abs(a) + abs(b)) and it < 500:
        if gc < gd:
            b, d, gd = d, c, gc
            c = b - _GOLDEN * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + _GOLDEN * (b - a)
            gd = g(d)
        it += 1
    h = 0.5 * (a + b)

    # parabolic polish: vertex of the quadratic through h-d, h, h+d
    for _ in range(3):
        dlt = 1e-5 * h
        g0, gm, gp = g(h), g(h - dlt), g(h + dlt)
        denom = gm - 2.0 * g0 + gp
        if denom <= 0.0:
            break
        shift = 0.5 * dlt * (gm - gp) / denom
        if abs(shift) > dlt:
            shift = math.copysign(dlt, shift)
        h += shift
        it += 1

    return CellMinimum(
        period=2.0 * h, spacing=h, density=g(h), bracket=bracket, iterations=it
    )


def window_functional(
    x: np.ndarray, s: float, eps: float, w: WeightParams, half_width: float
) -> float:
    """Average rescaled energy of window data x sampled uniformly on
    [-r, r] in zoomed coordinates around s (r = half_width):

    mean of  eps**(2/3) a(tau) x''**2 + eps**(-2/3) W(x') + b(tau) x**2,
    tau = s + eps**(1/3) t, a = tau**alpha, b = tau**(-beta).

    Curvature uses centered second differences with dual-cell weights;
    the bulk integrates the linear interpolant exactly.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 5:
        raise InvalidSample("window data must be 1-d with at least 5 samples")
    if not (eps > 0.0 and half_width > 0.0):
        raise InvalidConfig("eps and half_width must be positive")
    lam = eps ** (1.0 / 3.0)
    if not (s - lam * half_width > 0.0 and s + lam * half_width < 1.0):
        raise WindowOutOfDomain(
            f"window [{s - lam * half_width:g}, {s + lam * half_width:g}] "
            "leaves the open unit interval"
        )
    m = x.size - 1
    dt = 2.0 * half_width / m
    t = -half_width + dt * np.arange(m + 1)
    tau = s + lam * t

    curv = (x[:-2] - 2.0 * x[1:-1] + x[2:]) / (dt * dt)
    mids = s + lam * (t[:-1] + 0.5 * dt)
    dual = power_primitive(mids[:-1], mids[1:], w.alpha) / lam
    surface = eps ** (2.0 / 3.0) * float(curv @ (dual * curv))

    slope = np.diff(x) / dt
    well = eps ** (-2.0 / 3.0) * dt * float(np.sum(double_well(slope)))

    # int b(s + lam t) x(t)**2 dt = (1/lam) int tau**-beta v(tau)**2 dtau
    bulk = float(
        np.sum(
            weighted_square_integrals(tau[:-1], tau[1:], x[:-1], slope / lam, w.beta)
        )
    ) / lam

    return (surface + well + bulk) / (2.0 * half_width)


@dataclass(frozen=True)
class PeriodEstimate:
    s: float
    h_emp: float
    h_pred: float
    n_teeth: int
    window: float

    @property
    def ratio(self) -> float:
        return self.h_emp / self.h_pred


def predicted_period(s: float, eps: float, w: WeightParams) -> float:
    return eps ** (1.0 / 3.0) * period_law_constant() * s ** (
        (w.alpha + 2.0 * w.beta) / 6.0
    )


def extract_period(
    obj, s: float, window: float | None = None, *, eps: float, weights: WeightParams
) -> PeriodEstimate:
    """Empirical oscillation period of a minimizer near s, vs predicted.

    Slope reversals inside [s-window, s+window] are collected (jump
    points for a sawtooth profile, slope zero-crossings for a nodal
    field); the period is twice the 10%-trimmed mean reversal gap.
    Needs at least 4 reversals, else TooFewOscillations."""
    if not 0.0 < s < 1.0:
        raise InvalidSample(f"location must be interior, got {s!r}")
    h_pred = predicted_period(s, eps, weights)
    if window is None:
        # ~2.5 local periods: wide enough for >= 4 reversals, narrow
        # enough that the s-dependence of the period is not averaged out
        window = 1.25 * h_pred
    lo = max(s - window, 0.0)
    hi = min(s + window, 1.0)

    if isinstance(obj, SawtoothProfile):
        pts = np.asarray(obj.jumps, dtype=float)
        pts = pts[(pts >= lo) & (pts <= hi)]
    elif isinstance(obj, DiffuseField):
        pts = obj.slope_reversals()
        pts = pts[(pts >= lo) & (pts <= hi)]
    else:
        raise InvalidSample(f"cannot extract a period from {type(obj).__name__}")

    if pts.size < 4:
        raise TooFewOscillations(
            f"only {pts.size} slope reversals in [{lo:g}, {hi:g}]"
        )
    gaps = np.sort(np.diff(np.sort(pts)))
    cut = int(0.1 * gaps.size)
    h_emp = 2.0 * float(np.mean(gaps[cut : gaps.size - cut]))
    return PeriodEstimate(
        s=s, h_emp=h_emp, h_pred=h_pred, n_teeth=int(pts.size), window=float(window)
    )
