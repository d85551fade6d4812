"""Window functional and period measurement.

The cell problem and the period law live in `cell`.  This module
evaluates the zoomed window functional on sampled data and measures the
empirical period of a computed minimizer against the law of its model:
`cell.sharp_period` for a sharp profile, and `predicted_period`, the same
law at the diffuse model's sharp surrogate, for a diffuse field,

    h(s) = eps**(1/3) * L * s**((alpha + 2*beta)/6),   L = 4.
"""

from dataclasses import dataclass

import numpy as np

from .cell import sharp_period
from .core import power_primitive, weighted_square_integrals
from .diffuse import DiffuseField, diffuse_surrogate, double_well
from .errors import (
    InvalidConfig,
    InvalidPeriod,
    InvalidSample,
    TooFewOscillations,
    WindowOutOfDomain,
)
from .sharp import SawtoothProfile
from .weights import WeightParams


def sawtooth(t, h: float):
    """Reference h-periodic zero-mean sawtooth: |t| - h/4 on the cell
    (-h/2, h/2], extended periodically.  Slopes are +-1, teeth h/2 wide."""
    if not h > 0.0:
        raise InvalidPeriod(f"period must be positive, got {h!r}")
    t = np.asarray(t, dtype=float)
    # shift into (-h/2, h/2]
    tt = t - h * np.ceil(t / h - 0.5)
    return np.abs(tt) - 0.25 * h


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
    """The diffuse model's local period: the sharp law at the diffuse
    model's sharp-interface surrogate."""
    return sharp_period(s, *diffuse_surrogate(eps, w))


def extract_period(
    obj, s: float, window: float | None = None, *, eps: float, weights: WeightParams
) -> PeriodEstimate:
    """Empirical oscillation period of a minimizer near s, vs the period
    law of its model (`sharp_period` or `predicted_period`).

    Slope reversals inside [s-window, s+window] are collected (jump
    points for a sawtooth profile, slope zero-crossings for a nodal
    field); the period is twice the 10%-trimmed mean reversal gap.
    Needs at least 4 reversals, else TooFewOscillations."""
    if not 0.0 < s < 1.0:
        raise InvalidSample(f"location must be interior, got {s!r}")
    if isinstance(obj, SawtoothProfile):
        pts = np.asarray(obj.jumps, dtype=float)
        h_pred = sharp_period(s, eps, weights)
    elif isinstance(obj, DiffuseField):
        pts = obj.slope_reversals()
        h_pred = predicted_period(s, eps, weights)
    else:
        raise InvalidSample(f"cannot extract a period from {type(obj).__name__}")
    if window is None:
        # ~2.5 local periods: wide enough for >= 4 reversals, narrow
        # enough that the s-dependence of the period is not averaged out
        window = 1.25 * h_pred
    lo = max(s - window, 0.0)
    hi = min(s + window, 1.0)
    pts = pts[(pts >= lo) & (pts <= hi)]

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
