"""Period measurement.

The cell problem and the period law live in `cell`.  This module
measures the empirical period of a computed minimizer against the law
of its model:
`cell.sharp_period` for a sharp profile, and `predicted_period`, the same
law at the diffuse model's sharp surrogate, for a diffuse field,

    h(s) = eps**(1/3) * L * s**((alpha + 2*beta)/6),   L = 4.
"""

from dataclasses import dataclass

import numpy as np

from .cell import sharp_period
from .diffuse import DiffuseField, diffuse_surrogate
from .errors import InvalidSample, TooFewOscillations
from .sharp import SawtoothProfile
from .weights import WeightParams


@dataclass(frozen=True)
class PeriodEstimate:
    s: float
    h_emp: float
    h_pred: float
    n_teeth: int

    @property
    def ratio(self) -> float:
        return self.h_emp / self.h_pred


def predicted_period(s: float, eps: float, w: WeightParams) -> float:
    """The diffuse model's local period: the sharp law at the diffuse
    model's sharp-interface surrogate."""
    return sharp_period(s, *diffuse_surrogate(eps, w))


def extract_period(obj, s: float, *, eps: float, weights: WeightParams) -> PeriodEstimate:
    """Empirical oscillation period of a minimizer near s, vs the period
    law h_pred of its model (`sharp_period` or `predicted_period`).

    Slope reversals within 1.25 h_pred of s are collected (jump points
    for a sawtooth profile, slope zero-crossings for a nodal field):
    about 2.5 local periods, wide enough for 4 reversals and narrow
    enough that the s-dependence of the period is not averaged out.  The
    period is twice the 10%-trimmed mean reversal gap.  Needs at least 4
    reversals, else TooFewOscillations."""
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
    lo = max(s - 1.25 * h_pred, 0.0)
    hi = min(s + 1.25 * h_pred, 1.0)
    pts = pts[(pts >= lo) & (pts <= hi)]

    if pts.size < 4:
        raise TooFewOscillations(
            f"only {pts.size} slope reversals in [{lo:g}, {hi:g}]"
        )
    gaps = np.sort(np.diff(np.sort(pts)))
    cut = int(0.1 * gaps.size)
    h_emp = 2.0 * float(np.mean(gaps[cut : gaps.size - cut]))
    return PeriodEstimate(s=s, h_emp=h_emp, h_pred=h_pred, n_teeth=int(pts.size))
