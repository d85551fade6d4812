"""The Alberti-Mueller cell problem: frozen-coefficient sawtooth density.

Around an interior point s the energy looks, after zooming by eps**(1/3),
like a frozen-coefficient functional whose minimizers are periodic
sawtooth waves.  This module gives the one period law of both models
(`sharp_period`; the diffuse model's is the same law at its sharp
surrogate), the cell density, and its optimal period in closed form and
by a derivative-free bisection.  It needs only `math`, so `mspl cell`
loads no numerical library.
"""

import math
import sys
from dataclasses import dataclass

from .errors import InvalidConfig, InvalidPeriod, InvalidSample
from .weights import WeightParams


def A0_constant() -> float:
    """Per-corner cost of an optimal slope transition in rescaled
    coordinates: twice the area under sqrt(W) across the well,
    2 * int_{-1}^{1} sqrt(W).  Equals 4/3 for the quartic well, where
    sqrt(W) = (1 - x**2)/2."""
    return 4.0 / 3.0


def _tooth_pair(corner: float, bulk: float) -> float:
    """Width 2y of the tooth pair that minimizes the frozen density

        corner / y  +  bulk * y**2 / 12

    over the tooth width y: one corner of cost `corner` per tooth, and
    the mean of bulk * u**2 over a slope-one tooth of width y.  The
    minimum is at y**3 = 6 corner / bulk.  The two cube roots are taken
    apart, so that corner / bulk cannot underflow or overflow."""
    return 2.0 * (6.0 * corner) ** (1.0 / 3.0) / bulk ** (1.0 / 3.0)


def sharp_period(s: float, eps: float, w: WeightParams) -> float:
    """The sharp model's local period at s,

        h(s) = 2 (12 eps)**(1/3) s**((alpha+beta)/3).

    Frozen at s, a slope-one sawtooth with teeth of width y spends
    2 eps s**alpha / y per unit length on its corners (each reversal
    carries curvature mass 2) and s**-beta y**2 / 12 on the bulk; the sum
    is least at y**3 = 12 eps s**(alpha+beta), and h is the tooth pair
    2y.  The diffuse model's law is this one at its sharp-interface
    surrogate (`diffuse.diffuse_surrogate`), whose corners cost what a
    diffuse transition layer costs.  An s outside (0, 1) raises
    InvalidSample."""
    if not 0.0 < s < 1.0:
        raise InvalidSample(f"location must be interior, got {s!r}")
    return _tooth_pair(2.0 * eps * s**w.alpha, s ** (-w.beta))


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
    """Closed-form optimal pattern period (48*A0*sqrt(a)/b)**(1/3), twice
    the corner spacing that minimizes cell_density(., 0): the tooth pair
    of a corner cost A0*sqrt(a) and a bulk weight b."""
    return _tooth_pair(A0_constant() * math.sqrt(params.a_s), params.b_s)


def period_law_constant() -> float:
    """L = (48 * A0)**(1/3) = 4, the optimal period at a = b = 1."""
    return optimal_period(CellDensityParams(1.0, 1.0))


@dataclass(frozen=True)
class CellMinimum:
    period: float  # full pattern period, twice the optimal corner spacing
    spacing: float
    density: float
    iterations: int


# the search range in log h: every positive normal double
_LOG_H_RANGE = (math.log(sys.float_info.min), math.log(sys.float_info.max))
_HALVINGS = 60
_DELTA = 1e-6


def minimize_cell(params: CellDensityParams) -> CellMinimum:
    """Minimize the cell density over the corner spacing, derivative-free;
    reports the resulting pattern period (twice the spacing).

    g(h) = cell_density(h, 0) is convex in log h, so the minimum lies to
    the right of h where g(h e**d) < g(h e**-d), d = 1e-6.  That sign
    bisects log h over the positive normal doubles; 60 halvings shrink
    the range below 2e-15, and the sign test resolves the minimizer to
    about 1e-10 relative, where g's rounding decides it."""

    def g(h):
        return cell_density(h, 0.0, params)

    lo, hi = _LOG_H_RANGE
    for _ in range(_HALVINGS):
        mid = 0.5 * (lo + hi)
        if g(math.exp(mid + _DELTA)) < g(math.exp(mid - _DELTA)):
            lo = mid
        else:
            hi = mid
    h = math.exp(0.5 * (lo + hi))
    return CellMinimum(period=2.0 * h, spacing=h, density=g(h), iterations=_HALVINGS)
