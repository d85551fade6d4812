"""The Alberti-Mueller cell problem: frozen-coefficient sawtooth density.

Around an interior point s the energy looks, after zooming by eps**(1/3),
like a frozen-coefficient functional whose minimizers are periodic
sawtooth waves.  This module gives that cell density, its optimal period
in closed form and by a derivative-free search, and the constants of the
period law.  It needs only `math`, so `mspl cell` loads no numerical
library.
"""

import math
from dataclasses import dataclass

from .errors import BracketFailure, InvalidConfig, InvalidPeriod, InvalidSample
from .weights import WeightParams


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
