"""Shared domain types and exact integration against singular weights.

The bulk term of both energy models is an integral of t**(-beta) * u(t)**2
with u piecewise affine.  Minimizers push many small teeth toward the
singular end t = 0, so this integral is evaluated in closed form: the only
approximation anywhere downstream is the profile itself, never the
quadrature.  The same primitive also serves the diffuse model's mass
matrix and the rescaled window functional.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DivergentIntegral

# Exponent distance from the 1/t pole below which the logarithmic
# antiderivative is used instead of the power rule.
POLE_TOL = 1e-12


@dataclass(frozen=True)
class EnergyBreakdown:
    """Additive decomposition of an energy value.

    `well` is identically zero for the sharp model; one shared type keeps
    report schemas uniform across models.
    """

    surface: float
    well: float
    bulk: float

    @property
    def total(self) -> float:
        return self.surface + self.well + self.bulk

    def as_dict(self) -> dict[str, float]:
        return {
            "surface": self.surface,
            "well": self.well,
            "bulk": self.bulk,
            "total": self.total,
        }

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            self.surface + other.surface,
            self.well + other.well,
            self.bulk + other.bulk,
        )


def power_primitives(t0, t1, exponents):
    """Integrals of t**p over [t0, t1] for each p in `exponents`,
    elementwise, assuming t0 > 0.

    log(t1/t0) is taken once and shared.  Uses the power rule away from
    p = -1 and switches to log within POLE_TOL of the pole.  Written with
    expm1 so each value varies continuously (to rounding) as p crosses
    the switch.
    """
    # optimizers probe degenerate trial segments (t0 -> 0, gap -> 0);
    # let inf/nan propagate silently so a line search can reject them
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return power_primitives_unguarded(t0, t1, exponents)


def power_primitives_unguarded(t0, t1, exponents):
    """`power_primitives` under the caller's floating-point error state,
    for a kernel that silences degenerate segments in a scope of its own."""
    t0 = np.asarray(t0, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    out = []
    r = np.log(t1 / t0)
    for p in exponents:
        q = p + 1.0
        if abs(q) < POLE_TOL:
            out.append(r + 0.0 * t0)
        else:
            # (t1**q - t0**q)/q = t0**q * expm1(q*log(t1/t0)) / q
            out.append(t0**q * np.expm1(q * r) / q)
    return tuple(out)


def power_primitive(t0, t1, p):
    """Integral of t**p over [t0, t1], elementwise, assuming t0 > 0;
    one exponent of power_primitives."""
    return power_primitives(t0, t1, (p,))[0]


def weighted_square_integrals(t0, t1, u0, slope, beta):
    """Vector kernel: integral of t**(-beta) * (u0 + slope*(t-t0))**2
    over each [t0, t1].

    Segments with t0 == 0 are admitted only when they cannot diverge:
    u0 must vanish there for beta >= 1, and beta < 3 always.  Raises
    DivergentIntegral otherwise.
    """
    t0 = np.atleast_1d(np.asarray(t0, dtype=float))
    t1 = np.atleast_1d(np.asarray(t1, dtype=float))
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    slope = np.atleast_1d(np.asarray(slope, dtype=float))
    t0, t1, u0, slope = np.broadcast_arrays(t0, t1, u0, slope)

    out = np.empty(t0.shape, dtype=float)
    at_origin = t0 == 0.0
    if np.any(at_origin):
        if beta >= 3.0:
            raise DivergentIntegral(
                f"t**(-{beta:g}) against a sloped segment touching t=0"
            )
        if beta >= 1.0 and np.any(u0[at_origin] != 0.0):
            raise DivergentIntegral(
                "segment touches t=0 with u(0) != 0 while beta >= 1"
            )
        b = t1[at_origin]
        c = u0[at_origin]
        s = slope[at_origin]
        if beta >= 1.0:
            # here c == 0 exactly, only the slope term survives
            out[at_origin] = s**2 * b ** (3.0 - beta) / (3.0 - beta)
        else:
            p0 = b ** (1.0 - beta) / (1.0 - beta)
            p1 = b ** (2.0 - beta) / (2.0 - beta)
            p2 = b ** (3.0 - beta) / (3.0 - beta)
            out[at_origin] = c * c * p0 + 2.0 * c * s * p1 + s * s * p2

    inside = ~at_origin
    if np.any(inside):
        a = t0[inside]
        b = t1[inside]
        # constant term of u written about t=0: u(t) = c + slope*t
        c = u0[inside] - slope[inside] * a
        s = slope[inside]
        p0, p1, p2 = power_primitives(a, b, (-beta, 1.0 - beta, 2.0 - beta))
        out[inside] = c * c * p0 + 2.0 * c * s * p1 + s * s * p2
    return out

