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

from .errors import DivergentIntegral, InvalidSegment

# Exponent distance from the 1/t pole below which the logarithmic
# antiderivative is used instead of the power rule.
POLE_TOL = 1e-12


@dataclass(frozen=True)
class WeightParams:
    """Exponent pair for the weights t**alpha (stiffness) and
    t**(-beta) (confinement)."""

    alpha: float
    beta: float

    @property
    def beta_ok(self) -> bool:
        """Bulk integral of slope-one profiles is finite iff beta < 3."""
        return self.beta < 3.0

    @property
    def distribution_ok(self) -> bool:
        """Hypothesis for the uniform-energy-distribution statement."""
        return 2.0 * self.alpha >= self.beta

    @property
    def limit_ok(self) -> bool:
        """Hypothesis for the local period law."""
        return (
            self.alpha > 0.0
            and self.beta > 0.0
            and self.beta - 2.0 * self.alpha < 3.0
        )


@dataclass(frozen=True)
class WeightValidity:
    beta_ok: bool
    distribution_ok: bool
    limit_ok: bool
    reasons: tuple[str, ...]

    @property
    def all_ok(self) -> bool:
        return self.beta_ok and self.distribution_ok and self.limit_ok


def validate_weights(w: WeightParams) -> WeightValidity:
    """Report which structural hypotheses the exponent pair satisfies.

    Never raises: invalid regimes are part of what the lab explores, so
    the result is a set of flags with human-readable reasons.
    """
    reasons = []
    if not w.beta_ok:
        reasons.append(
            f"beta={w.beta:g} >= 3: confining weight defeats slope-one "
            "profiles (bulk integral infinite)"
        )
    if not w.distribution_ok:
        reasons.append(
            f"2*alpha={2 * w.alpha:g} < beta={w.beta:g}: energy "
            "distribution bound not guaranteed"
        )
    if not w.limit_ok:
        reasons.append(
            f"(alpha, beta)=({w.alpha:g}, {w.beta:g}) outside the "
            "period-law regime (need alpha>0, beta>0, beta-2*alpha<3)"
        )
    return WeightValidity(
        beta_ok=w.beta_ok,
        distribution_ok=w.distribution_ok,
        limit_ok=w.limit_ok,
        reasons=tuple(reasons),
    )


@dataclass(frozen=True)
class AffineSegment:
    """u(t) = u0 + slope*(t - t0) on [t0, t1] within the unit interval."""

    t0: float
    t1: float
    u0: float
    slope: float

    def __post_init__(self):
        if not (0.0 <= self.t0 < self.t1 <= 1.0):
            raise InvalidSegment(
                f"need 0 <= t0 < t1 <= 1, got t0={self.t0!r}, t1={self.t1!r}"
            )

    def __call__(self, t):
        return self.u0 + self.slope * (np.asarray(t) - self.t0)


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


def power_primitive(t0, t1, p):
    """Integral of t**p over [t0, t1], elementwise, assuming t0 > 0.

    Uses the power rule away from p = -1 and switches to log within
    POLE_TOL of the pole.  Written with expm1 so the value varies
    continuously (to rounding) as p crosses the switch.
    """
    t0 = np.asarray(t0, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    q = p + 1.0
    # optimizers probe degenerate trial segments (t0 -> 0, gap -> 0);
    # let inf/nan propagate silently so a line search can reject them
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = np.log(t1 / t0)
        if abs(q) < POLE_TOL:
            return r + 0.0 * t0
        # (t1**q - t0**q)/q = t0**q * expm1(q*log(t1/t0)) / q
        return t0**q * np.expm1(q * r) / q


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
        p0 = power_primitive(a, b, -beta)
        p1 = power_primitive(a, b, 1.0 - beta)
        p2 = power_primitive(a, b, 2.0 - beta)
        out[inside] = c * c * p0 + 2.0 * c * s * p1 + s * s * p2
    return out


def integrate_weighted_square(seg: AffineSegment, beta: float) -> float:
    """Exact integral of t**(-beta) * u(t)**2 over one affine segment."""
    return float(
        weighted_square_integrals(seg.t0, seg.t1, seg.u0, seg.slope, beta)[0]
    )
