"""Weight exponents and the structural hypotheses they satisfy.

Pure Python, so the commands that only describe a regime (`cell`,
`preset`) load no numerical library.
"""

import math
from dataclasses import dataclass

from .errors import InvalidConfig


@dataclass(frozen=True)
class WeightParams:
    """Exponent pair for the weights t**alpha (stiffness) and
    t**(-beta) (confinement)."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise InvalidConfig(
                f"weight exponents must be finite, got ({self.alpha!r}, {self.beta!r})"
            )

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
