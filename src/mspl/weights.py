"""Weight exponents and the structural hypotheses they satisfy.

Pure Python, so the commands that only describe a regime (`cell`,
`preset`) load no numerical library.
"""

import math
from dataclasses import dataclass

from .errors import InvalidConfig, check_real


@dataclass(frozen=True)
class WeightParams:
    """Exponent pair for the weights t**alpha (stiffness) and
    t**(-beta) (confinement)."""

    alpha: float
    beta: float

    def __post_init__(self):
        check_real("weight exponent alpha", self.alpha)
        check_real("weight exponent beta", self.beta)
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise InvalidConfig(
                f"weight exponents must be finite, got ({self.alpha!r}, {self.beta!r})"
            )

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

