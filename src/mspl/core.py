"""Shared domain types and exact integration against singular weights.

The bulk term of both energy models is an integral of t**(-beta) * u(t)**2
with u piecewise affine.  Minimizers push many small teeth toward the
singular end t = 0.  Written about t = 0, a segment [a, a + y] has terms
of size a**2 y a**-beta that sum to about y**3 a**-beta, so 2 log10(a / y)
digits cancel.  `segment_moments` writes each segment about its own left
end instead, and every bulk integral -- the sharp energy, the sharp gap
kernel and its gradient, the diffuse mass matrix -- is a combination of
its moments.  Against 50-digit decimal arithmetic over beta in [-1, 2.9],
each moment is within 1e-15 relative for y <= 2a and 2e-15 beyond.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentIntegral, InvalidConfig, check_real
from .weights import WeightParams

# The 10-point Gauss-Legendre rule on [0, 1], rounded from 40 digits; it
# takes segments with y <= RULE_RATIO * a, where its truncation error is
# below 1e-17 relative, and the closed form the wider ones.
_GL_NODES = np.array([
    0.01304673574141414, 0.06746831665550775, 0.1602952158504878, 0.2833023029353764,
    0.4255628305091844, 0.5744371694908156, 0.7166976970646236, 0.8397047841495122,
    0.9325316833444922, 0.9869532642585859,
])
_GL_WEIGHTS = np.array([
    0.03333567215434407, 0.0747256745752903, 0.10954318125799102, 0.13463335965499817,
    0.14776211235737644,
])
_GL_WEIGHTS = np.concatenate((_GL_WEIGHTS, _GL_WEIGHTS[::-1]))
RULE_RATIO = 2.0


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


def check_energy(eps: float, w: WeightParams) -> None:
    """Refuse an eps or a bulk weight for which the energy of either model
    is not finite: eps must be a positive and finite real number, and
    beta < 3."""
    check_real("eps", eps)
    if not 0.0 < eps < math.inf:
        raise InvalidConfig(f"eps must be positive and finite, got {eps!r}")
    if not w.beta < 3.0:
        raise DivergentIntegral(f"beta={w.beta:g} >= 3: bulk term infinite")


def segment_moments(a, y, beta):
    """The moments M_k = int_0^y tau**k (a + tau)**(-beta) dtau, k = 0, 1,
    2, of each segment [a, a + y], elementwise, for a >= 0 and y >= 0.

    With t = a e**u, L = log1p(y / a) and q = 1 - beta, M_k is a**(q+k)
    times the integral over [0, L] of expm1(u)**k e**(q u), an entire
    function with no sign change.  For y <= RULE_RATIO * a the
    Gauss-Legendre rule takes it, with one expm1 and one exp per node
    for all three moments.  Wider segments take the closed form in
    E(p) = ((1 + y/a)**p - 1) / p: M_0, M_1, M_2 are a**q E(q),
    a**(q+1) (E(q+1) - E(q)) and a**(q+2) (E(q+2) - 2 E(q+1) + E(q)).
    At a = 0, M_k is y**(q+k) / (q+k), or inf where it diverges; at
    y = 0 it is 0.  A moment that overflows gives inf or nan silently,
    so a line search can reject it."""
    a, y = np.asarray(a, dtype=float), np.asarray(y, dtype=float)
    if a.shape != y.shape:
        a, y = np.broadcast_arrays(a, y)
    shape, a, y = a.shape, a.ravel(), y.ravel()
    out = np.zeros((3, a.size))
    q = 1.0 - beta
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = y / a
        rule = np.flatnonzero((r > 0.0) & (r <= RULE_RATIO))
        if rule.size:
            a_r = a[rule]
            L = np.log1p(r[rule])
            # nodes down axis 0: numpy sums the rows of a 2-column array in
            # order, and pairwise in a 1-column one, so a lone segment is
            # paired with itself to round as it does among others
            u = _GL_NODES[:, None] * (L if L.size > 1 else np.concatenate((L, L)))
            f = np.exp(q * u)
            f *= _GL_WEIGHTS[:, None]
            e = np.expm1(u)
            scale = a_r**-beta * a_r * L
            for k in range(3):
                if k:
                    f *= e
                    scale *= a_r
                out[k, rule] = scale * np.add.reduce(f, axis=0)[: L.size]
        # r is inf at a = 0 < y
        wide = np.flatnonzero(r > RULE_RATIO)
        if wide.size:
            a_w, r_w = a[wide], r[wide]
            L, g = np.log1p(r_w), 1.0 + r_w
            gk, e = g**-beta, []
            for p in (q, q + 1.0, q + 2.0):
                # (1 + r)**p - 1 through expm1(p L) for |p| < 1/2, and beyond
                # as g**-beta g**(p + beta) - 1, which loses at most a factor
                # 2.4 (r > 2) where the rounding of p would cost |p| L ulps
                gk = gk * g
                e.append(L if p == 0.0 else (np.expm1(p * L) if abs(p) < 0.5 else gk - 1.0) / p)
            scale = a_w**-beta * a_w
            out[0, wide] = scale * e[0]
            out[1, wide] = scale * a_w * (e[1] - e[0])
            out[2, wide] = scale * (a_w * a_w) * (e[2] - 2.0 * e[1] + e[0])
            origin = wide[a_w == 0.0]
            for k, p in enumerate((q, q + 1.0, q + 2.0)):
                out[k, origin] = y[origin] ** p / p if p > 0.0 else np.inf
    return tuple(m.reshape(shape) for m in out)


def power_primitive(t0, t1, p):
    """Integral of t**p over [t0, t1], elementwise, for 0 <= t0 <= t1:
    the moment M_0 of t**p on the segment."""
    return segment_moments(t0, np.subtract(t1, t0), -p)[0]


def weighted_square_integrals(t0, t1, u0, slope, beta):
    """Vector kernel: integral of t**(-beta) * (u0 + slope*(t-t0))**2
    over each [t0, t1], that is slope**2 M_2 + u0 (u0 M_0 + 2 slope M_1)
    in the segment moments.

    Segments with t0 == 0 are admitted only when they cannot diverge:
    u0 must vanish there for beta >= 1, and beta < 3 always.  Raises
    DivergentIntegral otherwise.
    """
    t0, t1, u0, slope = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (t0, t1, u0, slope))
    )

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
    m0, m1, m2 = segment_moments(t0, t1 - t0, beta)
    # u0 == 0 drops its terms, also where a moment diverges at t = 0
    with np.errstate(invalid="ignore"):
        cross = np.where(u0 != 0.0, u0 * (u0 * m0 + 2.0 * slope * m1), 0.0)
    return slope * slope * m2 + cross
