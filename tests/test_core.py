from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import quad

from mspl import (
    DivergentIntegral,
    EnergyBreakdown,
    WeightParams,
    validate_weights,
)
from mspl.core import power_primitive, weighted_square_integrals


@dataclass(frozen=True)
class AffineSegment:
    """u(t) = u0 + slope*(t - t0) on [t0, t1] within the unit interval."""

    t0: float
    t1: float
    u0: float
    slope: float

    def __post_init__(self):
        if not (0.0 <= self.t0 < self.t1 <= 1.0):
            raise ValueError(
                f"need 0 <= t0 < t1 <= 1, got t0={self.t0!r}, t1={self.t1!r}"
            )


def integrate_weighted_square(seg: AffineSegment, beta: float) -> float:
    """The closed-form integral of t**(-beta) * u(t)**2 over one segment,
    the scalar case of the vector kernel."""
    return float(
        weighted_square_integrals(seg.t0, seg.t1, seg.u0, seg.slope, beta)[0]
    )


def quad_oracle(seg, beta):
    val, err = quad(
        lambda t: t ** (-beta) * (seg.u0 + seg.slope * (t - seg.t0)) ** 2,
        seg.t0,
        seg.t1,
        epsabs=1e-14,
        epsrel=1e-13,
        limit=200,
    )
    return val


def test_closed_form_segment_values():
    assert integrate_weighted_square(AffineSegment(0.0, 1.0, 0.0, 1.0), 0.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert integrate_weighted_square(AffineSegment(0.0, 1.0, 0.0, 1.0), 1.0) == pytest.approx(0.5, abs=1e-15)
    # antiderivative of t^{-1} (u0 + (t-1/2))^2 with u0=0: t^2/2 - t + ln(t)/4
    got = integrate_weighted_square(AffineSegment(0.5, 1.0, 0.0, 1.0), 1.0)
    assert got == pytest.approx(np.log(2.0) / 4.0 - 1.0 / 8.0, rel=1e-13)


def test_power_primitive_matches_quad():
    rng = np.random.default_rng(7)
    for _ in range(300):
        t0 = float(rng.uniform(1e-4, 0.9))
        t1 = float(t0 + rng.uniform(1e-4, 1.0 - t0))
        p = float(rng.uniform(-3.5, 2.5))
        ref, _ = quad(lambda t: t**p, t0, t1, epsabs=1e-14, epsrel=1e-13)
        got = power_primitive(t0, t1, p)
        assert got == pytest.approx(ref, rel=1e-11, abs=1e-16)


def test_power_primitive_pole_branch():
    # p = -1 is a logarithm; the branch must join continuously
    exact = np.log(0.8 / 0.2)
    assert power_primitive(0.2, 0.8, -1.0) == pytest.approx(exact, rel=1e-14)
    near = power_primitive(0.2, 0.8, -1.0 + 1e-13)
    assert near == pytest.approx(exact, rel=1e-10)


def test_quadrature_oracle_random_segments():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        t0 = float(rng.uniform(0.01, 0.8))
        t1 = float(t0 + rng.uniform(0.01, 1.0 - t0))
        seg = AffineSegment(t0, t1, float(rng.normal(0, 0.3)), float(rng.choice([-1.0, 1.0])))
        beta = float(rng.uniform(-1.0, 2.9))
        got = integrate_weighted_square(seg, beta)
        ref = quad_oracle(seg, beta)
        if ref != 0.0:
            worst = max(worst, abs(got - ref) / abs(ref))
    assert worst <= 1e-10


def test_rescaling_identity():
    # t = a x, u = a v maps the bulk integral on [0,a] to a^{3-beta} times
    # the unit-interval one; exact for the closed form
    rng = np.random.default_rng(23)
    for _ in range(50):
        t0 = float(rng.uniform(0.05, 0.5))
        t1 = float(t0 + rng.uniform(0.05, 0.5))
        u0 = float(rng.normal(0, 0.2))
        seg = AffineSegment(t0, t1, u0, 1.0)
        a = float(rng.uniform(0.1, 1.0))
        beta = float(rng.uniform(-1.0, 2.5))
        big = integrate_weighted_square(
            AffineSegment(a * t0, a * t1, a * u0, 1.0), beta
        )
        small = integrate_weighted_square(seg, beta)
        assert big == pytest.approx(a ** (3.0 - beta) * small, rel=1e-12)


def test_beta_pole_continuity():
    seg = AffineSegment(0.3, 0.9, 0.1, -1.0)
    for b in (1.0, 2.0):
        mid = integrate_weighted_square(seg, b)
        lo = integrate_weighted_square(seg, b - 1e-6)
        hi = integrate_weighted_square(seg, b + 1e-6)
        assert lo == pytest.approx(mid, rel=1e-4)
        assert hi == pytest.approx(mid, rel=1e-4)


def test_singular_endpoint():
    # u(0)=0 keeps t^{-beta} u^2 integrable up to beta < 3
    got = integrate_weighted_square(AffineSegment(0.0, 1.0, 0.0, 1.0), 2.5)
    assert got == pytest.approx(2.0, rel=1e-13)  # t^{2-2.5} integrates to 1/0.5

    with pytest.raises(DivergentIntegral):
        integrate_weighted_square(AffineSegment(0.0, 1.0, 0.5, 1.0), 1.0)
    with pytest.raises(DivergentIntegral):
        integrate_weighted_square(AffineSegment(0.0, 1.0, 0.0, 1.0), 3.0)


def test_segment_validation():
    with pytest.raises(ValueError):
        AffineSegment(0.5, 0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        AffineSegment(-0.1, 0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        AffineSegment(0.2, 1.5, 0.0, 1.0)


def test_weight_flags():
    r = validate_weights(WeightParams(0.5, 1.0))
    assert r.beta_ok and r.distribution_ok and r.limit_ok

    r = validate_weights(WeightParams(0.0, 0.0))
    assert r.beta_ok and r.distribution_ok and not r.limit_ok

    r = validate_weights(WeightParams(1.0, 3.0))
    assert not r.beta_ok
    assert any("beta" in reason for reason in r.reasons)


def test_energy_breakdown_sum():
    a = EnergyBreakdown(1.0, 0.5, 0.25)
    b = EnergyBreakdown(0.1, 0.2, 0.3)
    assert a.total == pytest.approx(1.75)
    c = a + b
    assert (c.surface, c.well, c.bulk) == (1.1, 0.7, 0.55)
