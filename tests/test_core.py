import decimal
from dataclasses import dataclass
from decimal import Decimal

import numpy as np
import pytest
from scipy.integrate import quad

from mspl import (
    DivergentIntegral,
    EnergyBreakdown,
    GradedMesh,
    SawtoothProfile,
    WeightParams,
    evaluate_sharp,
)
from mspl.core import power_primitive, segment_moments, weighted_square_integrals
from mspl.diffuse import _operators
from mspl.sharp import _gap_kernel


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
    w = WeightParams(0.5, 1.0)
    assert w.distribution_ok and w.limit_ok

    w = WeightParams(0.0, 0.0)
    assert w.distribution_ok and not w.limit_ok

    w = WeightParams(0.0, 1.0)
    assert not w.distribution_ok and not w.limit_ok


def test_energy_breakdown_sum():
    a = EnergyBreakdown(1.0, 0.5, 0.25)
    assert a.total == pytest.approx(1.75)


# ---------------------------------------------------------------------------
# the segment kernel against 50-digit decimal arithmetic
# ---------------------------------------------------------------------------


def decimal_primitives(ts, beta):
    """Integrals of t**(k - beta), k = 0, 1, 2, over each [ts[i], ts[i+1]]
    in decimal arithmetic, written about t = 0: the cancellation of about
    2 log10(t / h) digits is far inside 50.  A primitive that diverges at
    t = 0 is None."""
    b = Decimal(float(beta))
    logs = [t.ln() if t else None for t in ts]
    out = []
    for i in range(len(ts) - 1):
        row = []
        for p in (1 - b, 2 - b, 3 - b):
            if not ts[i] and p <= 0:
                row.append(None)
            elif p == 0:
                row.append(logs[i + 1] - logs[i])
            else:
                lo = (p * logs[i]).exp() if ts[i] else Decimal(0)
                row.append(((p * logs[i + 1]).exp() - lo) / p)
        out.append(row)
    return out


def decimal_sharp_total(bp, eps, w):
    """Surface plus bulk of the sawtooth with breakpoints bp (0, the
    jumps, 1), slope +1 first, in 50-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        ts = [Decimal(float(t)) for t in bp]
        a = Decimal(float(w.alpha))
        surface = 2 * Decimal(float(eps)) * sum((a * t.ln()).exp() for t in ts[1:-1])
        bulk, u, s = Decimal(0), Decimal(0), Decimal(1)
        for t0, t1, (p0, p1, p2) in zip(ts, ts[1:], decimal_primitives(ts, w.beta)):
            # u(t) = c + s t on the segment
            c = u - s * t0
            bulk += p2 if c == 0 else c * c * p0 + 2 * c * s * p1 + p2
            u += s * (t1 - t0)
            s = -s
        return surface + bulk


def dyadic_layout(rng, n):
    """Gaps of a closed n-jump layout, graded like k**gamma with jitter,
    on the grid 2**-44: every breakpoint and vertex value is exact in
    binary floating point, so the profile and the gap kernel see the same
    function as the decimal oracle."""
    weights = np.arange(1, n + 2) ** rng.uniform(0.0, 3.0) * np.exp(rng.normal(0.0, 0.3, n + 1))
    units = np.empty(n + 1, dtype=np.int64)
    for parity in (0, 1):
        part = weights[parity::2]
        k = np.maximum(1, np.floor(part / part.sum() * 2.0**43)).astype(np.int64)
        k[-1] += 2**43 - k.sum()
        units[parity::2] = k
    return units * 2.0**-44


def test_segment_moments_match_decimal_moments():
    # each moment against 50 digits, on both sides of y = 2a, at the
    # poles beta = 1, 2 and near them, and at the ends of the regime;
    # a = 0 gives the closed form or inf, and y = 0 gives 0
    rng = np.random.default_rng(5)
    worst = {True: 0.0, False: 0.0}
    for beta in (*rng.uniform(-1.0, 2.9, 40), -1.0, 0.0, 1.0, 2.0, 2.9, 1.0 + 1e-13, 2.0 - 1e-13):
        a = 10.0 ** rng.uniform(-12.0, 0.0, 12)
        y = a * 10.0 ** rng.uniform(-6.0, 6.0, 12)
        got = segment_moments(a, y, beta)
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            for i in range(a.size):
                t0, h = Decimal(float(a[i])), Decimal(float(y[i]))
                p0, p1, p2 = decimal_primitives([t0, t0 + h], beta)[0]
                exact = (p0, p1 - t0 * p0, p2 - 2 * t0 * p1 + t0 * t0 * p0)
                err = max(abs(float((Decimal(float(g[i])) - e) / e)) for g, e in zip(got, exact))
                worst[bool(y[i] <= 2.0 * a[i])] = max(worst[bool(y[i] <= 2.0 * a[i])], err)
    print(f"worst moment error: {worst[True]:.2e} for y <= 2a, {worst[False]:.2e} beyond")
    assert worst[True] <= 1e-15
    assert worst[False] <= 2e-15
    m = segment_moments([0.0, 0.0, 0.5], [0.25, 0.0, 0.0], 1.5)
    assert m[0][0] == np.inf and m[1][0] == pytest.approx(0.25**0.5 / 0.5, rel=1e-15)
    assert m[2][0] == pytest.approx(0.25**1.5 / 1.5, rel=1e-15)
    assert all(k[1] == 0.0 and k[2] == 0.0 for k in m)


def test_segment_kernel_matches_decimal_oracle():
    # the sharp total, through evaluate_sharp and through the gap kernel,
    # on random layouts up to 2048 jumps over the regime, and the last
    # mass-matrix entries of the diffuse period-law mesh; with every
    # segment written about t = 0 the totals were 1e-11 off at 1882 jumps
    # and these entries 6.4e-8
    rng = np.random.default_rng(21)
    worst_eval = worst_kernel = 0.0
    for i, n in enumerate((1, 2, 7, 30, 100, 350, 1000, 2048, 2048)):
        w = WeightParams(rng.uniform(0.0, 2.0), 1.0 if i % 3 == 0 else rng.uniform(-1.0, 2.9))
        eps = 10.0 ** rng.uniform(-8.0, -2.0)
        y = dyadic_layout(rng, n)
        bp = np.concatenate(([0.0], np.cumsum(y)))
        exact = decimal_sharp_total(bp, eps, w)
        total = evaluate_sharp(SawtoothProfile(tuple(bp[1:-1])), eps, w).total
        kernel = _gap_kernel(y[None], np.ones((1, n + 1), dtype=bool), eps, w)[0][0]
        worst_eval = max(worst_eval, abs(float((Decimal(total) - exact) / exact)))
        worst_kernel = max(worst_kernel, abs(float((Decimal(kernel) - exact) / exact)))

    mesh, w = GradedMesh(8192, 2.0), WeightParams(0.5, 1.0)
    ops = _operators(mesh, w.alpha, w.beta)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        # the last 8 elements and the 8 interior nodes they touch
        ts = [Decimal(float(t)) for t in mesh.nodes[-10:]]
        entries = []
        for t0, t1, (p0, p1, p2) in zip(ts, ts[1:], decimal_primitives(ts, w.beta)):
            h2 = (t1 - t0) ** 2
            q_aa = (t1 * t1 * p0 - 2 * t1 * p1 + p2) / h2
            q_ab = (-t0 * t1 * p0 + (t0 + t1) * p1 - p2) / h2
            q_bb = (t0 * t0 * p0 - 2 * t0 * p1 + p2) / h2
            entries.append((q_aa, q_ab, q_bb))
        diag = [entries[j][2] + entries[j + 1][0] for j in range(8)]
        off = [entries[j][1] for j in range(1, 8)]
    got = np.concatenate((ops.mass_diag[-8:], ops.mass_off[-7:]))
    worst_mass = max(
        abs(float((Decimal(g) - e) / e)) for g, e in zip(got.tolist(), diag + off)
    )
    print(
        f"worst relative error against 50-digit decimal: evaluate_sharp {worst_eval:.2e}, "
        f"gap kernel {worst_kernel:.2e}, mass entries {worst_mass:.2e}"
    )
    assert worst_eval <= 1e-14
    assert worst_kernel <= 1e-14
    assert worst_mass <= 1e-14
