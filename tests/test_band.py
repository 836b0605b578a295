"""The circle band and the integral route's pole clearance.

The integral route moves a to Re a >= 1 with head terms and refuses z whose
pole log z lies within 0.1 of its path [0, oo).  The reference is
oracles.shifted_integral, the same shifted representation at 20 digits.
"""

import cmath
import math
import random

import pytest

from lerchphi.engine import ROUTES, Region, classify, phi, phi_integral
from lerchphi.errors import DomainError, ToleranceNotMet
from oracles import shifted_integral


def band_points(seed, count):
    """(z, n, a) with ||z| - 1| log-uniform in [1e-12, 1e-6], alternately
    inside and outside the circle, every fifth point on it; |arg z| in
    [0.1, 3.1], n = 1..8, Re a in [-3, 3], |Im a| <= 2."""
    rng = random.Random(seed)
    points = []
    for i in range(count):
        delta = 0.0 if i % 5 == 4 else 10.0 ** rng.uniform(-12.0, -6.0)
        r = 1.0 - delta if i % 2 == 0 else 1.0 + delta
        theta = rng.uniform(0.1, 3.1) * rng.choice((-1, 1))
        a = complex(rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0))
        points.append((r * cmath.exp(1j * theta), rng.randint(1, 8), a))
    return points


def test_phi_certifies_the_band():
    # no point of the band is returned uncertified, and every estimate
    # bounds the error
    tol = 1e-10
    points = band_points(0, 40)
    assert {classify(z) for z, _, _ in points} == {Region.BAND}
    assert min(a.real for _, _, a in points) <= -2.0
    # Phi(-1, 1, 1/2) = pi/2, where the inverse route's tail bound is infinite
    for z, n, a in points + [(-1.0 + 0j, 1, 0.5 + 0j)]:
        res = phi(z, n, a, tol)
        assert res.method in ROUTES, (z, n, a)
        assert res.err_estimate <= tol * max(1.0, abs(res.value)), (z, n, a)
        ref = shifted_integral(z, n, a, dps=20)
        assert abs(res.value - ref) <= res.err_estimate, (z, n, a)


@pytest.mark.parametrize("z", [
    1 - 1e-7,  # the contraction stop certifies 5.9e-13; the error is 1.5e-10
    1 + 1e-8j,
    0.95,                            # |log z| = 0.051
    cmath.exp(complex(-0.06, 0.07)),  # inside, |log z| = 0.092
    cmath.exp(complex(0.5, 0.099)),   # outside, next to the cut
    cmath.exp(-0.05j),
])
def test_integral_refuses_next_to_its_pole(z):
    with pytest.raises(DomainError, match="pole log z"):
        phi_integral(z, 1, 1.3 + 0.2j)


def clearance_points(seed, count):
    """(z, n, a, tol) just outside the clearance: log z at distance 0.1 to
    0.3 from [0, oo), alternately next to the cut (Re log z in [0, 2]) and
    next to z = 1 inside the circle; n = 1..12, Re a in [-3, 3], |Im a| <= 2,
    tol log-uniform in [1e-13, 1e-7]."""
    rng = random.Random(seed)
    points = []
    for i in range(count):
        d = rng.uniform(0.1, 0.3)
        if i % 2:
            log_z = complex(rng.uniform(0.0, 2.0), d * rng.choice((-1, 1)))
        else:
            log_z = d * cmath.exp(1j * rng.uniform(0.5, 1.5) * math.pi)
        a = complex(rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0))
        points.append((cmath.exp(log_z), rng.randint(1, 12), a,
                       10.0 ** rng.uniform(-13.0, -7.0)))
    return points


def test_integral_estimate_holds_outside_the_clearance():
    # certified or stalled, the estimate bounds the error
    for z, n, a, tol in clearance_points(1, 24):
        try:
            res = phi_integral(z, n, a, tol)
        except ToleranceNotMet as exc:
            res = exc.result
        ref = shifted_integral(z, n, a, dps=20)
        assert abs(res.value - ref) <= res.err_estimate, (z, n, a, tol)


def test_oscillating_negative_axis_point_certifies():
    # |Im a| = 4.7 makes the level-0 sum 3e5 where (n-1)! Phi is 1.7e-3;
    # unshifted, the integral's estimate is 370 times tol
    z, n, a, tol = (-4.625424338923637, 5,
                    0.14024044994898294 - 4.745541390065392j, 1e-13)
    res = phi(z, n, a, tol)
    assert res.method == "integral"
    assert res.err_estimate <= tol * max(1.0, abs(res.value))
    assert abs(res.value - shifted_integral(z, n, a)) <= res.err_estimate


def test_integral_head_beyond_the_double_range_is_a_stall():
    # 300 head terms at |z| = 16: |z|^300 overflows, and the route stalls
    # with a non-finite value instead of leaking OverflowError
    with pytest.raises(ToleranceNotMet) as info:
        phi_integral(-16.0, 2, -299.6)
    assert info.value.result.err_estimate == math.inf
