"""Tests for the power-sum kernel: its tail bound against mpmath, its stop
rule and exactly rounded sum against a brute-force loop, and the work it
does at fixed points.

The work counts are a gate on the summation cost that does not depend on
the machine: terms_or_nodes at each point may not rise above the recorded
value.
"""

import cmath
import itertools
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lerchphi.engine import phi, phi_integer_a, phi_inverse, phi_series
from lerchphi.errors import DomainError, LerchError, ToleranceNotMet
from lerchphi.special_functions import (
    _hurwitz_zeta_sum,
    _polylog_sum,
    _power_sum,
    hurwitz_zeta,
    polygamma,
)
from oracles import lerch_reference, shifted_integral


def true_remainder(x, c, sign, n, j):
    """|sum_{k>=j} x^k / (c + sign k)^n| at 30 digits; for sign = -1 the
    terms are (-1)^n x^k / (k - c)^n."""
    with mp.workdps(30):
        xx = mp.mpc(x)
        shift = mp.mpc(c) + j if sign > 0 else j - mp.mpc(c)
        return float(abs(xx**j * mp.lerchphi(xx, n, shift)))


# the three caller shapes: (sign, first index)
SHAPES = {
    "series": (1, 0),
    "inverse": (-1, 1),
    "polylog": (1, 1),
}

finite = dict(allow_nan=False, allow_infinity=False)


@given(
    shape=st.sampled_from(sorted(SHAPES)),
    n=st.integers(min_value=1, max_value=6),
    rho=st.one_of(st.floats(0.05, 0.95, **finite),
                  st.floats(0.999, 0.9995, **finite)),
    theta=st.floats(-3.1, 3.1, **finite),
    c_abs=st.one_of(st.floats(0.0, 3.0, **finite),
                    st.floats(3.0, 1e3, **finite)),
    c_arg=st.floats(-3.14, 3.14, **finite),
    tol=st.sampled_from([1e-6, 1e-10, 1e-13]),
)
@settings(max_examples=40, deadline=None)
def test_bound_majorizes_true_remainder(shape, n, rho, theta, c_abs, c_arg,
                                        tol):
    c = 0j if shape == "polylog" else c_abs * cmath.exp(1j * c_arg)
    # the terms must stay finite: c + sign*k off zero
    assume(shape == "polylog" or abs(c - round(c.real)) > 1e-3)
    sign, first = SHAPES[shape]
    x = rho * cmath.exp(1j * theta)
    t_rel = 0.0 if shape == "inverse" else tol
    _, bound, j = _power_sum(x, c, sign, n, first, 300_000, tol, t_rel)
    assert j < 300_000
    assert true_remainder(x, c, sign, n, j) <= bound * (1 + 1e-9)


def terms_of(x, c, sign, n, k, stop):
    """[x^i / (c + sign i)^n for i = k..stop-1], each power the one before
    times x."""
    terms, power = [], x ** k
    for i in range(k, stop):
        terms.append(power / (c + sign * i) ** n)
        power *= x
    return terms


def tail_bound(x, c, sign, n, j):
    """The kernel's closed-form bound on sum_{i>=j} |x^i / (c + sign i)^n|:
    rho^j min(1 / ((1 - rho) D^n), (u - 1)^(1-n) / (n - 1)), rho = |x|,
    u = j + sign Re c, D = min_{i>=j} |c + sign i|, each part where it
    holds, the second only where (n - 1) / (1 - rho) >= 32 and
    D < (n - 1) / (1 - rho); inf where neither does."""
    rho, u = abs(x), j + sign * c.real
    # log rho^j, with 0^0 = 1
    log_rho_j = (j * math.log(min(rho, 1.0)) if rho
                 else 0.0 if j == 0 else -math.inf)
    parts = []
    if rho < 1.0:
        nearest = u if u >= 0.0 else u - round(u)
        parts.append(log_rho_j - math.log1p(-rho)
                     - n * math.log(math.hypot(nearest, c.imag)))
    second_from = (n - 1) / (1.0 - rho) if rho < 1.0 else math.inf
    if (n >= 2 and u > 1.0 and second_from >= 32.0
            and (rho >= 1.0 or math.hypot(u, c.imag) < second_from)):
        parts.append(log_rho_j - math.log(n - 1) - (n - 1) * math.log(u - 1.0))
    log_b = min(parts, default=math.inf)
    return math.exp(log_b) if log_b < 709.0 else math.inf


def first_stop(x, c, sign, n, k, cap, t_abs, t_rel):
    """The kernel's stop rule with its estimate evaluated at every index
    from k to cap: the first j where the bound meets max(t_abs, t_rel |S_j|)
    and either the bound plus the rounding term (n + 3) 2^-53 sum |t| does
    or the bound is at most the rounding term, with exactly rounded sums
    (exact running sums, rounded once, as math.fsum is); None where no
    index does."""
    gamma = (n + 3) * 2.0**-53
    re = im = size = Fraction(0)
    terms = terms_of(x, c, sign, n, k, cap)
    for j in range(k, cap + 1):
        bound = tail_bound(x, c, sign, n, j)
        rounding = gamma * float(size)
        goal = max(t_abs, t_rel * abs(complex(float(re), float(im))))
        if bound <= goal and (bound + rounding <= goal or bound <= rounding):
            return j
        if j < cap:
            t = terms[j - k]
            re, im = re + Fraction(t.real), im + Fraction(t.imag)
            size += Fraction(abs(t))
    return None


def plane_shapes(test):
    """An @example for each caller shape at the orders, |x| and Re c of
    everyday calls, where a sum is a few to a few hundred terms and the
    kernel is tuned to make one prediction and one passing check; and one
    with |c| < 1, where the bound at the first index is far above the
    sum."""
    for shape, n, rho, c_re in itertools.product(
            sorted(SHAPES), range(1, 7), (0.3, 0.5, 0.9, 0.95),
            (-2.5, 0.3, 2.9)):
        test = example(shape=shape, n=n, rho=rho, theta=0.7, c_re=c_re,
                       c_im=0.1, tol=1e-10, count=1)(test)
    return example(shape="series", n=6, rho=0.5, theta=0.7, c_re=0.3,
                   c_im=0.1, tol=1e-10, count=1)(test)


def circle_shapes(test):
    """An @example for the shapes whose sums can stall before the cap: on
    the circle (|x| = 1 exactly at theta = 0.7) and next to it, n = 1 on
    it, and a Re c so far below 0 on it that the bound's second part
    starts late (|Re c| = 2000) or past the cap (5000); at n = 4 the same
    sums meet tol within the cap."""
    for shape, n, rho in itertools.product(
            sorted(SHAPES), (1, 2, 4), (1.0, 1.0 - 1e-6)):
        test = example(shape=shape, n=n, rho=rho, theta=0.7, c_re=0.3,
                       c_im=0.1, tol=1e-10, count=1)(test)
    for (shape, sign), n, far in itertools.product(
            (("series", -1), ("inverse", 1)), (2, 4), (2000.3, 5000.3)):
        test = example(shape=shape, n=n, rho=1.0, theta=0.7, c_re=sign * far,
                       c_im=0.1, tol=1e-10, count=1)(test)
    return test


@given(
    shape=st.sampled_from(sorted(SHAPES) + ["fixed"]),
    n=st.integers(min_value=1, max_value=8),
    rho=st.floats(0.0, 0.95, **finite),
    theta=st.floats(-3.1, 3.1, **finite),
    c_re=st.floats(-30.0, 30.0, **finite),
    c_im=st.floats(-3.0, 3.0, **finite),
    tol=st.sampled_from([1e-3, 1e-8, 1e-10, 1e-13]),
    count=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=60, deadline=None)
@plane_shapes
@circle_shapes
def test_stop_rule_and_exact_sum(shape, n, rho, theta, c_re, c_im, tol,
                                 count):
    """The kernel stops where a bound check at every index would, with the
    estimate there, and its value is the math.fsum of the terms it kept; it
    stalls before the cap only where no index up to the cap passes that
    check; a fixed-count call (no target) sums exactly count terms."""
    c = 0j if shape == "polylog" else complex(c_re, c_im)
    x = rho * cmath.exp(1j * theta)
    if shape == "fixed":
        sign, k, cap, t_abs, t_rel = 1, 0, count, 0.0, 0.0
    else:
        sign, k = SHAPES[shape]
        cap = 3000
        t_abs, t_rel = (0.5 * tol, 0.0) if shape == "inverse" else (tol, tol)
    # the terms must stay finite: c + sign*i off zero
    assume(shape == "polylog" or abs(c - round(c.real)) > 1e-3)
    value, estimate, j = _power_sum(x, c, sign, n, k, cap, t_abs, t_rel)
    terms = terms_of(x, c, sign, n, k, j)
    assert value == complex(math.fsum(t.real for t in terms),
                            math.fsum(t.imag for t in terms))
    if shape == "fixed":
        assert j == cap
        return
    want = first_stop(x, c, sign, n, k, cap, t_abs, t_rel)
    if want is None:  # a stall, at the cap or before it
        assert k <= j <= cap
        return
    assert j == want
    rounding = (n + 3) * 2.0**-53 * math.fsum(abs(t) for t in terms)
    assert estimate == pytest.approx(
        tail_bound(x, c, sign, n, j) + rounding, rel=1e-9, abs=1e-300)


def disc_points(count):
    """count points of random.Random(7): |z| in [0.1, 0.95], n 8..32,
    Re a in [-3, 5], |Im a| <= 1."""
    rng = random.Random(7)
    points = []
    for _ in range(count):
        z = rng.uniform(0.1, 0.95) * cmath.exp(1j * rng.uniform(-math.pi,
                                                                math.pi))
        n = rng.randint(8, 32)
        points.append((z, n, complex(rng.uniform(-3.0, 5.0),
                                     rng.uniform(-1.0, 1.0))))
    return points


def test_series_estimate_counts_the_rounding():
    # large n makes |Phi| large next to a = 0, -1, ...: without the kernel's
    # rounding term 87 of these 200 estimates were below the error, by up to
    # 6e37 times
    for z, n, a in disc_points(200):
        try:
            res = phi_series(z, n, a, 1e-10)
        except ToleranceNotMet as exc:
            res = exc.result
        ref = lerch_reference(z, n, a, dps=20)
        assert abs(res.value - ref) <= res.err_estimate, (z, n, a)


def test_series_next_to_the_circle():
    # |z| = 1 - 1e-8: a Newton start for the bound's second part below the
    # first index where it holds took the log of a number <= 0
    z = -0.4161468364805589 + 0.9092974266801941j
    try:
        res = phi_series(z, 3, 0.4, 1e-10)
    except ToleranceNotMet as exc:
        res = exc.result
    assert abs(res.value - lerch_reference(z, 3, 0.4)) <= res.err_estimate


@pytest.mark.parametrize("z, n, a, ceiling", [
    # the bound held only from i = 2|a| + 4 on, which cost 504, 2,004 and
    # 2,000,004 terms
    (0.9 * cmath.exp(0.7j), 3, 250 + 3j, 76),
    (0.5j, 2, 1000.0, 15),
    # |Phi| = 8.9e-13: the bound at 0, 2e-12, meets tol before any term
    (0.5j, 2, 1e6, 0),
], ids=["a250", "a1e3", "a1e6"])
def test_large_shift_work(z, n, a, ceiling):
    res = phi_series(z, n, a, 1e-10)
    assert res.terms_or_nodes <= ceiling
    with mp.workdps(30):
        want = complex(mp.lerchphi(z, n, a))
    assert abs(res.value - want) <= res.err_estimate <= 1e-10


@pytest.mark.parametrize("b, ceiling", [
    # next to a large integer N the expansion summed m = 1 .. N - 1 as a
    # fixed count: 999,999 terms at 1e6, past 4 s at 1e7, never done at 1e300
    (1e6 + 0.01j, 14), (1e7 + 0.01j, 14), (1e300, 14), (1e6 + 0.2j, 15),
], ids=["1e6", "1e7", "1e300", "1e6-ring"])
def test_folded_head_work(b, ceiling):
    res = phi(5j, 2, b, 1e-10)
    assert res.method == "inverse"
    assert res.terms_or_nodes <= ceiling
    assert res.err_estimate <= 1e-10


def test_folded_head_against_the_integral():
    res = phi(5j, 2, 1e6 + 0.01j, 1e-10)
    assert abs(res.value - shifted_integral(5j, 2, 1e6 + 0.01j)) <= (
        res.err_estimate)


def test_folded_head_at_a_huge_shift_and_order_returns():
    # its fixed head never returned; (1e300 + 1.2e-4 i + i)^5 is NaN, not an
    # OverflowError, so the head's terms are NaN and phi raises
    try:
        phi(6.719318283897684 + 0.007265274541275136j, 5,
            1e300 + 0.00012201326340746419j, 1e-10)
    except LerchError:
        pass


A = 0.3 + 0.1j


def z(r):
    return r * cmath.exp(0.7j)


@pytest.mark.parametrize("call, ceiling", [
    (lambda: phi_series(z(0.3), 2, A), 14),
    (lambda: phi_series(z(0.99), 2, A), 1123),
    (lambda: phi_series(z(0.999), 2, A), 9338),
    (lambda: phi_inverse(z(10.0), 2, A), 8),
    (lambda: phi_integer_a(z(10.0), 2, 1), 8),
], ids=["series_r0.3", "series_r0.99", "series_r0.999", "inverse_r10",
        "integer_a_r10"])
def test_probe_work(call, ceiling):
    assert call().terms_or_nodes <= ceiling


# (n, r) -> terms of the series at |z| = r, the inverse expansion at
# |w| = 1/r and Li_n at |x| = r, tol = 1e-10
GRID_WORK = {
    (1, 0.5): (28, 30, 1), (1, 0.9): (180, 196, 1), (1, 0.99): (1881, 2059, 1),
    (3, 0.5): (18, 21, 21), (3, 0.9): (83, 112, 107), (3, 0.99): (533, 816, 761),
    (6, 0.5): (8, 13, 12), (6, 0.9): (15, 38, 35), (6, 0.99): (19, 73, 64),
}


@pytest.mark.parametrize("n, r", sorted(GRID_WORK))
def test_grid_work(n, r):
    series, inverse, polylog = GRID_WORK[(n, r)]
    assert phi_series(z(r), n, A).terms_or_nodes <= series
    assert phi_inverse(z(1 / r), n, A).terms_or_nodes <= inverse
    assert _polylog_sum(n, z(r), 1e-10)[2] <= polylog


def test_hurwitz_zeta_large_order():
    # (0.5 + k)^300 leaves the double range from k = 20 on
    with mp.workdps(30):
        want = complex(mp.zeta(300, 0.5))
    assert abs(hurwitz_zeta(300, 0.5) - want) <= 1e-14 * abs(want)


def test_hurwitz_zeta_estimate_counts_the_rounding():
    # with Re a down to -120 the explicit terms, up to 141 of them, pass the
    # poles and their sum cancels: a rounding term relative to the sum
    # (1e-15 |sum|) missed 5 of these 40 points by up to 23x.  The
    # reference steps past the poles with a 60-digit sum, as mpmath.zeta
    # alone is off at some of these points.
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(2, 12)
        a = complex(rng.uniform(-120.0, 5.0), rng.uniform(-15.0, 15.0))
        k = max(0, math.ceil(1.0 - a.real))
        with mp.workdps(60):
            c = mp.mpc(a)
            want = complex(mp.fsum((c + m) ** -n for m in range(k))
                           + mp.zeta(n, c + k))
        value, err, _ = _hurwitz_zeta_sum(n, a)
        assert abs(value - want) <= err, (n, a)


def test_li1_estimate_counts_the_rounding_of_one_minus_x():
    # 1 - x rounds by up to 2^-53, which at small |x| is far above the
    # closed form's own rounding, 4e-16 |log(1 - x)|
    rng = random.Random(1)
    for _ in range(200):
        x = cmath.rect(10.0 ** rng.uniform(-20.0, -1.0),
                       rng.uniform(-math.pi, math.pi))
        with mp.workdps(40):
            want = complex(-mp.log(1 - mp.mpc(x)))
        value, err, terms = _polylog_sum(1, x, 1e-10)
        assert terms == 1
        assert abs(value - want) <= err, x


@pytest.mark.parametrize("a", [2000.0, 1203.0, 1000.5, 1000.5 + 3j])
def test_series_terms_beyond_double_range(a):
    # |a + k|^100 overflows for |a + k| > 1202.3; for complex a,
    # (a + k) ** -100 would be NaN there.  The kernel forms those terms from
    # their reciprocals: over the reference's 400 terms it matches to 1e-14.
    with mp.workdps(30):
        want = complex(mp.fsum(mp.mpf(0.5) ** m / (mp.mpc(a) + m) ** 100
                               for m in range(400)))
    value, _, _ = _power_sum(0.5, complex(a), 1, 100, 0, 400, 0.0, 0.0)
    # Phi(0.5, 100, 2000) ~ 1.5e-330 lies below the smallest double
    assert abs(value - want) <= 1e-14 * abs(want) + 1e-323
    # Phi(0.5, 100, a) < 1e-299 is below tol = 1e-10: the series certifies
    # it with the terms its estimate needs, and the error is within it
    res = phi(0.5, 100, a)
    assert res.method == "series"
    assert abs(res.value - want) <= res.err_estimate


@pytest.mark.parametrize("n, c", [
    (5, 1e300 + 0.00012j),
    (2, 2.002420589845403e+154 + 2.2537357393155592e+154j),
    (4, -2.0470699268575803e+76 + 2.4245956639514945e+77j),
    (8, 9.180468832275063e+38 - 5.712512661657757e+38j),
])
@pytest.mark.parametrize("shape", ["series", "inverse"])
def test_terms_whose_squares_overflow(shape, n, c):
    # for n <= 100, ** forms (c + k)^n by squaring and returns NaN, not
    # OverflowError, where a square overflows in one part first; those terms
    # are formed from their reciprocals
    sign, k = SHAPES[shape]
    with mp.workdps(30):
        want = complex(mp.fsum(mp.mpf(0.5) ** m / (mp.mpc(c) + sign * m) ** n
                               for m in range(k, 40)))
    value, rounding, _ = _power_sum(0.5, c, sign, n, k, 40, 0.0, 0.0)
    assert abs(value - want) <= 1e-14 * abs(want) + 1e-323
    assert rounding < 1e-300


def test_sum_whose_bound_cannot_start_by_the_cap_stalls_at_once():
    # on the circle the bound holds only from u = j + Re c > 1 on, here
    # from j = 1e200: the sum stalls at its first check, where it summed
    # to the cap
    value, estimate, j = _power_sum(1j, -1e200 + 1e200j, 1, 2, 0, 2000,
                                    1e-10, 1e-10)
    assert j <= 1
    assert estimate == math.inf


def test_series_next_to_the_circle_stalls_at_once():
    # |z| = 1 - 2e-6: the bound meets tol only after about 1e10 terms, so
    # the series stalls at its first check, where it summed 300,000 terms
    # (0.2 s) before the integral certified the point
    z = 0.999998 * cmath.exp(0.7j)
    with pytest.raises(ToleranceNotMet) as info:
        phi_series(z, 2, 0.3 + 0.1j)
    assert info.value.result.terms_or_nodes <= 2
    assert phi(z, 2, 0.3 + 0.1j).method == "integral"


@pytest.mark.parametrize("call", [
    lambda: phi(1.0, 2, 4e5),
    lambda: hurwitz_zeta(2, 4e5),
    lambda: polygamma(1, 4e5),
], ids=["phi", "hurwitz_zeta", "polygamma"])
def test_hurwitz_head_beyond_the_ceiling_is_refused(call):
    # the explicit sum has ceil|a| + 20 terms, 400,020 here, past the
    # ceiling; at a = 5e7 its list of terms alone needs about 2 GB
    with pytest.raises(DomainError, match="hurwitz_zeta sums"):
        call()
