"""Tests for the power-sum kernel: its tail bound against mpmath, its stop
rule and exactly rounded sum against a brute-force loop, and the work it
does at fixed points.

The work counts are a gate on the summation cost that does not depend on
the machine: terms_or_nodes at each point may not rise above the recorded
value.
"""

import cmath
import math
import random

import mpmath as mp
import pytest
from hypothesis import assume, given, settings, strategies as st

from lerchphi.engine import phi, phi_integer_a, phi_inverse, phi_series
from lerchphi.errors import ToleranceNotMet
from lerchphi.special_functions import _polylog_sum, _power_sum, hurwitz_zeta
from oracles import lerch_reference


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
    """The kernel's stop rule with its estimate evaluated at every index:
    the first j >= k where the bound meets max(t_abs, t_rel |S_j|) and
    either the bound plus the rounding term (n + 3) 2^-53 sum |t| does or
    the bound is at most the rounding term, with exactly rounded sums; or
    cap."""
    gamma = (n + 3) * 2.0**-53
    terms = terms_of(x, c, sign, n, k, cap)
    for j in range(k, cap):
        kept = terms[:j - k]
        size = abs(complex(math.fsum(t.real for t in kept),
                           math.fsum(t.imag for t in kept)))
        bound = tail_bound(x, c, sign, n, j)
        rounding = gamma * math.fsum(abs(t) for t in kept)
        goal = max(t_abs, t_rel * size)
        if bound <= goal and (bound + rounding <= goal or bound <= rounding):
            return j
    return cap


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
def test_stop_rule_and_exact_sum(shape, n, rho, theta, c_re, c_im, tol,
                                 count):
    """The kernel stops where a bound check at every index would, and its
    value is the math.fsum of the terms it kept; a fixed-count call (no
    target) sums exactly count terms."""
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
    value, _, j = _power_sum(x, c, sign, n, k, cap, t_abs, t_rel)
    if shape == "fixed":
        assert j == cap
    else:
        assert j == first_stop(x, c, sign, n, k, cap, t_abs, t_rel)
    terms = terms_of(x, c, sign, n, k, j)
    assert value == complex(math.fsum(t.real for t in terms),
                            math.fsum(t.imag for t in terms))


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
