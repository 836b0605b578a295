"""Tests for the compensated power-sum kernel: its tail bound against mpmath,
and the work it does at fixed points.

The work counts are a gate on the summation cost that does not depend on
the machine: terms_or_nodes at each point may not rise above the recorded
value.
"""

import cmath

import mpmath as mp
import pytest
from hypothesis import assume, given, settings, strategies as st

from lerchphi.engine import phi, phi_integer_a, phi_inverse, phi_series
from lerchphi.special_functions import _polylog_sum, _power_sum, hurwitz_zeta


def true_remainder(x, c, sign, n, j):
    """|sum_{k>=j} x^k / (c + sign k)^n| at 30 digits; for sign = -1 the
    terms are (-1)^n x^k / (k - c)^n."""
    with mp.workdps(30):
        xx = mp.mpc(x)
        shift = mp.mpc(c) + j if sign > 0 else j - mp.mpc(c)
        return float(abs(xx**j * mp.lerchphi(xx, n, shift)))


# the three caller shapes: (sign, first index, first check) as functions of c
SHAPES = {
    "series": lambda c: (1, 0, int(2 * abs(c)) + 4),
    "inverse": lambda c: (-1, 1, int(abs(c)) + 3),
    "polylog": lambda c: (1, 1, 2),
}

finite = dict(allow_nan=False, allow_infinity=False)


@given(
    shape=st.sampled_from(sorted(SHAPES)),
    n=st.integers(min_value=1, max_value=6),
    rho=st.one_of(st.floats(0.05, 0.95, **finite),
                  st.floats(0.999, 0.9995, **finite)),
    theta=st.floats(-3.1, 3.1, **finite),
    c_re=st.floats(-2.0, 3.0, **finite),
    c_im=st.floats(-1.0, 1.0, **finite),
    tol=st.sampled_from([1e-6, 1e-10, 1e-13]),
)
@settings(max_examples=40, deadline=None)
def test_bound_majorizes_true_remainder(shape, n, rho, theta, c_re, c_im, tol):
    c = 0j if shape == "polylog" else complex(c_re, c_im)
    # the terms must stay finite: c + sign*k off zero
    assume(shape == "polylog" or abs(c - round(c.real)) > 1e-3)
    sign, first, check = SHAPES[shape](c)
    x = rho * cmath.exp(1j * theta)
    t_rel = 0.0 if shape == "inverse" else tol
    _, bound, j = _power_sum(x, c, sign, n, first, check, 300_000, tol, t_rel)
    assert j < 300_000
    assert true_remainder(x, c, sign, n, j) <= bound * (1 + 1e-9)


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
    # (a + k) ** -100 would be NaN there
    with mp.workdps(30):
        want = complex(mp.fsum(mp.mpf(0.5) ** m / (mp.mpc(a) + m) ** 100
                               for m in range(400)))
    res = phi(0.5, 100, a)
    assert res.method == "series"
    # Phi(0.5, 100, 2000) ~ 1.5e-330 lies below the smallest double
    assert abs(res.value - want) <= 1e-14 * abs(want) + 1e-323
