"""Tests for Bernoulli machinery, cot Taylor coefficients, polylog, zeta,
polygamma."""

import math
from fractions import Fraction
from math import comb

import mpmath
import pytest
import scipy.special
from hypothesis import example, given, settings, strategies as st

from lerchphi.engine import symmetry_transform
from lerchphi.errors import (
    DivergentAtOne,
    DomainError,
    PoleAtInteger,
    PoleAtNonPositiveInteger,
)
from lerchphi.special_functions import (
    _BERNOULLI_2K,
    _cot_pi_laurent,
    bernoulli,
    cot_pi_taylor,
    hurwitz_zeta,
    polygamma,
    polylog,
    tan_series_coeff,
)


def half_integer_power_sum(p: int, terms: int = 60) -> float:
    """Independent oracle for sum_{m>=0} 2/(m+1/2)^p: direct partial sum plus
    an Euler-Maclaurin tail with hard-coded B2, B4 corrections."""
    s = math.fsum(2.0 / (m + 0.5) ** p for m in range(terms))
    u = terms + 0.5
    s += 2.0 * u ** (1 - p) / (p - 1)          # integral
    s += u ** (-p)                              # half term
    s += p / 6.0 * u ** (-p - 1)                # B2/2! correction
    s -= p * (p + 1) * (p + 2) / 360.0 * u ** (-p - 3)  # B4/4! correction
    return s


class TestBernoulli:
    def test_first_values(self):
        expected = {
            0: Fraction(1),
            1: Fraction(-1, 2),
            2: Fraction(1, 6),
            3: Fraction(0),
            4: Fraction(-1, 30),
            6: Fraction(1, 42),
            8: Fraction(-1, 30),
            10: Fraction(5, 66),
            12: Fraction(-691, 2730),
        }
        for k, v in expected.items():
            assert bernoulli(k) == v

    def test_defining_recurrence_exact(self):
        # sum_{i=0}^{k} C(k+1, i) B_i = 0 for k >= 1, exactly
        for k in range(1, 31):
            total = sum(comb(k + 1, i) * bernoulli(i) for i in range(k + 1))
            assert total == 0

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(-1)

    def test_float_table_is_the_rounded_exact_values(self):
        # the Euler-Maclaurin tail of zeta(n, a) reads B_2 .. B_10 as floats
        assert _BERNOULLI_2K == tuple(
            float(bernoulli(2 * k)) for k in range(1, 6))

    def test_half_integer_power_sum_identity(self):
        # (2 pi)^2 (2^2 - 1)/2! |B_2| = pi^2 equals the direct summation
        lhs = (2 * math.pi) ** 2 * 3 / 2 * abs(bernoulli(2))
        assert abs(float(lhs) - math.pi**2) < 1e-14
        assert abs(float(lhs) - half_integer_power_sum(2)) < 1e-10
        # scipy witnesses the same sum
        assert abs(float(lhs) - 2 * scipy.special.zeta(2, 0.5)) < 1e-10


class TestTanSeries:
    def test_leading_coefficients(self):
        assert tan_series_coeff(1) == 1
        assert tan_series_coeff(2) == Fraction(1, 3)
        assert tan_series_coeff(3) == Fraction(2, 15)

    def test_partial_sums_converge_to_tan(self):
        alpha = 0.3
        total = 0.0
        for k in range(1, 9):
            total += float(tan_series_coeff(k)) * alpha ** (2 * k - 1)
        assert abs(total - math.tan(alpha)) < 1e-10

    def test_three_term_sum_near_origin(self):
        alpha = 0.1
        total = sum(
            float(tan_series_coeff(k)) * alpha ** (2 * k - 1) for k in (1, 2, 3)
        )
        assert abs(total - math.tan(alpha)) < 1e-7


class TestCotPiDerivative:
    # e_j of cot_pi_taylor is d^j cot(pi a) / j!
    def test_value_at_half(self):
        assert abs(cot_pi_taylor(0, 0.5)[0]) < 1e-15

    def test_first_derivative_at_half(self):
        assert abs(cot_pi_taylor(1, 0.5)[1] - (-math.pi)) < 1e-12

    def test_second_derivative_against_finite_differences(self):
        # oracle: central second differences of cot(pi a) with one Richardson
        # step; h = 1e-3 balances rounding (eps/h^2) against truncation.
        # The second difference is 2 e_2.
        a, h = 0.25, 1e-3

        def cot(t):
            return cot_pi_taylor(0, t)[0]

        def second(hh):
            return (cot(a + hh) - 2 * cot(a) + cot(a - hh)) / hh**2

        fd = (4 * second(h / 2) - second(h)) / 3
        assert abs(cot_pi_taylor(2, a)[2] - fd / 2) < 0.5e-8

    def test_pole_guard(self):
        with pytest.raises(PoleAtInteger):
            cot_pi_taylor(1, 1.0)
        with pytest.raises(PoleAtInteger):
            cot_pi_taylor(0, 3.0 + 1e-13j)

    def test_argument_reduction_large_real_part(self):
        assert abs(cot_pi_taylor(1, 100.25)[1] - cot_pi_taylor(1, 0.25)[1]) < 1e-9

    def test_large_imaginary_part_does_not_overflow(self):
        # sin(pi a) overflows double beyond |Im a| ~ 226
        assert cot_pi_taylor(0, 0.3 + 300j) == [-1j]
        assert cot_pi_taylor(0, 0.3 - 300j) == [1j]
        assert cot_pi_taylor(5, 0.3 + 300j)[1:] == [0j] * 5


def _cot_taylor_mp(jmax, a, dps=30):
    """e_j, j = 0..jmax, the Taylor coefficients of cot(pi (a + eps)), by
    mpmath; the precision grows with |Im a| because the coefficients fall
    like e^(-2 pi |Im a|)."""
    with mpmath.workdps(dps + int(3 * abs(a.imag))):
        return [complex(c) for c in mpmath.taylor(
            lambda t: mpmath.cot(mpmath.pi * t), mpmath.mpc(a), jmax)]


_COT_GRID = [complex(x, y)
             for y in (0.05, 0.1, 0.15, 0.199, 0.2, 0.25, 0.5, 0.93, 2.0, 5.0, 20.0)
             for x in (-0.77, 0.1, 0.3, 0.45, 0.5, 3.2)]
_COT_GRID += [0.3 + 225j, -0.77 + 300j]


def _max_rel_err(got, ref):
    return max(abs(g - r) / abs(r) if r else abs(g) for g, r in zip(got, ref))


def test_cot_derivatives_against_mpmath():
    # j <= 7, both half planes (the reference for Im a < 0 by conjugation:
    # cot is real on the real axis)
    for a in _COT_GRID:
        ref = _cot_taylor_mp(7, a)
        assert _max_rel_err(cot_pi_taylor(7, a), ref) <= 1e-13, a
        conj = [r.conjugate() for r in ref]
        assert _max_rel_err(cot_pi_taylor(7, a.conjugate()), conj) <= 1e-13, a


@pytest.mark.parametrize("a", [1e-3, 0.026 - 0.0024j, -0.97 + 0.0004j,
                               0.3 + 0.5j, 0.45 + 5j])
def test_cot_taylor_at_high_order(a):
    # the recurrence to j = 31, near an integer (where e_j grows like
    # 1/dist^(j+1)) and off the axis, against mpmath's Taylor coefficients
    ref = _cot_taylor_mp(31, complex(a), dps=40)
    assert _max_rel_err(cot_pi_taylor(31, a), ref) <= 1e-14


@pytest.mark.parametrize("a,shift", [
    (0.3 + 6j, 1j), (0.3 - 6j, -1j), (-2.7 + 100j, 1j),  # shift cancels cot
    (0.3 + 6j, -1j), (0.3 + 0.05j, 1j),  # it does not
])
def test_cot_taylor_shift_keeps_the_digits_of_a_cancellation(a, shift):
    # cot(pi a) is within e^(-2 pi |Im a|) of -i sgn(Im a): e_0 - shift
    # formed in floats keeps none of them
    with mpmath.workdps(40 + int(3 * abs(a.imag))):
        e0 = mpmath.cot(mpmath.pi * mpmath.mpc(a)) + mpmath.mpc(shift)
        ref = complex(e0)
    got = cot_pi_taylor(3, a, shift)
    assert abs(got[0] - ref) <= 1e-14 * abs(ref)
    assert got[1:] == cot_pi_taylor(3, a)[1:]


class TestCotPiLaurent:
    # c[j + 1] = c_j, the coefficient of eps^j in cot(pi eps)
    def test_pole_coefficient(self):
        assert _cot_pi_laurent(-1)[0] == 1 / math.pi

    def test_odd_coefficients(self):
        c = _cot_pi_laurent(3)
        assert abs(c[2] - (-math.pi / 3)) < 1e-15
        assert abs(c[4] - (-math.pi**3 / 45)) < 1e-14

    def test_even_coefficients_vanish_exactly(self):
        c = _cot_pi_laurent(10)
        assert all(c[d + 1] == 0 for d in range(0, 11, 2))

    @pytest.mark.parametrize("eps", [1e-3, 5e-3, 0.2])
    def test_pointwise_against_cot(self, eps):
        c = _cot_pi_laurent(40)
        series = sum(cj * eps ** (j - 1) for j, cj in enumerate(c))
        assert abs(series - 1 / math.tan(math.pi * eps)) < 1e-12 / eps


def _cot_poly_coeffs(j):
    """Integer coefficients of Q_j with d^j/da^j cot(pi a) = pi^j Q_j(c),
    c = cot(pi a): Q_0 = c and Q_(j+1) = -(1 + c^2) Q_j'."""
    q = [0, 1]
    for _ in range(j):
        dq = [k * q[k] for k in range(1, len(q))]
        q = [0] * (len(dq) + 2)
        for k, coef in enumerate(dq):
            q[k] -= coef
            q[k + 2] -= coef
    return q


@given(
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=6),
)
@example(a=1.5 + 0j, j=6)  # cot(pi a) rounds to -6e-17, not 0
@settings(max_examples=150, deadline=None)
def test_cot_derivative_antisymmetry(a, j):
    # d^j cot at 1-a equals (-1)^(j+1) times the value at a, to 1e-12
    # relative to the polynomial evaluation scale, plus the error that
    # rounding a and 1 - a leaves: d^(j+1) cot(pi a) times (1 + |a|) eps;
    # so does e_j = d^j cot / j!, with the bound over j!
    if min(abs(a - round(a.real)), abs(1 - a - round(1 - a.real))) < 1e-3:
        return
    lhs = cot_pi_taylor(j, 1 - a)[j]
    e = cot_pi_taylor(j + 1, a)
    rhs = (-1) ** (j + 1) * e[j]
    scale = math.pi**j * sum(
        abs(coef) * abs(e[0]) ** k
        for k, coef in enumerate(_cot_poly_coeffs(j))
    )
    rounding = math.factorial(j + 1) * abs(e[j + 1]) * (1 + abs(a)) * 2.0**-52
    bound = 1e-12 * max(1.0, scale) + 4 * rounding
    assert abs(lhs - rhs) <= bound / math.factorial(j)


class TestPolylog:
    def test_li1_is_log(self):
        assert abs(polylog(1, 0.5) - math.log(2)) < 1e-15

    def test_empty_sum(self):
        assert polylog(5, 0.0) == 0

    def test_li2_at_one(self):
        assert abs(polylog(2, 1.0) - math.pi**2 / 6) < 1e-10

    def test_derivative_identity(self):
        # x d/dx Li_n(x) = Li_{n-1}(x), via central differences
        for n, x in [(2, 0.4), (3, -0.5), (2, 0.3 + 0.2j)]:
            h = 1e-6
            d = (polylog(n, x + h) - polylog(n, x - h)) / (2 * h)
            assert abs(x * d - polylog(n - 1, x)) < 1e-7

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            polylog(2, 1.5)
        with pytest.raises(DivergentAtOne):
            polylog(1, 1.0)
        with pytest.raises(DomainError):
            polylog(0, 0.5)

    def test_against_scipy_spence(self):
        # scipy's spence gives Li_2(x) = spence(1 - x) on the real line
        for x in (0.2, -0.7, 0.9):
            assert abs(polylog(2, x, 1e-14) - scipy.special.spence(1 - x)) < 1e-12


class TestHurwitzZeta:
    def test_basel_value(self):
        assert abs(hurwitz_zeta(2, 1.0) - math.pi**2 / 6) < 1e-10

    def test_shift_identity_exact(self):
        for n, a in [(3, 1.0), (2, 0.7 + 0.3j), (5, 2.5)]:
            lhs = hurwitz_zeta(n, a)
            rhs = hurwitz_zeta(n, a + 1) + complex(a) ** (-n)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_quarter_reflection_sum(self):
        total = hurwitz_zeta(2, 0.25) + hurwitz_zeta(2, 0.75)
        assert abs(total - 2 * math.pi**2) < 1e-10

    def test_against_scipy(self):
        for n, a in [(2, 0.3), (3, 1.7), (4, 0.9), (6, 2.4)]:
            assert abs(hurwitz_zeta(n, a) - scipy.special.zeta(n, a)) < 1e-12

    def test_complex_shift_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        for n, a in [(2, 0.3 + 0.2j), (3, 1.5 - 0.8j), (5, 0.1 + 1j)]:
            ref = complex(mp.zeta(n, a))
            assert abs(hurwitz_zeta(n, a) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_pole_and_order_guards(self):
        with pytest.raises(PoleAtNonPositiveInteger):
            hurwitz_zeta(2, 0.0)
        with pytest.raises(PoleAtNonPositiveInteger):
            hurwitz_zeta(3, -2.0 + 1e-12j)
        with pytest.raises(DomainError):
            hurwitz_zeta(1, 0.5)


class TestPolygamma:
    def test_trigamma_at_one(self):
        assert abs(polygamma(1, 1.0) - math.pi**2 / 6) < 1e-10

    def test_trigamma_at_half(self):
        # oracle: zeta(2, 1/2) = 3 zeta(2) by splitting even/odd terms;
        # brute-force partial sum with integral tail as an independent check
        brute = math.fsum(1.0 / (0.5 + m) ** 2 for m in range(200_000))
        brute += 1.0 / 200_000.5  # integral tail of (x + 1/2)^-2
        assert abs(polygamma(1, 0.5) - math.pi**2 / 2) < 1e-10
        assert abs(polygamma(1, 0.5) - brute) < 1e-5

    def test_against_scipy(self):
        for m, a in [(1, 0.3), (2, 1.4), (3, 0.8)]:
            assert abs(polygamma(m, a) - scipy.special.polygamma(m, a)) < 1e-9

    def test_reflection_residual(self):
        # psi^(m)(a) - (-1)^m psi^(m)(1-a) + pi d^m cot(pi a) -> 0
        m, a = 1, 0.3
        res = abs(
            polygamma(m, a)
            - (-1) ** m * polygamma(m, 1 - a)
            + math.pi * math.factorial(m) * cot_pi_taylor(m, a)[m]
        )
        assert res < 1e-9

    def test_digamma_excluded(self):
        with pytest.raises(DomainError):
            polygamma(0, 0.5)

    @pytest.mark.parametrize("m", [170, 299])
    def test_beyond_the_double_range_refused(self, m):
        # 170! zeta(171, 1/2) ~ 2e358 and 299! zeta(300, 1/2) ~ 1e702
        with pytest.raises(DomainError, match="double range"):
            polygamma(m, 0.5)

    def test_in_range_where_the_factorial_is_not(self):
        # 200! ~ 8e374, but 200! zeta(201, 5/2) ~ -8e294
        ref = complex(mpmath.polygamma(200, 2.5))
        assert abs(polygamma(200, 2.5) - ref) <= 1e-14 * abs(ref)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call", [
    lambda: hurwitz_zeta(2, NAN),
    lambda: hurwitz_zeta(2, INF),
    lambda: hurwitz_zeta(2, complex(1.0, NAN)),
    lambda: hurwitz_zeta(2.0, 0.5),
    lambda: polygamma(1, NAN),
    lambda: polygamma(1.0, 0.5),
    lambda: cot_pi_taylor(2, NAN),
    lambda: cot_pi_taylor(2, INF),
    lambda: cot_pi_taylor(2, complex(0.3, NAN)),
    lambda: cot_pi_taylor(2.0, 0.3),
    lambda: symmetry_transform(0.5j, 2, NAN),
    lambda: symmetry_transform(NAN, 2, 0.5),
    lambda: symmetry_transform(complex(0.5, NAN), 2, 0.5),
    lambda: polylog(2, NAN),
    lambda: polylog(1.5, 0.5),
    lambda: polylog(True, 0.5),
    lambda: bernoulli(2.0),
    lambda: tan_series_coeff(1.5),
], ids=["zeta-nan-a", "zeta-inf-a", "zeta-nan-im-a", "zeta-float-order",
        "polygamma-nan-a", "polygamma-float-order", "cot-nan-a", "cot-inf-a",
        "cot-nan-im-a", "cot-float-order", "symmetry-nan-a", "symmetry-nan-z",
        "symmetry-nan-im-z", "polylog-nan-x", "polylog-float-order",
        "polylog-bool-order", "bernoulli-float-index", "tan-float-index"])
def test_out_of_scope_input_raises_domain_error(call):
    # not a bare ValueError, OverflowError or TypeError, nor a NaN value,
    # nor a value at an order the functions do not define
    with pytest.raises(DomainError):
        call()
