"""Tests for Bernoulli machinery, cot derivatives, polylog, zeta, polygamma."""

import math
from fractions import Fraction
from math import comb

import mpmath
import pytest
import scipy.special
from hypothesis import example, given, settings, strategies as st

from lerchphi.errors import (
    DivergentAtOne,
    DomainError,
    PoleAtInteger,
    PoleAtNonPositiveInteger,
)
from lerchphi.special_functions import (
    _Q_EXPANSION_IM,
    _cot_pi_laurent,
    _cot_pi_q,
    bernoulli,
    cot_deriv_polynomial,
    cot_pi,
    cot_pi_derivative,
    cot_pi_derivatives,
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


class TestCotDerivPolynomial:
    def test_recurrence_exact(self):
        # independent reconstruction: Q_{j+1} = -(1 + c^2) Q_j' over Fractions
        q = [Fraction(0), Fraction(1)]  # Q_0 = c
        for j in range(12):
            got = cot_deriv_polynomial(j).coeffs
            padded = list(q) + [Fraction(0)] * (len(got) - len(q))
            assert [Fraction(c) for c in padded][: len(got)] == [
                Fraction(int(x)) for x in got
            ]
            dq = [k * q[k] for k in range(1, len(q))]
            nxt = [Fraction(0)] * (len(dq) + 2)
            for k, coef in enumerate(dq):
                nxt[k] -= coef
                nxt[k + 2] -= coef
            q = nxt

    def test_parity_invariant(self):
        # coeffs[k] = 0 whenever k and j+1 have different parity
        for j in range(13):
            coeffs = cot_deriv_polynomial(j).coeffs
            for k, coef in enumerate(coeffs):
                if (k - (j + 1)) % 2 != 0:
                    assert coef == 0

    def test_low_order_polynomials(self):
        assert cot_deriv_polynomial(0).coeffs == (0, 1)
        assert cot_deriv_polynomial(1).coeffs == (-1, 0, -1)
        assert cot_deriv_polynomial(2).coeffs == (0, 2, 0, 2)


class TestCotPiDerivative:
    def test_value_at_half(self):
        assert abs(cot_pi_derivative(0, 0.5)) < 1e-15

    def test_first_derivative_at_half(self):
        assert abs(cot_pi_derivative(1, 0.5) - (-math.pi)) < 1e-12

    def test_second_derivative_against_finite_differences(self):
        # oracle: central second differences of cot(pi a) with one Richardson
        # step; h = 1e-3 balances rounding (eps/h^2) against truncation
        a, h = 0.25, 1e-3

        def second(hh):
            return (cot_pi(a + hh) - 2 * cot_pi(a) + cot_pi(a - hh)) / hh**2

        fd = (4 * second(h / 2) - second(h)) / 3
        assert abs(cot_pi_derivative(2, a) - fd) < 1e-8

    def test_pole_guard(self):
        with pytest.raises(PoleAtInteger):
            cot_pi_derivative(1, 1.0)
        with pytest.raises(PoleAtInteger):
            cot_pi_derivative(0, 3.0 + 1e-13j)

    def test_argument_reduction_large_real_part(self):
        assert abs(cot_pi_derivative(1, 100.25) - cot_pi_derivative(1, 0.25)) < 1e-9

    def test_large_imaginary_part_does_not_overflow(self):
        # sin(pi a) overflows double beyond |Im a| ~ 226
        assert cot_pi(0.3 + 300j) == -1j
        assert cot_pi(0.3 - 300j) == 1j
        assert cot_pi_derivatives(5, 0.3 + 300j)[1:] == [0j] * 5


def _cot_derivatives_mp(jmax, a):
    """d^j cot(pi a), j = 0..jmax, by mpmath differentiation; the precision
    grows with |Im a| because the derivatives fall like e^(-2 pi |Im a|)."""
    with mpmath.workdps(30 + int(3 * abs(a.imag))):
        f = lambda t: mpmath.cot(mpmath.pi * t)  # noqa: E731
        return [complex(d) for d in mpmath.diffs(f, mpmath.mpc(a), jmax)]


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
        ref = _cot_derivatives_mp(7, a)
        assert _max_rel_err(cot_pi_derivatives(7, a), ref) <= 1e-13, a
        conj = [r.conjugate() for r in ref]
        assert _max_rel_err(cot_pi_derivatives(7, a.conjugate()), conj) <= 1e-13, a


def test_q_expansion_threshold():
    # the polynomial in cot(pi a) loses relative accuracy like
    # e^(2 pi |Im a|): at |Im a| = 2 it is off by ~1e-9, while the
    # q-expansion holds from the switch upward; both hold at the switch
    def poly(a):
        c = cot_pi(a)
        return [cot_deriv_polynomial(j).evaluate(c) for j in range(8)]

    for x in (-0.77, 0.1, 0.3, 0.45):
        at_switch = complex(x, _Q_EXPANSION_IM)
        ref = _cot_derivatives_mp(7, at_switch)
        assert _max_rel_err(poly(at_switch), ref) <= 1e-13
        assert _max_rel_err(_cot_pi_q(7, at_switch), ref) <= 1e-13
        far = complex(x, 2.0)
        assert _max_rel_err(poly(far), _cot_derivatives_mp(7, far)) > 1e-11


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


@given(
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=6),
)
@example(a=1.5 + 0j, j=6)  # cot(pi a) rounds to -6e-17, not 0
@settings(max_examples=150, deadline=None)
def test_cot_derivative_antisymmetry(a, j):
    # d^j cot at 1-a equals (-1)^(j+1) times the value at a, to 1e-12
    # relative to the polynomial evaluation scale, plus the error that
    # rounding a and 1 - a leaves: d^(j+1) cot(pi a) times (1 + |a|) eps
    if min(abs(a - round(a.real)), abs(1 - a - round(1 - a.real))) < 1e-3:
        return
    lhs = cot_pi_derivative(j, 1 - a)
    rhs = (-1) ** (j + 1) * cot_pi_derivative(j, a)
    c = cot_pi(a)
    scale = math.pi**j * sum(
        abs(coef) * abs(c) ** k
        for k, coef in enumerate(cot_deriv_polynomial(j).coeffs)
    )
    rounding = abs(cot_pi_derivative(j + 1, a)) * (1 + abs(a)) * 2.0**-52
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, scale) + 4 * rounding


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
            + math.pi * cot_pi_derivative(m, a)
        )
        assert res < 1e-9

    def test_digamma_excluded(self):
        with pytest.raises(DomainError):
            polygamma(0, 0.5)
