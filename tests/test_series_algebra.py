"""Truncated Laurent-series arithmetic, kept as a reference for the
integer-shift finite part.

The library takes the finite part of the integer shift in closed form,
-pi sum_k L^k/k! c_(n-1-k) - L^n/n!, the folded trigonometric side of the
inverse expansion at eps = 0 (``engine._fold_side``).  This file
builds the same limit the long way: Laurent windows of w^eps and cot(pi eps),
their product, n - 1 derivatives, the pole subtraction and a check that every
negative degree cancelled.  The arithmetic is tested on its own first, then
the two derivations are compared for n = 1..10.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lerchphi.engine import _fold_side
from lerchphi.special_functions import bernoulli

# Cancellation is exact analytically; residues above this relative level
# indicate a wrong pole subtraction, not floating-point noise.
POLE_CANCEL_RTOL = 1e-12


class ResidualPole(ArithmeticError):
    """Negative Laurent degrees survived a finite-part extraction."""


@dataclass(frozen=True)
class TruncatedLaurentSeries:
    """Coefficient window [min_degree, order] in eps: degrees below
    min_degree are exactly zero, degrees above order are unknown."""

    min_degree: int
    coeffs: tuple  # coeffs[k] multiplies eps**(min_degree + k)

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("series needs at least one retained coefficient")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    @property
    def order(self) -> int:
        return self.min_degree + len(self.coeffs) - 1

    def coefficient(self, degree: int) -> complex:
        if degree < self.min_degree:
            return 0j
        if degree > self.order:
            raise IndexError(f"degree {degree} above retained order {self.order}")
        return self.coeffs[degree - self.min_degree]

    def eval_at(self, eps: complex) -> complex:
        return sum(
            c * eps ** (self.min_degree + k) for k, c in enumerate(self.coeffs)
        )

    def scale(self, factor: complex) -> "TruncatedLaurentSeries":
        return TruncatedLaurentSeries(
            self.min_degree, tuple(factor * c for c in self.coeffs)
        )


def exp_series(c: complex, order: int) -> TruncatedLaurentSeries:
    """Taylor window of exp(c eps): coefficient of eps^k is c^k / k!."""
    coeffs = [1.0 + 0j]
    for k in range(1, order + 1):
        coeffs.append(coeffs[-1] * c / k)
    return TruncatedLaurentSeries(0, tuple(coeffs))


def cot_pi_laurent(order: int) -> TruncatedLaurentSeries:
    """Laurent window of cot(pi eps) about 0, built from the exact Bernoulli
    numbers rather than the library's float table."""
    coeffs = [1.0 / math.pi]
    for d in range(order + 1):
        if d % 2 == 0:
            coeffs.append(0.0)
        else:
            k = (d + 1) // 2  # d = 2k - 1
            frac = (Fraction(2 ** (2 * k)) * abs(bernoulli(2 * k))
                    / math.factorial(2 * k))
            coeffs.append(-float(frac) * math.pi ** (2 * k - 1))
    return TruncatedLaurentSeries(-1, tuple(coeffs))


def monomial(coeff: complex, degree: int, order: int) -> TruncatedLaurentSeries:
    """coeff * eps^degree, zero-padded up to the given (exactly known) order."""
    return TruncatedLaurentSeries(degree, (coeff,) + (0j,) * (order - degree))


def mul(a: TruncatedLaurentSeries,
        b: TruncatedLaurentSeries) -> TruncatedLaurentSeries:
    """Cauchy product on the common reliable window; each coefficient is an
    fsum of the cross products, so mul commutes bitwise."""
    min_degree = a.min_degree + b.min_degree
    order = min(a.order + b.min_degree, b.order + a.min_degree)
    coeffs = []
    for base in range(order - min_degree + 1):
        terms = [
            a.coeffs[i] * b.coeffs[base - i]
            for i in range(max(0, base - len(b.coeffs) + 1),
                           min(len(a.coeffs), base + 1))
        ]
        coeffs.append(complex(math.fsum(t.real for t in terms),
                              math.fsum(t.imag for t in terms)))
    return TruncatedLaurentSeries(min_degree, tuple(coeffs))


def add(a: TruncatedLaurentSeries,
        b: TruncatedLaurentSeries) -> TruncatedLaurentSeries:
    min_degree = min(a.min_degree, b.min_degree)
    order = min(a.order, b.order)
    return TruncatedLaurentSeries(
        min_degree,
        tuple(a.coefficient(d) + b.coefficient(d)
              for d in range(min_degree, order + 1)),
    )


def sub(a: TruncatedLaurentSeries,
        b: TruncatedLaurentSeries) -> TruncatedLaurentSeries:
    return add(a, b.scale(-1.0))


def differentiate(s: TruncatedLaurentSeries, j: int = 1) -> TruncatedLaurentSeries:
    """j-fold d/d eps; min_degree and order both drop by j."""
    for _ in range(j):
        s = TruncatedLaurentSeries(
            s.min_degree - 1,
            tuple((s.min_degree + k) * c for k, c in enumerate(s.coeffs)),
        )
    return s


def finite_part_limit(s: TruncatedLaurentSeries) -> complex:
    """The eps^0 coefficient, after checking that every negative degree has
    cancelled to POLE_CANCEL_RTOL relative."""
    if not (s.min_degree <= 0 <= s.order):
        raise ValueError("series window must contain degree 0")
    scale = max(abs(c) for c in s.coeffs)
    for d in range(s.min_degree, 0):
        if abs(s.coefficient(d)) > POLE_CANCEL_RTOL * scale:
            raise ResidualPole(f"eps^{d} survives the finite-part limit")
    return s.coefficient(0)


def integer_shift_limit_by_series(n: int, w: complex) -> complex:
    """lim_{eps -> 0} { pi/(n-1)! d^(n-1)(-w^eps cot(pi eps)) - (-1)^n/eps^n }
    by series arithmetic."""
    order = n + 2
    prod = mul(exp_series(cmath.log(w), order), cot_pi_laurent(order))
    deriv = differentiate(prod, n - 1).scale(-math.pi / math.factorial(n - 1))
    return finite_part_limit(
        sub(deriv, monomial((-1.0) ** n, -n, deriv.order))
    )


def series(min_degree, *coeffs):
    return TruncatedLaurentSeries(min_degree, tuple(coeffs))


class TestExpSeries:
    def test_exp_of_zero(self):
        s = exp_series(0.0, 3)
        assert s.min_degree == 0
        assert s.coeffs == (1, 0, 0, 0)

    def test_exp_of_one(self):
        s = exp_series(1.0, 2)
        assert s.coeffs == (1, 1, 0.5)

    def test_coefficients_are_powers_over_factorials(self):
        c = math.log(2)
        s = exp_series(c, 4)
        for k in range(5):
            assert abs(s.coefficient(k) - c**k / math.factorial(k)) < 1e-15

    def test_pointwise_against_exp(self):
        # oracle: evaluate the window at eps = 0.1 against exp(0.1 ln 2)
        s = exp_series(math.log(2), 12)
        assert abs(s.eval_at(0.1) - 2**0.1) < 1e-12


class TestCotPiLaurent:
    def test_pole_only(self):
        s = cot_pi_laurent(-1)
        assert s.min_degree == -1 and s.order == -1
        assert abs(s.coefficient(-1) - 1 / math.pi) < 1e-16

    def test_order_one_window(self):
        s = cot_pi_laurent(1)
        assert abs(s.coefficient(-1) - 1 / math.pi) < 1e-16
        assert s.coefficient(0) == 0
        assert abs(s.coefficient(1) - (-math.pi / 3)) < 1e-15

    def test_order_three_coefficient(self):
        s = cot_pi_laurent(3)
        assert abs(s.coefficient(3) - (-math.pi**3 / 45)) < 1e-14

    @pytest.mark.parametrize("eps,tol", [(1e-3, 1e-9), (5e-3, 1e-6)])
    def test_pointwise_against_cot(self, eps, tol):
        # oracle: cot(pi eps) = cos(pi eps)/sin(pi eps) evaluated directly
        s = cot_pi_laurent(5)
        direct = math.cos(math.pi * eps) / math.sin(math.pi * eps)
        assert abs(s.eval_at(eps) - direct) < tol

    def test_even_coefficients_vanish_exactly(self):
        s = cot_pi_laurent(10)
        for d in range(0, 11, 2):
            assert s.coefficient(d) == 0


class TestMul:
    def test_one_plus_eps_times_one_minus_eps(self):
        p = mul(series(0, 1, 1), series(0, 1, -1))
        assert p.min_degree == 0
        # window truncates at order 1: only 1 + 0 eps is reliable
        assert p.coefficient(0) == 1
        assert p.coefficient(1) == 0

    def test_degree_bookkeeping_with_shift(self):
        # cot window times the exact monomial eps shifts every degree up one
        p = mul(cot_pi_laurent(1), monomial(1.0, 1, 4))
        assert p.min_degree == 0
        assert abs(p.coefficient(0) - 1 / math.pi) < 1e-16
        assert p.coefficient(1) == 0
        assert abs(p.coefficient(2) - (-math.pi / 3)) < 1e-15

    def test_full_product_window(self):
        p = mul(series(0, 1, 1, 0, 0, 0), series(0, 1, -1, 0, 0, 0))
        assert p.coefficient(2) == -1
        assert p.order == 4

    def test_pointwise_product_oracle(self):
        rng = random.Random(42)
        for _ in range(5):
            a = series(0, *(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                            for _ in range(5)))
            b = series(0, *(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                            for _ in range(5)))
            p = mul(a, b)
            eps = 0.05
            # truncated degrees contribute at most ~eps^5 ~ 3e-7; compare the
            # retained window against the product of the full windows minus
            # the dropped cross terms by using a tighter eps bound
            direct = a.eval_at(eps) * b.eval_at(eps)
            dropped = sum(
                a.coefficient(i) * b.coefficient(j) * eps ** (i + j)
                for i in range(5)
                for j in range(5)
                if i + j > p.order
            )
            assert abs(p.eval_at(eps) - (direct - dropped)) < 1e-12


class TestDifferentiate:
    def test_derivative_of_eps_squared(self):
        d = differentiate(series(2, 1))
        assert d.min_degree == 1
        assert d.coefficient(1) == 2

    def test_derivative_of_inverse_eps(self):
        d = differentiate(series(-1, 1))
        assert d.min_degree == -2
        assert d.coefficient(-2) == -1

    def test_constant_term_vanishes(self):
        d = differentiate(series(0, 7, 3))
        assert d.coefficient(-1) == 0
        assert d.coefficient(0) == 3

    def test_second_derivative_of_cot_window(self):
        # oracle: symmetric second difference of pointwise cot(pi eps);
        # truncation error of the difference is (h/eps)^2 ~ 1e-7
        s = differentiate(cot_pi_laurent(5), 2)
        eps, h = 1e-2, 3e-6

        def cot(x):
            return math.cos(math.pi * x) / math.sin(math.pi * x)

        fd = (cot(eps + h) - 2 * cot(eps) + cot(eps - h)) / h**2
        assert abs(s.eval_at(eps) - fd) / abs(fd) < 1e-6


class TestFinitePart:
    def test_plain_constant(self):
        assert finite_part_limit(series(-1, 0, 3)) == 3

    def test_residual_pole_raises(self):
        with pytest.raises(ResidualPole):
            finite_part_limit(series(-1, 0.1, 3))

    def test_window_must_contain_zero(self):
        with pytest.raises(ValueError):
            finite_part_limit(series(1, 1, 2))

    def test_integer_shift_combination_n2(self):
        # lim_{eps->0} { pi/(n-1)! d^{n-1}(-w^eps cot(pi eps)) - (-1)^n/eps^n }
        # for n = 2, w = 2i must equal pi^2/3 - (ln w)^2/2
        w = 2j
        lw = cmath.log(w)
        prod = mul(exp_series(lw, 4), cot_pi_laurent(4))
        deriv = differentiate(prod, 1).scale(-math.pi)
        combo = sub(deriv, monomial(1.0, -2, deriv.order))
        expected = math.pi**2 / 3 - lw**2 / 2
        assert abs(finite_part_limit(combo) - expected) < 1e-12

    def test_wrong_pole_subtraction_detected(self):
        w = 2j
        prod = mul(exp_series(cmath.log(w), 4), cot_pi_laurent(4))
        deriv = differentiate(prod, 1).scale(-math.pi)
        bad = sub(deriv, monomial(-1.0, -2, deriv.order))  # wrong sign
        with pytest.raises(ResidualPole):
            finite_part_limit(bad)


finite_complex = st.complex_numbers(
    max_magnitude=10, allow_nan=False, allow_infinity=False
)


@st.composite
def laurent_series(draw, min_len=2, max_len=6):
    min_degree = draw(st.integers(min_value=-3, max_value=2))
    coeffs = draw(
        st.lists(finite_complex, min_size=min_len, max_size=max_len)
    )
    return TruncatedLaurentSeries(min_degree, tuple(coeffs))


@given(laurent_series(), laurent_series())
@settings(max_examples=100, deadline=None)
def test_product_rule(f, g):
    lhs = differentiate(mul(f, g))
    rhs = add(mul(differentiate(f), g), mul(f, differentiate(g)))
    scale = max(1.0, max(abs(c) for c in lhs.coeffs))
    for d in range(max(lhs.min_degree, rhs.min_degree),
                   min(lhs.order, rhs.order) + 1):
        assert abs(lhs.coefficient(d) - rhs.coefficient(d)) <= 1e-12 * scale


@given(laurent_series(), laurent_series())
@settings(max_examples=100, deadline=None)
def test_mul_commutes(f, g):
    assert mul(f, g) == mul(g, f)


@given(laurent_series(), laurent_series(), laurent_series())
@settings(max_examples=60, deadline=None)
def test_mul_associates_on_common_window(f, g, h):
    lhs = mul(mul(f, g), h)
    rhs = mul(f, mul(g, h))
    scale = max(1.0, max(abs(c) for c in lhs.coeffs))
    for d in range(max(lhs.min_degree, rhs.min_degree),
                   min(lhs.order, rhs.order) + 1):
        assert abs(lhs.coefficient(d) - rhs.coefficient(d)) <= 1e-9 * scale


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("w", [2j, -3.0 + 0.5j, 1.5 - 4j, -1.01 - 0.01j])
def test_closed_form_matches_series_derivation(n, w):
    want = integer_shift_limit_by_series(n, w)
    got, _ = _fold_side(n, cmath.log(w), 0j, 0)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
