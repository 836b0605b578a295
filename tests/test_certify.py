"""The one tolerance rule, result.certify, and the points it decides.

Every route but pv ends in certify: a result is returned only when no
quadrature stalled, its value is finite and its whole error estimate is at
most tol * max(1, |value|).  The inverse expansion's estimate is its tail
bound plus the rounding of its trigonometric side, relative to the moduli
of that side's terms.  Next to an integer shift the side and the tail term
m = N grow like |a - N|^-n and cancel; the expansion sums the two as one,
and the first points below, where the tail bound alone met tol and the
whole estimate did not, certify by it.  The last ones pin how the
trigonometric side is formed, and the series route's check at z = 1.  The
reference is oracles.lerch_reference.
"""

import cmath
import math
import random

import pytest

from lerchphi.engine import phi, phi_integral, phi_inverse
from lerchphi.errors import BeyondDoubleRange, DomainError, ToleranceNotMet
from lerchphi.result import EvalResult, certify
from oracles import lerch_reference, shifted_integral

TOL = 1e-10


class TestCertify:
    def test_returns_the_result_on_the_boundary(self):
        # err = tol * max(1, |value|) certifies, on both sides of |value| = 1
        for value in (0.5 + 0j, 3j):
            bound = TOL * max(1.0, abs(value))
            assert certify(value, bound, "series", 7, TOL) == EvalResult(
                value, bound, "series", 7)
            with pytest.raises(ToleranceNotMet) as info:
                certify(value, bound * (1 + 2**-50), "series", 7, TOL)
            assert info.value.result == EvalResult(
                value, bound * (1 + 2**-50), "series", 7)

    @pytest.mark.parametrize("value", [complex(math.nan, 0.0),
                                       complex(0.0, math.inf)])
    def test_a_value_that_is_not_finite_raises(self, value):
        with pytest.raises(ToleranceNotMet) as info:
            certify(value, 0.0, "integral", 40, TOL)
        res = info.value.result
        assert (res.method, res.terms_or_nodes) == ("integral", 40)

    def test_a_stall_raises_chained_to_it(self):
        stall = ToleranceNotMet("ray quadrature stalled",
                                EvalResult(1j, 1e-3, "ray", 9))
        with pytest.raises(ToleranceNotMet) as info:
            # even a result that would meet tol is not returned
            certify(2j, 0.0, "integral", 12, TOL, stall)
        assert info.value.__cause__ is stall
        assert info.value.result == EvalResult(2j, 0.0, "integral", 12)


def near_integer_points(seed, count):
    """(z, n, a) outside the circle next to an integer shift: |z|
    log-uniform in [1.2, 20], |arg z| in [0.1, pi], n = 1..8, a = N + delta
    with N = 1..4 and |delta| log-uniform in [1e-7, 0.1] in any direction."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        r = 10.0 ** rng.uniform(math.log10(1.2), math.log10(20.0))
        theta = rng.uniform(0.1, math.pi) * rng.choice((-1, 1))
        shift = rng.randint(1, 4)
        delta = 10.0 ** rng.uniform(-7.0, -1.0) * cmath.exp(
            1j * rng.uniform(-math.pi, math.pi))
        points.append((r * cmath.exp(1j * theta), rng.randint(1, 8),
                       shift + delta))
    return points


def test_near_integer_shift_is_certified_or_raised():
    # the folded expansion serves every point next to the integer: each
    # result meets tol with its whole estimate, and the estimate bounds the
    # error
    for z, n, a in near_integer_points(0, 200):
        res = phi(z, n, a, TOL)
        assert res.method == "inverse", (z, n, a)
        assert res.err_estimate <= TOL * max(1.0, abs(res.value)), (z, n, a)
        ref = lerch_reference(z, n, a, dps=20)
        assert abs(res.value - ref) <= res.err_estimate, (z, n, a)


@pytest.mark.parametrize("z,n,a", [
    # without the fold the expansion's estimate was 0.072 with an error of
    # 0.011
    (-6.131574141793447 + 0.8740346975162875j, 8,
     0.9833739082725641 + 0.006348207666513117j),
    # estimate 4.3e-8, error 1.9e-8
    (-14.606411659637908 - 7.031165416503119j, 6,
     1.9740718492010614 + 0.0023932338073846537j),
], ids=["one-percent", "plane-worst"])
def test_whole_estimate_moves_the_point_to_the_integral(z, n, a):
    res = phi(z, n, a, TOL)
    assert res.method == "inverse"
    assert res.err_estimate <= TOL * max(1.0, abs(res.value))
    assert abs(res.value - lerch_reference(z, n, a)) <= res.err_estimate


def test_no_route_certifies_next_to_the_cut():
    # arg z = 0.0057: the integral refuses (its pole is within 0.1 of its
    # path); the folded inverse expansion certifies
    z, n, a = (1.5179296702451195 + 0.008648785460432244j, 6,
               1.925577893870142 - 0.09858362274525723j)
    with pytest.raises(DomainError, match="pole log z"):
        phi_integral(z, n, a, TOL)
    res = phi(z, n, a, TOL)
    assert res.method == "inverse"
    assert res.err_estimate <= TOL * max(1.0, abs(res.value))
    # next to the path the quadrature oracle needs more digits
    assert abs(res.value - shifted_integral(z, n, a, dps=50)) <= res.err_estimate


@pytest.mark.parametrize("z,n,a", [
    (19.425724237906962 - 1.1658566801192547j, 6,
     0.9866720837230369 - 0.06156479817084248j),
    (19.470608878632582 + 0.5006638419363176j, 5,
     2.979363839750631 + 0.003769048683259113j),
    (2.813303914856044 + 0.15279690525299852j, 5,
     1.9770415940023893 + 0.07484499140235168j),
    (8.13525487258506 - 11.414596660011922j, 2,
     0.9999368521034495 + 3.3298190624297324e-05j),
], ids=["plane-r19-n6", "plane-r19-n5", "plane-r2.8", "r14"])
def test_near_integer_next_to_the_cut_certifies_by_inverse(z, n, a):
    # an expansion that stalls next to the integer leaves these points to
    # the integral, which refuses the first three (|arg z| < 0.1 puts its
    # pole log z next to its path)
    res = phi(z, n, a, TOL)
    assert res.method == "inverse"
    assert res.err_estimate <= TOL * max(1.0, abs(res.value))
    assert abs(res.value - lerch_reference(z, n, a, dps=50)) <= res.err_estimate


def test_inverse_rounding_counts_the_cot_sides_cancellation():
    # the 21 terms of the cot side sum to 1/743 of their moduli; a rounding
    # term relative to |trig| alone was 1.05e-12 against an error of 1.17e-12
    z, n, a = -14.2309 + 2.4724j, 21, -1.0444 + 0.9313j
    res = phi_inverse(z, n, a, TOL)
    assert abs(res.value - lerch_reference(z, n, a, dps=50)) <= res.err_estimate
    assert phi(z, n, a, TOL) == res


@pytest.mark.parametrize("z", [-16.0, 16j])
def test_inverse_power_beyond_the_double_range_raises(z):
    # |Phi(z, 2, -299.6)| is about 16^300: w^-b overflowed and leaked
    # OverflowError
    with pytest.raises(BeyondDoubleRange, match="double range"):
        phi(z, 2, -299.6, TOL)


@pytest.mark.parametrize("n", [1, 2])
def test_inverse_power_beyond_the_double_range_with_a_small_cot_side(n):
    # |w^-b| is e^713.7, beyond the double range, and the cot side about
    # e^-29, so the trig term, and Phi, are not; the exponent's rounding
    # (5e-16 |b log w| relative) joins the estimate
    w, b = 16 * cmath.exp(0.9j * math.pi), -252.3 + 5j
    with pytest.raises(OverflowError):
        cmath.exp(-b * cmath.log(w))
    res = phi_inverse(w, n, b, TOL)
    assert abs(res.value - lerch_reference(w, n, b, dps=50)) <= res.err_estimate


@pytest.mark.parametrize("z,n", [
    (-3 + 0.01j, 2), (-3 + 0.01j, 4), (3 * cmath.exp(0.9j * math.pi), 1)])
def test_inverse_cot_side_keeps_its_digits(z, n):
    # at Im b = 6, cot(-pi b) - sgn i is about 4e-16: formed by subtraction
    # it kept no digit, and the returned error was up to 4.4e-8 with an
    # estimate of 1.6e-11
    b = 0.5 + 6j
    res = phi(z, n, b, TOL)
    assert res.method == "inverse"
    assert abs(res.value - lerch_reference(z, n, b)) <= res.err_estimate


def test_hurwitz_branch_checks_its_estimate():
    # at z = 1 + 5e-13 the series route's Hurwitz branch adds 40 |z - 1| to
    # its estimate: 2e-11 meets tol 1e-10 but not 1e-12
    z, value = 1 + 5e-13, math.pi ** 2 / 2  # Phi(1, 2, 1/2) = zeta(2, 1/2)
    res = phi(z, 2, 0.5, TOL)
    assert res.method == "series"
    assert abs(res.value - value) <= res.err_estimate <= TOL * value
    with pytest.raises(ToleranceNotMet) as info:
        phi(z, 2, 0.5, 1e-12)
    assert info.value.result == res
