"""Tests for the four evaluation routes, classifier, and dispatcher."""

import cmath
import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from lerchphi.engine import (
    ROUTES,
    _ROUTE_TABLE,
    Region,
    classify,
    extended_polylog,
    phi,
    phi_integer_a,
    phi_integral,
    phi_inverse,
    phi_pv,
    phi_series,
    symmetry_transform,
)
from lerchphi.errors import (
    DomainError,
    PoleAtInteger,
    PoleAtNonPositiveInteger,
    ToleranceNotMet,
)
from lerchphi.result import EvalResult
from lerchphi.special_functions import polylog
from oracles import lerch_reference, phi_integer_a_explicit

mp.mp.dps = 30

LN2 = math.log(2)


def direct_series(z, n, a, terms=400):
    """Brute-force oracle for |z| clearly below 1."""
    return sum(z**m / (a + m) ** n for m in range(terms))


def mp_ref(z, n, a):
    return complex(mp.lerchphi(z, n, a))


class TestClassify:
    E = cmath.exp(0.7j)

    @pytest.mark.parametrize("z, region", [
        (0.5j, Region.INSIDE_DISC),
        ((1 - 2e-6) * E, Region.INSIDE_DISC),
        ((1 - 5e-7) * E, Region.BAND),
        ((1 - 5e-13) * E, Region.BAND),
        (E, Region.BAND),
        ((1 + 1e-8) * E, Region.BAND),
        ((1 + 5e-7) * E, Region.BAND),
        ((1 + 2e-6) * E, Region.EXTERIOR),
        (2j, Region.EXTERIOR),
    ])
    def test_band_edges_off_the_real_line(self, z, region):
        assert classify(z) is region

    def test_inside_real_segment(self):
        assert classify(0.5) is Region.INSIDE_DISC
        assert classify(-0.5) is Region.INSIDE_DISC
        assert classify(1 - 5e-7) is Region.NEAR_ONE

    def test_exterior_negative_real(self):
        assert classify(-2.0) is Region.EXTERIOR_NEGATIVE_REAL
        assert classify(-3.0) is Region.EXTERIOR_NEGATIVE_REAL
        assert classify(-(1 + 5e-7)) is Region.BAND

    def test_exterior_cut(self):
        assert classify(3.0) is Region.CUT
        assert classify(1 + 2e-6) is Region.CUT

    def test_special_points(self):
        assert classify(0.0) is Region.INSIDE_DISC
        for z in (1.0, 1 + 5e-13, 1 - 5e-13, 1 + 1e-13j):
            assert classify(z) is Region.ONE
        assert classify(1.0000005) is Region.NEAR_ONE

    def test_every_region_has_a_row_or_a_refusal(self):
        for region in Region:
            row = _ROUTE_TABLE[region]
            assert row.routes or row.refusal, region
            assert set(row.routes) <= set(ROUTES), region

    def test_phi_answers_by_a_route_of_its_row(self):
        for z, n, a, tol in dispatcher_grid():
            try:
                res = phi(z, n, a, tol)
            except ToleranceNotMet as exc:
                res = exc.result
            assert res.method in _ROUTE_TABLE[classify(z)].routes, (z, n, a)


class TestPhiSeries:
    def test_only_first_term_survives_at_zero(self):
        res = phi_series(0.0, 3, 2.0)
        assert res.value == 0.125

    def test_closed_form_log(self):
        res = phi_series(0.5, 1, 1.0, 1e-11)
        assert abs(res.value - 2 * LN2) < 1e-10

    def test_polylog_connection(self):
        # Phi(z, n, 1) = Li_n(z)/z
        res = phi_series(-0.5, 2, 1.0)
        assert abs(res.value - polylog(2, -0.5, 1e-14) / -0.5) < 1e-10

    def test_err_estimate_majorizes_true_error(self):
        for z, n, a in [(0.5, 1, 1.0), (0.9, 2, 0.3), (-0.8j, 3, 1.2 + 0.4j)]:
            res = phi_series(z, n, a, 1e-11)
            assert abs(res.value - mp_ref(z, n, a)) <= res.err_estimate

    def test_unit_circle_needs_higher_order(self):
        with pytest.raises(DomainError):
            phi_series(1.0, 1, 0.5)

    def test_unit_circle_at_one_is_hurwitz(self):
        res = phi_series(1.0, 3, 0.7)
        assert abs(res.value - complex(mp.zeta(3, 0.7))) < 1e-10

    def test_domain_and_pole_errors(self):
        with pytest.raises(DomainError):
            phi_series(1.5, 2, 0.5)
        with pytest.raises(PoleAtNonPositiveInteger):
            phi_series(0.5, 2, -3.0)


class TestPhiIntegral:
    def test_closed_form_log(self):
        res = phi_integral(0.5, 1, 1.0)
        assert abs(res.value - 2 * LN2) < 1e-10

    def test_matches_series_inside_disc(self):
        res = phi_integral(0.3 + 0.4j, 2, 0.7)
        ref = phi_series(0.3 + 0.4j, 2, 0.7, 1e-12)
        assert abs(res.value - ref.value) < 1e-10

    def test_matches_integer_shift_outside(self):
        res = phi_integral(-2.0, 2, 1.0)
        ref = phi_integer_a(-2.0, 2, 1, 1e-11)
        assert abs(res.value - ref.value) < 1e-9

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            phi_integral(2.0, 1, 0.5)  # z on [1, oo)
        with pytest.raises(DomainError):
            phi_integral(1.0, 2, 0.5)
        with pytest.raises(PoleAtNonPositiveInteger):
            phi_integral(0.5, 1, -2.0)

    @pytest.mark.parametrize("z, n, a", [
        (0.5, 1, -0.2),
        (0.9j, 3, -2.6 + 0.4j),
        (-3.0, 2, -0.4),
    ])
    def test_shift_admits_re_a_at_most_zero(self, z, n, a):
        # head terms move a to Re a >= 1; each one counts as a term
        res = phi_integral(z, n, a, 1e-11)
        assert res.err_estimate <= 1e-11 * max(1.0, abs(res.value))
        ref = lerch_reference(z, n, a)
        assert abs(res.value - ref) <= res.err_estimate
        assert res.terms_or_nodes > math.ceil(1 - a.real)


    def test_target_divided_by_the_shift_power(self):
        # |z| = 14 and one head term: z multiplies the quadrature's error,
        # whose target was tol itself, and the route stalled at 2.6e-10
        z, n, a = (8.13525487258506 - 11.414596660011922j, 2,
                   0.9999368521034495 + 3.3298190624297324e-05j)
        res = phi_integral(z, n, a, 1e-10)
        assert res.err_estimate <= 1e-10 * max(1.0, abs(res.value))
        assert abs(res.value - lerch_reference(z, n, a, dps=50)) <= res.err_estimate


class TestPhiPV:
    def test_cot_term_vanishes_at_half(self):
        res = phi_pv(0.5, 1, 0.5, 1e-9)
        ref = phi_series(0.5, 1, 0.5, 1e-12)
        assert abs(res.value - ref.value) < 1e-9

    def test_complex_z(self):
        res = phi_pv(0.5j, 1, 0.3, 1e-9)
        ref = phi_series(0.5j, 1, 0.3, 1e-12)
        assert abs(res.value - ref.value) < 1e-9

    def test_higher_order_complex_shift(self):
        res = phi_pv(0.4, 3, 0.6 + 0.1j, 1e-9)
        ref = phi_series(0.4, 3, 0.6 + 0.1j, 1e-12)
        assert abs(res.value - ref.value) < 1e-8

    def test_region_conditions_enforced(self):
        with pytest.raises(DomainError):
            phi_pv(0.5, 1, 1.2)  # Re(a-1) >= 0
        with pytest.raises(DomainError):
            phi_pv(-0.5, 1, 0.3)  # on the cut
        with pytest.raises(DomainError):
            phi_pv(1.5, 1, 0.3)  # outside the disc
        with pytest.raises(PoleAtNonPositiveInteger):
            phi_pv(0.5, 2, 0.0 + 0j)
        with pytest.raises(PoleAtInteger):
            phi_pv(0.5, 2, 1.0 + 0j)  # positive-integer cot pole

    def test_estimate_counts_the_cancellation_of_the_cot_sum(self):
        # the trigonometric side's 14 terms have moduli 106 times their sum;
        # a rounding of 5e-16 (n + 1) |trig| missed the error (5.9e-16
        # against an estimate of 4.8e-16)
        z = -0.07710380204887377 + 0.09044325579190272j
        a = -2.877013614439976 + 0.7607945100200548j
        res = phi_pv(z, 14, a)
        assert abs(res.value - lerch_reference(z, 14, a, 40)) <= res.err_estimate

    def test_runtime_budget(self):
        import time

        phi_pv(0.5, 2, 0.4, 1e-9)  # warm caches
        t0 = time.perf_counter()
        phi_pv(0.35 + 0.4j, 3, 0.55 - 0.2j, 1e-9)
        assert time.perf_counter() - t0 < 0.1


class TestPhiInverse:
    def test_negative_real_argument(self):
        res = phi_inverse(-2.0, 1, 0.5)
        ref = phi_integral(-2.0, 1, 0.5, 1e-11)
        assert abs(res.value - ref.value) < 1e-9

    def test_against_integral_route(self):
        res = phi_inverse(3j, 2, 0.5)
        ref = phi_integral(3j, 2, 0.5, 1e-11)
        assert abs(res.value - ref.value) < 1e-9

    def test_symmetry_partner_consistency(self):
        # Phi from the expansion closes the symmetry relation with the
        # series value at z = 1/w
        w, n, b = 2j, 1, 0.3
        z = 1 / w
        a = 1 - b
        partner, trig = symmetry_transform(z, n, a)
        v_in = phi_series(z, n, a, 1e-12).value
        v_out = phi_inverse(w, n, b, 1e-11).value
        assert abs(v_in + (-1) ** n / z * v_out - trig) < 1e-9

    def test_integer_shift_rejected(self):
        # at and next to a positive integer shift the expansion sums the
        # pole of its cot side and its tail term m = N as one, and certifies
        for w, n, b in [(-2.0, 1, 1.0), (3j, 2, 2 + 1e-9j)]:
            res = phi_inverse(w, n, b)
            assert res.method == "inverse"
            assert abs(res.value - lerch_reference(w, n, b)) <= res.err_estimate

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            phi_inverse(0.5, 1, 0.3)  # |w| < 1
        with pytest.raises(DomainError):
            phi_inverse(2.0, 1, 0.3)  # positive real axis
        with pytest.raises(PoleAtNonPositiveInteger):
            phi_inverse(2j, 1, -1.0)

    def test_against_mpmath_grid(self):
        for w, n, b in [
            (1.5j, 1, 0.7),
            (-4.0, 3, 0.2),
            (2 - 2j, 4, 0.45 + 0.3j),
            (5j, 5, -0.6),
        ]:
            res = phi_inverse(w, n, b, 1e-11)
            ref = mp_ref(w, n, b)
            assert abs(res.value - ref) <= 1e-10 * max(1.0, abs(ref))

    @pytest.mark.parametrize("b", [0.3 + 300j, 0.3 - 300j, 0.3 + 30j, -1.7 + 30j])
    def test_large_imaginary_shift(self, b):
        # sin(pi b) overflows double beyond |Im b| ~ 226.  At these points
        # the trigonometric term is below e^-150, so mpmath's continuation
        # agrees with the principal branch
        w = 5 * cmath.exp(0.7j)
        res = phi(w, 2, b)
        assert res.method == "inverse"
        ref = mp_ref(w, 2, b)
        assert abs(res.value - ref) <= 1e-10 * max(1.0, abs(ref))


class TestPhiIntegerShift:
    def test_paper_spot_value(self):
        # Phi(-2, 1, 1) = -ln(1-w)/w at w = -2 on the principal branch
        res = phi_integer_a(-2.0, 1, 1)
        assert abs(res.value - math.log(3) / 2) < 1e-12

    def test_generic_matches_explicit_table(self):
        for w in (-2.0, 2j, 3 + 4j):
            for n in range(1, 6):
                for bign in (1, 2, 3):
                    got = phi_integer_a(w, n, bign, 1e-12).value
                    want = phi_integer_a_explicit(w, n, bign)
                    assert abs(got - want) < 1e-12

    def test_against_integral_route(self):
        res = phi_integer_a(3 + 4j, 3, 2)
        ref = phi_integral(3 + 4j, 3, 2.0, 1e-11)
        assert abs(res.value - ref.value) < 1e-9

    def test_shift_recurrence(self):
        # Phi(w, n, N+1) = (Phi(w, n, N) - N^-n)/w, applied from N = 1
        for w, n in [(2j, 2), (-2.0, 3), (3 + 4j, 1)]:
            val = phi_integer_a(w, n, 1, 1e-12).value
            for bign in (2, 3):
                val = (val - (bign - 1) ** (-n)) / w
                got = phi_integer_a(w, n, bign, 1e-12).value
                assert abs(got - val) < 1e-10

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_generic_order_against_integral_route(self, n):
        # the explicit table stops at n = 5; the finite-part convolution
        # serves every n
        for w in (-2.0, 2j, 3 + 4j):
            for bign in (1, 2, 3):
                got = phi_integer_a(w, n, bign, 1e-12).value
                ref = phi_integral(w, n, float(bign), 1e-12).value
                assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))

    @pytest.mark.parametrize("bign", [60, 240, 300])
    def test_large_shift_against_integral_route(self, bign):
        # w^k overflows double for k ~ 240 at |w| = 20; the shift sum runs
        # in powers of 1/w instead
        for w, n in [(20j, 2), (-3.0 + 1j, 3), (1.05 * cmath.exp(0.3j), 1)]:
            res = phi_integer_a(w, n, bign)
            ref = phi_integral(w, n, float(bign), 1e-12).value
            assert abs(res.value - ref) <= 1e-10 * max(1.0, abs(ref))
            assert res.err_estimate <= 1e-10 * max(1.0, abs(res.value))
        res = phi(20j, 2, float(bign))
        assert res.method == "inverse"
        assert abs(res.value - lerch_reference(20j, 2, bign)) <= res.err_estimate

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            phi_integer_a(0.5, 1, 1)
        with pytest.raises(DomainError):
            phi_integer_a(2.0, 1, 1)  # sgn(phi) undefined
        with pytest.raises(DomainError):
            phi_integer_a(2j, 1, 0)


class TestSymmetryTransform:
    def test_relation_inside_disc(self):
        z, n, a = 0.5j, 1, 0.3
        partner, trig = symmetry_transform(z, n, a)
        assert partner.z == 1 / z
        assert partner.a == 1 - a
        v1 = phi_series(z, n, a, 1e-12).value
        v2 = phi_inverse(partner.z, n, partner.a, 1e-11).value
        assert abs(v1 + (-1) ** n / z * v2 - trig) < 1e-9

    def test_involution(self):
        z, n, a = 0.7 * cmath.exp(2j), 2, 0.4 - 0.2j
        partner, _ = symmetry_transform(z, n, a)
        back, _ = symmetry_transform(partner.z, partner.n, partner.a)
        assert abs(back.z - z) < 1e-15
        assert abs(back.a - a) < 1e-15

    def test_excluded_segments(self):
        for z in (0.5, 1.0, 2.0, 0.0):
            with pytest.raises(DomainError):
                symmetry_transform(z, 1, 0.3)
        with pytest.raises(PoleAtInteger):
            symmetry_transform(0.5j, 1, 2.0)


class TestExtendedPolylog:
    def test_reduces_to_polylog_at_unit_shift(self):
        res = extended_polylog(0.5, 2, 1.0)
        assert abs(res.value - polylog(2, 0.5, 1e-14)) < 1e-10

    def test_zero_argument(self):
        assert extended_polylog(0.0, 4, 0.3).value == 0

    def test_cubic_polylog(self):
        res = extended_polylog(-0.5, 3, 1.0)
        assert abs(res.value - polylog(3, -0.5, 1e-14)) < 1e-10


class TestDispatcher:
    def test_routing(self):
        assert phi(0.5, 2, 1.0).method == "series"
        assert phi(2j, 2, 0.25).method == "inverse"
        assert phi(-2.0, 2, 1.0).method == "integral"
        # at and next to an integer shift the inverse expansion folds its
        # pole and certifies
        for a in (3, 3 + 5e-9j):
            res = phi(2j, 2, a)
            assert res.method == "inverse"
            assert abs(res.value - lerch_reference(2j, 2, a)) <= res.err_estimate

    def test_cross_method_agreement(self):
        v1 = phi(2j, 2, 0.25).value
        v2 = phi_integral(2j, 2, 0.25, 1e-11).value
        assert abs(v1 - v2) < 1e-9

    def test_singular_stratum(self):
        with pytest.raises(DomainError, match="singular stratum z=1, n=1"):
            phi(1.0, 1, 0.5)
        with pytest.raises(DomainError, match="singular stratum z=1, n=1"):
            phi(1 + 5e-13, 1, 0.5)
        with pytest.raises(DomainError, match="singular cut"):
            phi(3.0, 2, 0.5)
        with pytest.raises(DomainError, match="within 1e-06 of the singular"):
            phi(1.0000005, 2, 0.5)

    def test_z_one_higher_order_allowed(self):
        res = phi(1.0, 2, 0.3)
        assert abs(res.value - complex(mp.zeta(2, 0.3))) < 1e-10
        # within 1e-12 of 1 the series sums zeta(n, a) and widens the
        # estimate by the distance from z = 1
        near = phi(1 + 5e-13, 2, 0.3)
        assert near.value == res.value
        assert near.err_estimate >= res.err_estimate + 20 * 5e-13

    def test_z_near_one_estimate_bounds_the_error(self):
        res = phi(1 - 5e-13, 2, 0.5)
        assert abs(res.value - mp_ref(1 - 5e-13, 2, 0.5)) <= res.err_estimate

    def test_near_circle_certifies(self):
        # the inverse route has no usable rate this close to the circle
        z = cmath.exp(2j) * (1 + 1e-7)
        with pytest.raises(ToleranceNotMet):
            phi_inverse(z, 2, 0.4)
        res = phi(z, 2, 0.4)
        assert res.method == "integral"
        assert res.err_estimate <= 1e-10 * max(1.0, abs(res.value))
        assert abs(res.value - lerch_reference(z, 2, 0.4)) <= res.err_estimate

    @pytest.mark.parametrize("z, a, ref", [
        (-1.0, 0.5, math.pi / 2),
        (1 + 1e-8j, 1.3 + 0.2j, None),
    ])
    def test_circle_at_order_one_is_a_stall(self, z, a, ref):
        # on |z| = 1 with n = 1 the inverse route's tail bound is infinite
        # while its value is finite: a stall, not a value beyond the double
        # range.  At z = -1 the band row's integral certifies pi/2; next to
        # z = 1 it refuses, and phi raises the inverse route's stall
        with pytest.raises(ToleranceNotMet) as info:
            phi_inverse(z, 1, a)
        stall = info.value.result
        assert cmath.isfinite(stall.value) and stall.err_estimate == math.inf
        if ref is not None:
            res = phi(z, 1, a)
            assert res.method == "integral"
            assert abs(res.value - ref) <= res.err_estimate <= 1e-10
        else:
            with pytest.raises(DomainError, match="pole log z"):
                phi_integral(z, 1, a)
            with pytest.raises(ToleranceNotMet) as info:
                phi(z, 1, a)
            assert info.value.result == stall

    def test_pole_guard(self):
        with pytest.raises(PoleAtNonPositiveInteger):
            phi(0.5, 2, -2.0 + 1e-9j)

    def test_negative_real_z_nonpositive_shift_real_part(self):
        # the integral route shifts a to Re a >= 1 with one head term
        res = phi(-3.0, 2, -0.4)
        assert res.method == "integral"
        ref = mp_ref(-3.0, 2, -0.4)
        assert abs(res.value - ref) <= 1e-9 * max(1.0, abs(ref))

    @pytest.mark.parametrize("z, n, a, tol", [
        (complex("nan"), 2, 0.5, 1e-10),
        (0.5, 2, math.inf, 1e-10),
        (0.5, 2, math.nan, 1e-10),
        (0.5, 2, 0.5, math.nan),
        (0.5, 2, 0.5, 0.0),
    ], ids=["nan-z", "inf-a", "nan-a", "nan-tol", "zero-tol"])
    def test_refuses_what_it_cannot_evaluate(self, z, n, a, tol):
        with pytest.raises(DomainError, match="finite"):
            phi(z, n, a, tol)


def dispatcher_grid(seed=0):
    """(z, n, a, tol) over every region phi serves, drawn from one seed."""
    rng = random.Random(seed)

    def polar(r):
        return r * cmath.exp(1j * rng.choice((1, -1)) * rng.uniform(0.1, 3.0))

    def shift():
        return complex(rng.uniform(-1.4, 2.6), rng.uniform(-0.5, 0.5))

    tol = 1e-10
    points = []
    for _ in range(12):  # the disc
        points.append((polar(rng.uniform(0.05, 0.95)), rng.randint(1, 4),
                       shift(), tol))
    for x in (0.3, 0.8, -0.4, -0.9):  # the real segment
        points.append((complex(x), rng.randint(1, 4), shift(), tol))
    for _ in range(2):  # inside the band, both sides of |z| = 1
        delta = 10 ** rng.uniform(-7.5, -6.5)
        points.append((polar(1 - delta), rng.randint(3, 4), shift(), tol))
        points.append((polar(1 + delta), rng.randint(1, 4), shift(), tol))
    for r in (1 - 5e-13, 1.0):  # on the circle: both expansions stop at 10^4
        points.append((polar(r), 2, shift(), tol))
    # just outside the band: the series certifies, the inverse stops at its cap
    for _ in range(2):
        delta = 10 ** rng.uniform(-5.9, -5.1)
        points.append((polar(1 - delta), 4, shift(), tol))
        points.append((polar(1 + delta), rng.randint(1, 4), shift(), tol))
    for _ in range(8):  # the exterior
        points.append((polar(rng.uniform(1.2, 5.0)), rng.randint(1, 4),
                       shift(), tol))
    for re_a in (0.3, 1.7, -0.4, -1.3):  # negative real exterior
        points.append((complex(-rng.uniform(1.2, 4.0)), rng.randint(1, 4),
                       complex(re_a, rng.uniform(-0.5, 0.5)), tol))
    for off in (0, 0, 4e-9, 3e-9j):  # integer and near-integer shifts
        points.append((polar(rng.uniform(1.2, 5.0)), rng.randint(1, 4),
                       rng.randint(1, 4) + off, tol))
    for n in (2, 3):  # z = 1, and within 1e-12 of it
        for z in (1.0 + 0j, 1 - 5e-13, 1 + 1e-13j):
            points.append((z, n, complex(rng.uniform(0.2, 2.0)), tol))
    # the band next to z = 1, where the integral refuses and no route
    # certifies order 1 on the circle
    for z in (1 + 1e-8j, cmath.exp(-0.05j)):
        points.append((z, 1, shift(), tol))
    return points


def test_dispatcher_matches_the_route_its_tag_names():
    """phi returns, field for field, what ROUTES[name] returns for the route
    its method tag names, certified; a raising phi carries the result of
    the route's ToleranceNotMet."""
    seen = set()
    for z, n, a, tol in dispatcher_grid():
        try:
            res, raised = phi(z, n, a, tol), False
        except ToleranceNotMet as exc:
            res, raised = exc.result, True
        seen.add(("raised " if raised else "") + res.method)
        if raised:
            with pytest.raises(ToleranceNotMet) as info:
                ROUTES[res.method](z, n, a, tol)
            expected = info.value.result
        else:
            expected = ROUTES[res.method](z, n, a, tol)
            assert res.err_estimate <= tol * max(1.0, abs(res.value))
        assert res == expected, (z, n, a)
    assert {"series", "integral", "inverse", "raised inverse"} <= seen


class TestRouteContract:
    """A route returns a certified result, refuses with DomainError, or
    raises ToleranceNotMet carrying its own best result."""

    def test_integral_stall_carries_the_scaled_result(self):
        with pytest.raises(ToleranceNotMet) as info:
            phi_integral(0.9j, 6, 0.02 + 0.3j, 1e-15)
        res = info.value.result
        assert res.method == "integral"
        assert abs(res.value - mp_ref(0.9j, 6, 0.02 + 0.3j)) <= res.err_estimate

    def test_pv_stall_carries_the_route_result(self):
        # below the quadrature's rounding floor, about 1e-15 relative
        with pytest.raises(ToleranceNotMet) as info:
            phi_pv(0.5, 3, 0.5, 1e-16)
        assert info.value.result.method == "pv"

    # a point each route admits
    ROUTE_POINTS = {
        "series": (0.3 + 0.4j, 2, 0.7),
        "integral": (0.5j, 3, 0.4 + 0.2j),
        "pv": (0.5, 1, 0.5),
        "inverse": (2j, 2, 0.25),
    }

    @pytest.mark.parametrize("bad", [
        {"z": complex("nan")},
        {"a": math.inf},
        {"tol": 0.0},
        {"tol": math.nan},
        {"tol": -1.0},
    ], ids=["nan-z", "inf-a", "zero-tol", "nan-tol", "negative-tol"])
    @pytest.mark.parametrize("name", list(ROUTES))
    def test_route_refuses_what_phi_refuses(self, name, bad):
        z, n, a = self.ROUTE_POINTS[name]
        assert ROUTES[name](z, n, a, 1e-10).method == name
        point = {"z": z, "a": a, "tol": 1e-10, **bad}
        with pytest.raises(DomainError, match="finite"):
            ROUTES[name](point["z"], n, point["a"], point["tol"])

    def test_routes_are_the_four_representations(self):
        assert tuple(ROUTES) == ("series", "integral", "pv", "inverse")

    def test_integer_a_is_the_inverse_route(self):
        # the inverse expansion folds an integer shift itself; the former
        # integer-a route's name stays, for the same function
        res = phi_integer_a(2j, 2, 2)
        assert res == phi_inverse(2j, 2, 2)
        assert res.method == "inverse"

    def test_polylog_raises_with_a_result(self):
        with pytest.raises(ToleranceNotMet) as info:
            polylog(2, 1j)
        res = info.value.result
        assert isinstance(res, EvalResult)
        assert abs(res.value - complex(mp.polylog(2, 1j))) <= res.err_estimate


disc_z = st.builds(
    lambda r, t: r * cmath.exp(1j * t),
    st.floats(min_value=0.1, max_value=0.85),
    st.floats(min_value=-3.0, max_value=3.0),
)
shift_a = st.builds(
    complex,
    st.floats(min_value=0.1, max_value=0.9),
    st.floats(min_value=-0.4, max_value=0.4),
)


@given(disc_z, st.integers(min_value=1, max_value=4), shift_a)
@settings(max_examples=40, deadline=None)
def test_conjugation_symmetry(z, n, a):
    lhs = phi(z.conjugate(), n, a.conjugate(), 1e-11).value
    rhs = phi(z, n, a, 1e-11).value.conjugate()
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


@given(disc_z, st.integers(min_value=1, max_value=4), shift_a)
@settings(max_examples=30, deadline=None)
def test_shift_identity_series_route(z, n, a):
    left = phi(z, n, a + 1, 1e-12).value
    right = (phi(z, n, a, 1e-12).value - complex(a) ** (-n)) / z
    # the subtraction of a^-n and the division by z set the natural scale
    scale = max(1.0, abs(left), abs(complex(a) ** (-n) / z))
    assert abs(left - right) <= 1e-10 * scale


def test_conjugation_on_quadrature_routes():
    res = phi_pv(0.4 + 0.3j, 2, 0.3 - 0.1j, 1e-9).value
    res_c = phi_pv(0.4 - 0.3j, 2, 0.3 + 0.1j, 1e-9).value
    assert abs(res_c - res.conjugate()) < 1e-12
    res = phi_inverse(2 - 1j, 3, 0.4 + 0.2j, 1e-10).value
    res_c = phi_inverse(2 + 1j, 3, 0.4 - 0.2j, 1e-10).value
    assert abs(res_c - res.conjugate()) < 1e-12
