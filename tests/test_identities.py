"""Tests for the identity-residual suite."""

import cmath
import math

import pytest

from lerchphi import identities
from lerchphi.engine import phi, symmetry_transform
from lerchphi.errors import DomainError, ToleranceNotMet
from lerchphi.identities import (
    residual_hurwitz_reflection,
    residual_pde,
    residual_polygamma_reflection,
    residual_s_ladder,
    residual_shift,
    residual_symmetry,
)
from lerchphi.special_functions import hurwitz_zeta


class TestShift:
    def test_series_route(self):
        assert residual_shift(0.5, 2, 0.7) <= 1e-10

    def test_inverse_route_both_sides(self):
        assert residual_shift(2j, 3, 0.3) <= 1e-9

    def test_closed_form_chain(self):
        # Phi(0.5, 1, 2) = (Phi(0.5, 1, 1) - 1)/0.5 = 4 ln 2 - 2
        assert residual_shift(0.5, 1, 1.0) <= 1e-10
        got = phi(0.5, 1, 2.0, 1e-12).value
        assert abs(got - (4 * math.log(2) - 2)) < 1e-10

    def test_rejects_zero_z(self):
        with pytest.raises(DomainError):
            residual_shift(0.0, 2, 0.5)


class TestSLadder:
    def test_inside_disc(self):
        down, up = residual_s_ladder(0.4, 2, 0.9)
        assert down <= 1e-7
        assert up <= 1e-7

    def test_at_unit_shift(self):
        down, up = residual_s_ladder(0.4, 2, 1.0)
        assert up <= 1e-7

    def test_outside_disc(self):
        down, up = residual_s_ladder(3j, 3, 0.5)
        assert down <= 1e-6
        assert up <= 1e-6

    def test_down_needs_second_order(self):
        with pytest.raises(DomainError):
            residual_s_ladder(0.4, 1, 0.9)


class TestPDE:
    @pytest.mark.parametrize(
        "z,n,a,limit",
        [
            (0.5, 1, 1.0, 1e-7),
            (0.2 - 0.3j, 2, 0.6, 1e-7),
            (2j, 1, 0.25, 1e-6),
        ],
    )
    def test_examples(self, z, n, a, limit):
        assert residual_pde(z, n, a) <= limit


class TestSymmetry:
    @pytest.mark.parametrize(
        "z,n,a,limit",
        [
            (0.5j, 1, 0.3, 1e-9),
            (0.8 * cmath.exp(-2.5j), 4, 0.45, 1e-8),
            (0.9 * cmath.exp(0.4j), 2, 0.5 + 0.3j, 1e-8),
        ],
    )
    def test_examples(self, z, n, a, limit):
        assert residual_symmetry(z, n, a) <= limit

    def test_involution_invariance(self):
        # the residual at the partner point stays within twice the tolerance
        z, n, a = 0.6 * cmath.exp(1.8j), 3, 0.35 - 0.15j
        base = residual_symmetry(z, n, a)
        partner, _ = symmetry_transform(z, n, a)
        mirrored = residual_symmetry(partner.z, partner.n, partner.a)
        assert base <= 1e-9
        assert mirrored <= 2e-9


class TestHurwitzReflection:
    def test_quarter_point_value(self):
        # both sides equal 2 pi^2 ~ 19.7392088; independent summations
        assert residual_hurwitz_reflection(2, 0.25) <= 1e-10

    def test_symmetry_point(self):
        # left side cancels, right side vanishes by antisymmetry
        assert residual_hurwitz_reflection(3, 0.5) <= 1e-10

    def test_complex_shift(self):
        assert residual_hurwitz_reflection(2, 0.3 + 0.2j) <= 1e-9

    @pytest.mark.parametrize("n", [140, 150, 172, 200, 400])
    @pytest.mark.parametrize("a", [0.3 + 0.1j, 5.5 + 0.1j, 0.75 - 0.4j])
    def test_large_order(self, n, a):
        # the cot side is read as a Taylor coefficient, with no (n-1)! to
        # multiply and divide by: finite wherever zeta(n, a) is, far past
        # the order n = 171 where (n-1)! leaves the double range
        scale = abs(hurwitz_zeta(n, a)) + abs(hurwitz_zeta(n, 1.0 - a))
        assert residual_hurwitz_reflection(n, a) <= 1e-12 * scale


class TestPolygammaReflection:
    @pytest.mark.parametrize(
        "m,a", [(1, 0.5), (1, 0.25), (2, 0.3), (3, 0.7), (1, 0.4 + 0.2j)]
    )
    def test_examples(self, m, a):
        assert residual_polygamma_reflection(m, a) <= 1e-9


def test_a_stall_gives_its_carried_value(monkeypatch):
    # phi stalls with its own result: the residuals use the carried value,
    # so a record fails by its residual and no ToleranceNotMet escapes
    def stalling_phi(z, n, a, tol):
        res = phi(z, n, a, 1e-10)
        raise ToleranceNotMet("stalled", res._replace(err_estimate=math.inf))

    monkeypatch.setattr(identities, "phi", stalling_phi)
    assert residual_symmetry(0.5j, 1, 0.3) <= 1e-9
    assert residual_shift(2j, 3, 0.3) <= 1e-9
