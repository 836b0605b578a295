"""Large orders n against an independent reference.

The reference is oracles.shifted_integral, a 30-digit mpmath quadrature of
the integral representation, which is the library's continuation for every
w off [1, oo).
"""

import builtins
import cmath
import math

import pytest

from lerchphi import cli, engine
from lerchphi.errors import (
    BeyondDoubleRange,
    DomainError,
    LerchError,
    ToleranceNotMet,
)
from oracles import shifted_integral as reference

TOL = 1e-10
ORDERS = (16, 32, 64, 120, 171, 200)
ARGUMENTS = (3j, 5 * cmath.exp(0.7j), -4 + 1j, 1.3 * cmath.exp(2.5j))
SHIFTS = (0.5, 0.3 + 0.2j, -1.5 + 0.5j)


def _assert_close(value, ref, bound=math.inf):
    error = abs(value - ref)
    assert error <= TOL * max(1.0, abs(ref)), (value, ref)
    assert error <= bound, (error, bound)


POINTS = [(w, n, b) for n in ORDERS for w in ARGUMENTS for b in SHIFTS]
# the negative real axis, where the integral route refuses n >= 172
POINTS.append((-3.0 + 0j, 200, 0.5))


@pytest.mark.parametrize("w, n, b", POINTS)
def test_phi_at_large_order(w, n, b):
    res = engine.phi(w, n, b, TOL)
    _assert_close(res.value, reference(w, n, b), res.err_estimate)


@pytest.mark.parametrize("n", (108, 120, 150, 151, 160, 171))
def test_integral_on_the_negative_real_axis_at_large_order(n):
    # t^(n-1) alone overflows at the first nodes from n = 108 on, where
    # t^(n-1) e^(-b t) does not; the shift to b = a + 1 keeps the sum,
    # (n-1)! Phi(z, n, b), within the double range up to n = 171
    res = engine.phi(-3.0 + 0j, n, 0.5, TOL)
    assert res.method == "integral"
    _assert_close(res.value, reference(-3.0 + 0j, n, 0.5), res.err_estimate)


def _stalling(route):
    """route, but raising ToleranceNotMet with the result it returns."""
    def stall(z, n, a, tol):
        raise ToleranceNotMet("stalled", route(z, n, a, tol))
    return stall


@pytest.mark.parametrize("n", (151, 160, 171))
def test_a_stall_passes_the_point_on(n, monkeypatch):
    # a route that stalls passes the point on to the next of its row; if
    # none certifies, the first stall is raised
    monkeypatch.setattr(engine, "phi_integral",
                        _stalling(engine.phi_integral))
    res = engine.phi(-3.0 + 0j, n, 0.5, TOL)
    assert res.method == "inverse"
    _assert_close(res.value, reference(-3.0 + 0j, n, 0.5), res.err_estimate)

    monkeypatch.setattr(engine, "phi_inverse", _stalling(engine.phi_inverse))
    with pytest.raises(ToleranceNotMet) as info:
        engine.phi(-3.0 + 0j, n, 0.5, TOL)
    assert info.value.result.method == "integral"


@pytest.mark.parametrize("n", (120, 200, 700))
@pytest.mark.parametrize("N", (2, 3))
def test_integer_shift_at_large_order(N, n):
    # the estimate is not checked: at large n it can miss by the same
    # cancellation as the inverse route's near-integer shifts
    for w in ARGUMENTS:
        res = engine.phi_integer_a(w, n, N, TOL)
        _assert_close(res.value, reference(w, n, complex(N)))


def test_quadrature_routes_refuse_beyond_the_double_factorial():
    for route in (engine.phi_integral, engine.phi_pv):
        with pytest.raises(DomainError, match="n <= 171"):
            route(0.5j, 172, 0.5, TOL)


@pytest.mark.parametrize("call", [
    lambda: engine.symmetry_transform(0.5j, 200, 0.3),
    lambda: engine.phi_pv(0.5 * cmath.exp(0.7j), 171, 0.75, TOL),
], ids=["symmetry_transform", "pv"])
def test_trig_term_at_large_order_returns_or_refuses(call):
    try:
        call()
    except LerchError:
        pass


@pytest.mark.parametrize("n", (50, 200))
def test_value_beyond_the_double_range_raises(n, capsys):
    # |Phi(3i, 50, 2e-8)| is about 1e385; the inverse route's cot
    # coefficients overflow, and phi must not pass the point on to the
    # integer-shift route's refusal
    with pytest.raises(BeyondDoubleRange, match="double range"):
        engine.phi(3j, n, 2e-8, TOL)
    assert cli.main(["eval", "--z", "0,3", "--n", str(n),
                     "--a", "2e-8,0"]) == 2
    assert "double range" in capsys.readouterr().err


@pytest.mark.parametrize("a, n", [(0.01, 200), (0.01 + 0.001j, 200),
                                  (0.002, 120)])
def test_series_term_beyond_the_double_range_raises(a, n):
    # |Phi(0.5, n, a)| is about |a|^-n, beyond the double range; the first
    # term's denominator a^n underflows to 0, and a bare ZeroDivisionError
    # or ValueError escaped
    with pytest.raises(BeyondDoubleRange, match="double range"):
        engine.phi(0.5, n, a, TOL)


def test_pv_beyond_the_double_range_raises():
    # |Phi(0.5i, 60, 1e-6)| is about 1e360: the cot coefficients of the trig
    # term overflow, where the route returned NaN tagged plain pv
    with pytest.raises(BeyondDoubleRange, match="double range"):
        engine.phi_pv(0.5j, 60, 1e-6, TOL)


def test_inverse_checks_finiteness_before_abs(monkeypatch):
    # abs() of a complex with a NaN part raises OverflowError when an
    # earlier failed math call left errno at ERANGE; this abs does so always
    def leaky_abs(x):
        if not cmath.isfinite(x):
            raise OverflowError("absolute value too large")
        return builtins.abs(x)

    monkeypatch.setattr(engine, "cot_pi_taylor", lambda m, a, shift:
                        [complex(math.nan, math.nan)] * (m + 1))
    monkeypatch.setattr(engine, "abs", leaky_abs, raising=False)
    with pytest.raises(BeyondDoubleRange, match="double range"):
        engine.phi_inverse(3j, 4, 0.3, TOL)
