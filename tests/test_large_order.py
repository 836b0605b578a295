"""Large orders n against an independent reference.

The reference is oracles.shifted_integral, a 30-digit mpmath quadrature of
the integral representation, which is the library's continuation for every
w off [1, oo).
"""

import builtins
import cmath
import math

import pytest

from lerchphi import cli, engine, identities
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


@pytest.mark.parametrize("route, z, n, a", [
    ("series", 0.5j, 2, -1e308 - 1e308j),
    ("series", 0.7604771335719971 + 0.00018442177805493904j, 400,
     -1e308 + 175.24754974369364j),
    ("inverse", 5j, 2, 5e-324 + 1e308j),
    ("inverse", 6.25991740746675e-06 + 220.93698475755232j, 2,
     1.520715748111242e-05 - 1e308j),
    ("integral", -30.94150272996955 + 1.1293974940661285e-05j, 3,
     -1e308 + 414.7924094928766j),
    ("inverse", 16 * cmath.exp(0.9j * math.pi), 1,
     -255.724 + 0.3j),
], ids=["series-cap", "series-cap-n400", "inverse-expo", "inverse-phase",
        "integral-power", "inverse-modulus"])
def test_shift_at_the_edge_of_the_double_range(route, z, n, a):
    # the route leaked OverflowError (abs of |a|, of |b log w| or of a trig
    # term with finite parts, each beyond the double range),
    # ValueError (exp of an infinite phase) or
    # ZeroDivisionError (the integral's z^k); it and phi now raise
    # BeyondDoubleRange or DomainError, or certify
    for call in (engine.phi, engine.ROUTES[route]):
        try:
            res = call(z, n, a, TOL)
        except (BeyondDoubleRange, DomainError):
            continue
        assert res.err_estimate <= TOL * max(1.0, abs(res.value))


NEAR_CIRCLE = (1.0 - 1e-13) * cmath.exp(0.7j)


@pytest.mark.parametrize("route, z, n, a", [
    ("inverse", 6.719318283897684 + 0.007265274541275136j, 5,
     1e300 + 0.00012201326340746419j),
    ("pv", 0.5j, 2, -1e308 - 1e308j),
    ("inverse", NEAR_CIRCLE, 2, 1e300),
    ("inverse", NEAR_CIRCLE, 2, 1e300 + 0.1j),
], ids=["kernel-nan", "pv-exponent",
        "inverse-closed-tail", "inverse-kernel-power"])
def test_huge_shift_returns_zero_or_refuses(route, z, n, a):
    # |Phi| is below the double range at each point.  (c + i)^n of the
    # kernel's terms came out NaN (** squares the base), pv's exponent
    # (a - 1) log(1/z) and inverse's w^-N (|w| < 1) leaked OverflowError;
    # phi now certifies 0 and the route certifies or refuses
    res = engine.phi(z, n, a, TOL)
    assert res.value == 0 and res.err_estimate <= TOL
    try:
        res = engine.ROUTES[route](z, n, a, TOL)
    except DomainError:
        return
    assert res.value == 0 and res.err_estimate <= TOL


def test_long_folded_head_is_refused():
    # next to a large integer N where rho^N >= tol/2 the folded head ran
    # N - 1 terms: 2e6 of them before the integral certified the first
    # point, and the second, |w| < 1, never returned
    z = (1 + 2e-6) * cmath.exp(0.7j)
    with pytest.raises(DomainError, match="head of at most 300000"):
        engine.phi_inverse(z, 2, 2e6, TOL)
    res = engine.phi(z, 2, 2e6, TOL)
    assert res.method == "integral"
    with pytest.raises(DomainError, match="head of at most 300000"):
        engine.phi_inverse(NEAR_CIRCLE, 2, 7e14, TOL)


def test_symmetry_side_beyond_the_range_of_its_power():
    # |z^-a| = e^800 at a = 0.5 + 400i, where cot(pi a) - sgn(phi) i is
    # e^-2513 small: the product, formed as one exponential, is 0; at
    # 0.5 - 400i z^-a is e^-800 small
    z = 0.5 * cmath.exp(2j)
    for a in (0.5 + 400j, 0.5 - 400j):
        _, trig = engine.symmetry_transform(z, 2, a)
        assert cmath.isfinite(trig)
        assert math.isfinite(identities.residual_symmetry(z, 2, a))


def test_compare_skips_a_route_whose_exponent_overflows(capsys):
    # pv's exponent (a - 1) log(1/z) is beyond the double range; compare
    # printed the OverflowError's traceback
    assert cli.main(["compare", "--z", "0,0.5", "--n", "2",
                     "--a=-1e308,-1e308"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("series ") and "pv" not in out
