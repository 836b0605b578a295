"""Evaluation routes for Phi(z, n, a) with positive integer order n.

Five routes cover the z-plane: the defining power series inside the unit
disc, the exponential-kernel integral for Re a > 0, the principal-value ray
representation inside the cut disc, the inverse-argument expansion outside
the circle, and the Laurent finite-part route for integer shifts.  All
powers use the principal logarithm, arg in (-pi, pi], which is what makes
the sign of phi = arg(-ln z) meaningful.  The dispatcher phi tries the
routes of the row of _ROUTE_TABLE that classify(z) picks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from enum import Enum
from math import comb, factorial
from typing import NamedTuple

from .errors import (
    DomainError,
    NearIntegerShift,
    PoleAtInteger,
    ToleranceNotMet,
)
from .quadrature import PoleSpec, RayIntegrand, integrate_ray, pv_integrate_ray
from .result import EvalResult
from .special_functions import (
    _cot_pi_laurent,
    _hurwitz_zeta_sum,
    _polylog_sum,
    _power_sum,
    cot_pi_derivatives,
    dist_to_nearest_integer,
    require_off_nonpositive_poles,
)

__all__ = [
    "LerchQuery",
    "Region",
    "classify",
    "phi",
    "phi_series",
    "phi_integral",
    "phi_pv",
    "phi_inverse",
    "phi_integer_a",
    "ROUTES",
    "degrade",
    "symmetry_transform",
    "extended_polylog",
]

# Dispatcher band around |z| = 1 inside which neither the plain series nor
# the geometric tail bound of the inverse expansion converges comfortably.
_CIRCLE_BAND = 1e-6

# Relative tolerance for positive-real-axis membership (sgn(phi) = 0 there).
_AXIS_RTOL = 1e-14

# Shifts within this distance of a positive integer are rerouted to the
# integer-shift (Laurent finite part) route.
_INTEGER_SHIFT_GUARD = 1e-8


class Region(Enum):
    """Where z lies, as phi's route table (_ROUTE_TABLE) sees it."""

    INSIDE_DISC = "InsideDiscD"  # |z| <= 1 - 1e-6, z = 0 included
    BAND_INSIDE = "BandInside"  # 1 - 1e-6 < |z| < 1 off the positive axis
    BAND_OUTSIDE = "BandOutside"  # 1 <= |z| < 1 + 1e-6 off the positive axis
    ONE = "One"  # within 1e-12 of z = 1
    NEAR_ONE = "NearOne"  # the positive axis inside the band, not ONE
    EXTERIOR = "Exterior"  # |z| >= 1 + 1e-6 off the real line
    EXTERIOR_NEGATIVE_REAL = "ExteriorNegativeReal"
    CUT = "Cut"  # the positive axis at |z| >= 1 + 1e-6


@dataclass(frozen=True)
class LerchQuery:
    z: complex
    n: int
    a: complex

    def __post_init__(self):
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(self, "a", complex(self.a))
        _validate_order(self.n)


def _validate_order(n) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"order must be a positive integer, got {n!r}")


def _validate(z, n, a, tol):
    """complex(z), complex(a), once n is a positive integer, z and a are
    finite and 0 < tol < inf: the entry check of phi and every route."""
    z, a = complex(z), complex(a)
    _validate_order(n)
    if not (cmath.isfinite(z) and cmath.isfinite(a) and 0.0 < tol < math.inf):
        raise DomainError(
            f"phi needs finite z and a and a finite tol > 0, got z = {z}, "
            f"a = {a}, tol = {tol}"
        )
    return z, a


def _on_positive_real_axis(z: complex) -> bool:
    return z.real > 0 and abs(z.imag) <= _AXIS_RTOL * abs(z)

def _is_real(z: complex) -> bool:
    return abs(z.imag) <= _AXIS_RTOL * abs(z)


def _near_positive_integer(a: complex):
    """Rounded positive integer if a lies within the reroute guard, else None."""
    k = round(a.real)
    if k >= 1 and abs(a - k) < _INTEGER_SHIFT_GUARD:
        return k
    return None


def _exterior_log(w: complex, route: str):
    """(log w, sgn(phi)) for the routes in powers of 1/w."""
    if abs(w) <= 1.0 - 1e-12 or _on_positive_real_axis(w):
        raise DomainError(
            f"{route} needs |w| > 1 off the positive real axis, where "
            f"sgn(phi) = 0; got w = {w}"
        )
    log_w = cmath.log(w)
    return log_w, 1 if cmath.phase(log_w) > 0 else -1


def _cpow(base: complex, expo: complex) -> complex:
    """Principal-branch power exp(expo * Log base)."""
    return cmath.exp(expo * cmath.log(base))


def classify(z: complex) -> Region:
    """The region of z; phi serves it with the routes of its table row."""
    r = abs(z)
    if r <= 1.0 - _CIRCLE_BAND:
        return Region.INSIDE_DISC
    if r >= 1.0 + _CIRCLE_BAND:
        if _is_real(z):
            return Region.CUT if z.real > 0 else Region.EXTERIOR_NEGATIVE_REAL
        return Region.EXTERIOR
    if abs(z - 1.0) <= 1e-12:
        return Region.ONE
    if _on_positive_real_axis(z):
        return Region.NEAR_ONE
    return Region.BAND_INSIDE if r < 1.0 else Region.BAND_OUTSIDE


# ---------------------------------------------------------------------------
# Route 1: defining series, |z| < 1 (or |z| = 1 with n >= 2)

def phi_series(z: complex, n: int, a: complex, tol: float = 1e-10) -> EvalResult:
    """Compensated summation of sum_m z^m / (a + m)^n with a certified tail."""
    z, a = _validate(z, n, a, tol)
    require_off_nonpositive_poles(a)
    r = abs(z)
    if r > 1.0 + 1e-12:
        raise DomainError(f"series route needs |z| <= 1, got |z| = {r:.6g}")
    on_circle = r > 1.0 - 1e-12
    if on_circle and n == 1:
        raise DomainError("series on |z| = 1 needs n >= 2")
    if on_circle and abs(z - 1.0) <= 1e-12:
        value, err, terms = _hurwitz_zeta_sum(n, a)
        # pick up the (tiny) difference between z and 1 exactly on the band
        err += abs(z - 1.0) * 40.0
        return EvalResult(value, err, "series", terms)

    min_m = int(2 * abs(a)) + 4
    cap = max(10_000 if on_circle else 300_000, min_m + 8)
    value, bound, m = _power_sum(z, a, 1, n, 0, min_m, cap, tol, tol)
    result = EvalResult(value, bound, "series", m)
    if bound > tol * max(1.0, abs(value)):
        raise ToleranceNotMet(
            f"series tail bound {bound:.3g} above tolerance after {m} terms",
            result,
        )
    return result


# ---------------------------------------------------------------------------
# Route 2: exponential-kernel integral, Re a > 0, z off [1, oo)

def phi_integral(z: complex, n: int, a: complex, tol: float = 1e-10) -> EvalResult:
    """(1/(n-1)!) * integral over t in [0, oo) of t^(n-1) e^(-a t) / (1 - z e^(-t))."""
    z, a = _validate(z, n, a, tol)
    if a.real <= 0:
        raise DomainError(f"integral route needs Re a > 0, got {a}")
    if _is_real(z) and z.real >= 1.0 - 1e-14:
        raise DomainError("integral route needs z off the cut [1, oo)")

    def integrand(t: complex) -> complex:
        return t ** (n - 1) * cmath.exp(-a * t) / (1.0 - z * cmath.exp(-t))

    ray = RayIntegrand(integrand, 0.0, decay_rate=a.real, growth_degree=n - 1)
    try:
        res, stall = integrate_ray(ray, tol), None
    except ToleranceNotMet as exc:
        res, stall = exc.result, exc
    g = float(factorial(n - 1))
    result = EvalResult(res.value / g, res.err_estimate / g, "integral",
                        res.terms_or_nodes)
    if stall is not None:
        raise ToleranceNotMet(f"integral route: {stall}", result) from stall
    return result


# ---------------------------------------------------------------------------
# Route 3: principal-value ray representation inside the cut disc

def _leibniz_cot_sum(n: int, log_factor: complex, a: complex,
                     extra0: complex = 0j) -> complex:
    """sum_j C(n-1, j) log_factor^(n-1-j) * d^j/da^j cot(pi a), with an
    optional constant added to the j = 0 derivative (for the -sgn(phi) i
    terms, whose higher derivatives vanish)."""
    derivs = cot_pi_derivatives(n - 1, a)
    derivs[0] += extra0
    total = 0j
    for j, deriv in enumerate(derivs):
        total += comb(n - 1, j) * log_factor ** (n - 1 - j) * deriv
    return total


def phi_pv(z: complex, n: int, a: complex, tol: float = 1e-10) -> EvalResult:
    """Principal-value representation: (-1)^(n-1)/(n-1)! * {PV integral along
    arg t = phi with pole at -ln z, plus pi * d^(n-1)/da^(n-1) (z^-a cot(pi a))}."""
    z, a = _validate(z, n, a, tol)
    r = abs(z)
    if not 0.0 < r < 1.0 or (_is_real(z) and z.real < 0):
        raise DomainError(
            "principal-value route needs z in the open unit disc cut along "
            f"the negative real axis, got z = {z}"
        )
    require_off_nonpositive_poles(a)
    if dist_to_nearest_integer(a) <= 1e-12:
        raise PoleAtInteger(f"trigonometric term has a pole at integer a = {a}")
    t0 = -cmath.log(z)
    phi_angle = cmath.phase(t0)
    if (a - 1).real >= 0:
        raise DomainError(f"needs Re(a - 1) < 0, got a = {a}")
    decay = -((a - 1) * cmath.exp(1j * phi_angle)).real
    if decay <= 0:
        raise DomainError(
            f"needs Re[(a - 1) e^(i phi)] < 0; violated at a = {a}, phi = "
            f"{phi_angle:.6g}"
        )

    def integrand(t: complex) -> complex:
        # e^(a t) / (z e^t - 1) rewritten overflow-free as
        # e^((a-1) t) / (z - e^(-t))
        return t ** (n - 1) * cmath.exp((a - 1.0) * t) / (z - cmath.exp(-t))

    ray = RayIntegrand(integrand, phi_angle, decay_rate=decay, growth_degree=n - 1)
    try:
        pv, stall = pv_integrate_ray(ray, PoleSpec(t0), tol), None
    except ToleranceNotMet as exc:
        pv, stall = exc.result, exc
    trig = math.pi * _cpow(z, -a) * _leibniz_cot_sum(n, t0, a)
    g = float(factorial(n - 1))
    sign = (-1.0) ** (n - 1)
    value = sign * (pv.value + trig) / g
    err = pv.err_estimate / g + 5e-16 * (n + 1) * abs(trig) / g
    result = EvalResult(value, err, "pv", pv.terms_or_nodes)
    if stall is not None:
        raise ToleranceNotMet(f"principal-value route: {stall}", result) from stall
    return result


# ---------------------------------------------------------------------------
# Route 4: inverse-argument expansion, |w| > 1 off the positive real axis

def phi_inverse(w: complex, n: int, b: complex, tol: float = 1e-10) -> EvalResult:
    """Convergent expansion of Phi(w, n, b) in powers of 1/w:

    pi/(n-1)! [d^(n-1)/dt^(n-1) (w^t (sgn(phi) i - cot(pi t)))]_(t = -b)
    - sum_{m>=1} w^(-m) / (b - m)^n.
    """
    w, b = _validate(w, n, b, tol)
    log_w, sgn = _exterior_log(w, "inverse-argument expansion")
    k = _near_positive_integer(b)
    if k is not None:
        raise NearIntegerShift(
            f"shift {b} within {_INTEGER_SHIFT_GUARD:g} of positive integer "
            f"{k}; use the integer-shift route"
        )
    require_off_nonpositive_poles(b)

    # Leibniz expansion of d^(n-1)/dt^(n-1) (w^t (sgn i - cot(pi t))) at t = -b
    total = -_leibniz_cot_sum(n, log_w, -b, extra0=-sgn * 1j)
    trig = math.pi / factorial(n - 1) * _cpow(w, -b) * total

    winv = 1.0 / w
    abs_b = abs(b)
    # effectively on the circle: fixed-term fallback with an explicit
    # remainder bound, reported honestly (no useful convergence rate there)
    cap = max(10_000 if abs(winv) > 1.0 - 1e-5 else 300_000, int(abs_b) + 16)
    # absolute target: the trig term may cancel most of the sum
    tail, bound, j = _power_sum(winv, b, -1, n, 1, int(abs_b) + 3, cap + 1,
                                0.5 * tol, 0.0)
    m = j - 1
    value = trig - tail
    err = bound + 5e-16 * (n + 1) * abs(trig)
    result = EvalResult(value, err, "inverse", m)
    if bound > tol * max(1.0, abs(value)):
        raise ToleranceNotMet(
            f"inverse-expansion tail bound {bound:.3g} above tolerance after "
            f"{m} terms",
            result,
        )
    return result


# ---------------------------------------------------------------------------
# Route 5: integer shift b = N via the Laurent finite part

def _integer_shift_limit(n: int, log_w: complex) -> complex:
    """lim_{eps -> 0} { pi/(n-1)! d^(n-1)/d eps^(n-1) (-w^eps cot(pi eps))
    - (-1)^n / eps^n }: the eps^(n-1) coefficient of w^eps cot(pi eps) times
    -pi, i.e. -pi sum_{k=0..n} L^k/k! c_(n-1-k) with L = log w and c_j the
    Laurent coefficients of cot(pi eps).  The pole term cancels exactly."""
    c = _cot_pi_laurent(n - 1)  # c[j + 1] = c_j
    total = 0j
    power = 1.0 + 0j  # L^k / k!
    for k in range(n + 1):
        total += power * c[n - k]
        power = power * log_w / (k + 1)
    return -math.pi * total


def phi_integer_a(w: complex, n: int, a: complex, tol: float = 1e-10) -> EvalResult:
    """Phi(w, n, a) for |w| > 1 off [0, oo) and a within 1e-8 of a positive
    integer N: the finite-part route at N.  For a != N the substitution slack
    4 (n + 1) |a - N| (1 + |value|) is added to the error estimate after the
    tolerance check."""
    w, a = _validate(w, n, a, tol)
    N = _near_positive_integer(a)
    if N is None:
        raise DomainError(
            f"integer-shift route needs a within {_INTEGER_SHIFT_GUARD:g} of "
            f"a positive integer, got a = {a}"
        )
    log_w, sgn = _exterior_log(w, "integer-shift route")
    g = factorial(n - 1)
    finite_part = _integer_shift_limit(n, log_w)
    li_val, li_err, li_terms = _polylog_sum(n, 1.0 / w, 0.25 * tol)
    # w^-N sum_{k=1}^{N-1} w^k / k^n, summed as sum_{j=1}^{N-1} w^-j / (N-j)^n
    # so that no power of w overflows for large N
    shift = 0j
    if N > 1:
        shift, _, _ = _power_sum(1.0 / w, float(N), -1, n, 1, N, N, 0.0, 0.0)
    inner = (
        finite_part
        + sgn * 1j * math.pi * log_w ** (n - 1) / g
        - (-1.0) ** n * li_val
    )
    w_neg_n = w ** (-N)
    value = w_neg_n * inner - shift
    err = (abs(w_neg_n) * (li_err + 2e-15 * (abs(inner) + 1.0))
           + 2e-15 * abs(shift))
    terms = li_terms + max(0, N - 1)
    if err > tol * max(1.0, abs(value)):
        raise ToleranceNotMet(
            f"integer-shift route error {err:.3g} above tolerance",
            EvalResult(value, err, "integer-a", terms),
        )
    if a != N:
        err += abs(a - N) * (n + 1) * (1.0 + abs(value)) * 4.0
    return EvalResult(value, err, "integer-a", terms)


# ---------------------------------------------------------------------------
# Symmetry relation and extended polylogarithm

def symmetry_transform(z: complex, n: int, a: complex):
    """Partner query (1/z, n, 1-a) and the trigonometric right side of

    Phi(z, n, a) + (-1)^n z^-1 Phi(1/z, n, 1-a) =
        pi (-1)^(n-1)/(n-1)! d^(n-1)/da^(n-1) (z^-a (cot(pi a) - sgn(phi) i)).

    Valid in the cut unit disc off (0, 1) and, by continuation, for |z| > 1
    off (1, oo); negative real z uses the principal branch (arg z = pi).
    """
    z, a = complex(z), complex(a)
    _validate_order(n)
    if z == 0 or _on_positive_real_axis(z):
        raise DomainError(
            "symmetry relation undefined for z on [0, oo): sgn(phi) = 0 "
            "(excluded segments (0,1), {1}, (1, oo))"
        )
    if dist_to_nearest_integer(a) <= 1e-12:
        raise PoleAtInteger(f"symmetry relation has poles at integer a = {a}")
    t0 = -cmath.log(z)
    sgn = 1 if cmath.phase(t0) > 0 else -1
    trig = (
        math.pi
        * (-1.0) ** (n - 1)
        / factorial(n - 1)
        * _cpow(z, -a)
        * _leibniz_cot_sum(n, t0, a, extra0=-sgn * 1j)
    )
    return LerchQuery(1.0 / z, n, 1.0 - a), trig


def extended_polylog(z: complex, n: int, a: complex, tol: float = 1e-10) -> EvalResult:
    """Extended polylogarithm Li_n(z, a) = z * Phi(z, n, a)."""
    z = complex(z)
    if z == 0:
        _validate_order(n)
        return EvalResult(0j, 0.0, "extended-polylog", 0)
    res = phi(z, n, a, tol)
    return EvalResult(z * res.value, abs(z) * res.err_estimate, res.method,
                      res.terms_or_nodes)


# ---------------------------------------------------------------------------
# Dispatcher

class _Row(NamedTuple):
    """phi's row for a region: the ROUTES names it tries in order (a route
    that refuses with DomainError passes the point on), the DomainError text
    when all refuse (else the last refusal stands), whether a result goes
    through degrade, and the point the routes get if not z."""

    routes: tuple
    refusal: str = ""
    degraded: bool = False
    at: complex | None = None


_ROUTE_TABLE = {
    Region.INSIDE_DISC: _Row(("series",)),
    Region.BAND_INSIDE: _Row(("series",), degraded=True),
    Region.BAND_OUTSIDE: _Row(("inverse", "integer-a"), degraded=True),
    Region.ONE: _Row(("series",), "singular stratum z=1, n=1", at=1.0 + 0j),
    Region.NEAR_ONE: _Row(
        (), f"z = {{z}} within {_CIRCLE_BAND:g} of the singular point z = 1"),
    Region.EXTERIOR: _Row(("inverse", "integer-a")),
    Region.EXTERIOR_NEGATIVE_REAL: _Row(("integral", "inverse", "integer-a")),
    Region.CUT: _Row((), "z = {z} on the singular cut (1, oo); no implemented "
                         "representation applies"),
}


def phi(z: complex, n: int, a: complex, tol: float = 1e-10) -> EvalResult:
    """Evaluate Phi(z, n, a) by the routes of the region of z.

    Near the unit circle (within 1e-6) convergence degrades; results whose
    tolerance could not be certified are returned with an honest error
    estimate and a method tag ending in "(degraded)".  Non-finite z or a,
    and a tol that is not finite and positive, raise DomainError.
    """
    z, a = _validate(z, n, a, tol)
    require_off_nonpositive_poles(a)
    row = _ROUTE_TABLE[classify(z)]
    point = z if row.at is None else row.at
    refused = None
    for name in row.routes:
        try:
            if row.degraded:
                return degrade(ROUTES[name], point, n, a, tol)
            return ROUTES[name](point, n, a, tol)
        except DomainError as exc:
            refused = exc
    if row.refusal:
        raise DomainError(row.refusal.format(z=z))
    raise refused


def degrade(route, z: complex, n: int, a: complex, tol: float) -> EvalResult:
    """route(z, n, a, tol); if it raises ToleranceNotMet, the result that
    exception carries, with its method tagged "(degraded)"."""
    try:
        return route(z, n, a, tol)
    except ToleranceNotMet as exc:
        return replace(exc.result, method=exc.result.method + " (degraded)")


# Every route by name, in the order compare reports them.  Each entry looks
# its function up when called, so a replaced module attribute takes effect.
ROUTES = {
    "series": lambda z, n, a, tol: phi_series(z, n, a, tol),
    "integral": lambda z, n, a, tol: phi_integral(z, n, a, tol),
    "pv": lambda z, n, a, tol: phi_pv(z, n, a, tol),
    "inverse": lambda z, n, a, tol: phi_inverse(z, n, a, tol),
    "integer-a": lambda z, n, a, tol: phi_integer_a(z, n, a, tol),
}
