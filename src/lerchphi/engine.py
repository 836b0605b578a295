"""Evaluation routes for Phi(z, n, a) with positive integer order n.

Four routes cover the z-plane: the defining power series inside the unit
disc, the exponential-kernel integral, shifted to Re a >= 1 by
Phi(z, n, a) = sum_{m<k} z^m/(a+m)^n + z^k Phi(z, n, a+k), wherever its pole
log z keeps clear of the path [0, oo), the principal-value ray
representation inside the cut disc, and the inverse-argument expansion
outside the circle, which folds its cot pole next to an integer shift.  All
powers use the principal logarithm, arg in (-pi, pi], which is what makes
the sign of phi = arg(-ln z) meaningful.  The dispatcher phi tries the
routes of the row of _ROUTE_TABLE that classify(z) picks, and returns a
certified value or raises.

The trigonometric side of the symmetry relation, in pv, inverse and
symmetry_transform, is one quantity, a Taylor coefficient of e^(eps L)
(cot(pi (a + eps)) + const), taken by _cot_term and scaled by z^-a, with its
rounding, by _trig_side; no trigonometric term forms (n-1)!.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from math import factorial, fabs
from typing import NamedTuple

from .errors import (
    BeyondDoubleRange,
    DomainError,
    ToleranceNotMet,
)
from .quadrature import RayIntegrand, integrate_ray, pv_integrate_ray
from .result import EvalResult, certify
from .special_functions import (
    MAX_TERMS,
    _cot_pi_laurent,
    _hurwitz_zeta_sum,
    _polylog_sum,
    _power_sum,
    cot_pi_taylor,
    require_off_nonpositive_poles,
    require_order,
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

# Within this distance of a positive integer N the inverse expansion folds
# its cot pole into the tail term m = N; beyond it their cancellation,
# about |b - N|^-n, no longer stalls the plain sum at tol 1e-10.
_FOLD_RADIUS = 0.25

# The integral route refuses z whose pole log z lies nearer than this to its
# path [0, oo): next to the path a DE level sequence can contract early and
# certify an estimate far below its error.
_POLE_CLEARANCE = 0.1


class Region(Enum):
    """Where z lies, as phi's route table (_ROUTE_TABLE) sees it."""

    INSIDE_DISC = "InsideDiscD"  # |z| <= 1 - 1e-6, z = 0 included
    BAND = "Band"  # 1 - 1e-6 < |z| < 1 + 1e-6 off the positive axis
    ONE = "One"  # within 1e-12 of z = 1
    NEAR_ONE = "NearOne"  # the positive axis inside the band, not ONE
    EXTERIOR = "Exterior"  # |z| >= 1 + 1e-6 off the real line
    EXTERIOR_NEGATIVE_REAL = "ExteriorNegativeReal"
    CUT = "Cut"  # the positive axis at |z| >= 1 + 1e-6
    # Enum's own __hash__ hashes the name in Python on every table lookup;
    # the members are singletons, so identity hashing, in C, is the same
    __hash__ = object.__hash__


class LerchQuery(NamedTuple("LerchQuery", [("z", complex), ("n", int),
                                           ("a", complex)])):
    """The point (z, n, a) of Phi: z and a complex, n a positive integer."""

    __slots__ = ()

    def __new__(cls, z, n, a):
        require_order(n)
        return super().__new__(cls, complex(z), n, complex(a))


def _validate(z, n, a, tol):
    """complex(z), complex(a), once n is a positive integer, z and a are
    finite, 0 < tol < inf and a is off the poles 0, -1, -2, ...: the entry
    check of phi and every route."""
    z, a = complex(z), complex(a)
    require_order(n)
    if not (cmath.isfinite(z) and cmath.isfinite(a) and 0.0 < tol < math.inf):
        raise DomainError(
            f"phi needs finite z and a and a finite tol > 0, got z = {z}, "
            f"a = {a}, tol = {tol}"
        )
    require_off_nonpositive_poles(a)
    return z, a


def _on_positive_real_axis(z: complex) -> bool:
    return z.real > 0 and abs(z.imag) <= _AXIS_RTOL * abs(z)

def _is_real(z: complex) -> bool:
    return abs(z.imag) <= _AXIS_RTOL * abs(z)


def _quadrature_scale(n: int, route: str) -> float:
    """float((n-1)!), which the quadrature routes divide by; DomainError for
    n >= 172, where it is beyond the double range."""
    if n > 171:
        raise DomainError(
            f"{route} needs n <= 171, where (n-1)! is within the double "
            f"range; got n = {n}"
        )
    return float(factorial(n - 1))


def _cot_term(n: int, L: complex, coeffs):
    """(sum_k L^k/k! coeffs[n-1-k], the sum of the terms' |Re| + |Im|, which
    sets its rounding): the eps^(n-1) coefficient of e^(eps L) sum_j
    coeffs[j] eps^j.  With coeffs = cot_pi_taylor(n - 1, a, c) it is
    e^(-a L)/(n-1)! d^(n-1)/da^(n-1) [e^(a L) (cot(pi a) + c)], the
    trigonometric side of the symmetry relation without pi e^(a L)."""
    total, size = 0j, 0.0
    power = 1.0 + 0j  # L^k / k!
    for k in range(n):
        term = power * coeffs[n - 1 - k]
        total += term
        size += fabs(term.real) + fabs(term.imag)
        power = power * L / (k + 1)
    return total, size


def _trig_side(cot, size, scale, n, expo):
    """(scale cot e^expo, its rounding) for (cot, size) from _cot_term, as one
    exponential: e^expo alone may be beyond the double range where the
    product is not.  0 below e^-746, whatever its phase; (inf, inf) where it,
    its modulus or its phase is beyond the range.  The rounding counts cot's
    cancellation, size/|cot|, and the exponent's parts (|expo| as 2|expo/2|);
    it is formed only for a finite value: abs() of a NaN part can raise."""
    side = scale * cot
    log_side = cmath.log(side) if side else 0j
    arg = log_side + expo
    if not side or arg.real < -746.0:
        return 0j, 0.0
    try:
        value = cmath.exp(arg)
        if not cmath.isfinite(value):
            return value, math.inf
        return value, 5e-16 * ((n + 1) * size / abs(cot) + abs(log_side)
                               + 2.0 * abs(0.5 * expo)) * abs(value)
    except (OverflowError, ValueError):
        return complex(math.inf), math.inf


def _fold_side(n: int, L: complex, eps: complex, sgn: int):
    """(S, a bound on the sum of its terms' moduli): S, the inverse
    expansion's trigonometric side at b = N + eps, N >= 1, plus its tail
    term m = N, over w^-b, is pi _cot_term(n, L, r) - L^n phi_n(eps L).
    The pole 1/(pi x) of cot(pi x) and the tail term sum to -w^-b L^n
    phi_n(eps L), phi_n(x) = sum_j x^j/(j+n)!, the phi-functions of
    exponential integrators; r_i are the Taylor coefficients at -eps of
    sgn i - R, R(x) = cot(pi x) - 1/(pi x).  R's poles at +-1 enter r_i in
    closed form; the rest, sum_(j odd) (c_j + 2/pi) x^j with
    |c_j + 2/pi| <= (3/pi) 2^-j, converges at ratio |eps|/2.  One _cot_term
    has the coefficients -eps^j, then pi r: no L^n or n! alone."""
    e, x = abs(eps), abs(eps * L)
    if not e:  # -pi c_j for j = -1 .. n-1, c_-1 = 1/pi: the finite part
        coeffs = [-math.pi * v for v in _cot_pi_laurent(n)[:n + 1]]
        coeffs[1] += math.pi * sgn * 1j
        return _cot_term(n + 1, L, coeffs)
    # M terms of each r_i and K of phi_n: their terms then shrink by 1/2 a
    # step or more, and the rest is below 2^-53 of the sizes below
    h, M = 0.5 * e, 1
    t = n * h  # t = C(n-1+M, M) (e/2)^M
    while t > 2.0**-54 or (n + M) * h > 0.5 * (M + 1):
        M += 1
        t *= (n - 1 + M) / M * h
    K, t = 0, 1.0  # t = x^K n!/(n+K)!
    while t > 2.0**-54 or x > 0.5 * (n + K + 1):
        K += 1
        t *= x / (n + K)
    coeffs = [-eps ** (K - 1 - k) for k in range(K)]
    # c_j + 2/pi; the even c_j, which vanish, are never read
    d, y = [v + 2.0 / math.pi for v in _cot_pi_laurent(n + M)[1:]], eps * eps
    up, down = 1.0 / (1.0 + eps), -1.0 / (1.0 - eps)  # pi times the poles'
    for i in range(n):  # the odd j = i + m, weight C(j, i) (-eps)^(j-i)
        weight, total = 1.0 if i % 2 else -(i + 1) * eps, 0j
        for j in range(i | 1, i + M, 2):
            total += d[j] * weight
            weight *= y * ((j + 1) * (j + 2) / ((j + 1 - i) * (j + 2 - i)))
        coeffs.append(up + down - math.pi * total)
        up, down = up / (1.0 + eps), down / (eps - 1.0)
    coeffs[K] += math.pi * sgn * 1j
    value, size = _cot_term(n + K, L, coeffs)
    # pi r_i can cancel: its terms' moduli sum to at most
    # 3 2^-i / (1 - e/2)^(i+1) + 2 / (1 - e)^(i+1), plus pi at i = 0
    weight = 1.5  # 1.5 |L|^k / k! >= the |Re| + |Im| of L^k / k!
    for k in range(n):
        i = n - 1 - k
        size += weight * (3.0 / (1.0 - h) * (2.0 - e) ** -i
                          + 2.0 / (1.0 - e) ** (i + 1)
                          + (0.0 if i else math.pi))
        weight *= abs(L) / (k + 1)
    return value, size


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
    return Region.BAND


# ---------------------------------------------------------------------------
# Route 1: defining series, |z| < 1 (or |z| = 1 with n >= 2)

def phi_series(z: complex, n: int, a: complex, tol: float = 1e-10) -> EvalResult:
    """Exactly rounded sum_m z^m / (a + m)^n, its estimate the certified
    tail plus the rounding of the terms kept (_power_sum)."""
    z, a = _validate(z, n, a, tol)
    r = abs(z)
    if r > 1.0 + 1e-12:
        raise DomainError(f"series route needs |z| <= 1, got |z| = {r:.6g}")
    on_circle = r > 1.0 - 1e-12
    if on_circle and abs(z - 1.0) <= 1e-12:
        if n == 1:
            raise DomainError("singular stratum z=1, n=1")
        value, err, terms = _hurwitz_zeta_sum(n, a)
        # pick up the (tiny) difference between z and 1 exactly on the band
        err += abs(z - 1.0) * 40.0
        return certify(value, err, "series", terms, tol)
    if on_circle and n == 1:
        raise DomainError("series on |z| = 1 needs n >= 2")
    value, bound, m = _power_sum(z, a, 1, n, 0, MAX_TERMS, tol, tol)
    if not cmath.isfinite(value):  # a term next to a pole is beyond it
        raise BeyondDoubleRange(f"Phi({z}, {n}, {a}) is beyond the double range")
    return certify(value, bound, "series", m, tol)


# ---------------------------------------------------------------------------
# Route 2: exponential-kernel integral, shifted to Re a >= 1, z off [1, oo)

def phi_integral(z: complex, n: int, a: complex, tol: float = 1e-10) -> EvalResult:
    """sum_{m<k} z^m/(a+m)^n + z^k Phi(z, n, a+k), k = max(0, ceil(1 - Re a)),
    with Phi(z, n, b) = (1/(n-1)!) * integral over t in [0, oo) of
    t^(n-1) e^(-b t) / (1 - z e^(-t)) at Re b >= 1.

    The integrand's poles are t = log z + 2 pi i j.  The nearest to the path
    [0, oo) is log z; where it lies within 0.1 of the path the route
    refuses, as the quadrature's error estimate can miss there.  The
    estimate counts the head's rounding as _power_sum gives it,
    (n + 3) 2^-53 sum_{m<k} |z^m/(a+m)^n|, and the whole estimate is checked
    against tol; the head terms count among terms_or_nodes.  z^k multiplies
    the quadrature's error, so where |z| > 1 its target is tol/|z|^k."""
    z, a = _validate(z, n, a, tol)
    g = _quadrature_scale(n, "integral route")
    if z:
        log_z = cmath.log(z)
        clearance = abs(log_z.imag) if log_z.real >= 0 else abs(log_z)
        if clearance < _POLE_CLEARANCE:
            raise DomainError(
                f"integral route needs its pole log z at least "
                f"{_POLE_CLEARANCE:g} from the path [0, oo); got z = {z}, "
                f"distance {clearance:.3g}"
            )
    k = max(0, math.ceil(1.0 - a.real))
    if k > MAX_TERMS:  # the head is a fixed count of k terms
        raise DomainError(f"integral route shifts a at most {MAX_TERMS}, got {a}")
    b = a + k

    if n == 1:
        def integrand(t: complex) -> complex:
            return cmath.exp(-b * t) / (1.0 - z * cmath.exp(-t))
    else:
        def integrand(t: complex) -> complex:
            # t^(n-1) e^(-b t) as (t e^(-b t/(n-1)))^(n-1): for large n,
            # t^(n-1) alone overflows where the product is finite.  b t is
            # divided at each node, as a rounded b/(n-1) would shift every
            # node alike and the result by n times its rounding error.
            return ((t * cmath.exp(-b * t / (n - 1))) ** (n - 1)
                    / (1.0 - z * cmath.exp(-t)))

    try:
        zk = z ** k
    except (OverflowError, ZeroDivisionError):  # beyond the double range
        zk = complex(math.inf)
    target = tol / abs(zk) if 1.0 < abs(zk) < math.inf else tol
    ray = RayIntegrand(integrand, 0.0, decay_rate=b.real, growth_degree=n - 1)
    try:
        res, stall = integrate_ray(ray, target), None
    except ToleranceNotMet as exc:
        res, stall = exc.result, exc
    value, err = res.value / g, res.err_estimate / g
    if k:
        head, rounding, _ = _power_sum(z, a, 1, n, 0, k, 0.0, 0.0)
        value, err = head + zk * value, abs(zk) * err + rounding
    return certify(value, err, "integral", res.terms_or_nodes + k, tol, stall)


# ---------------------------------------------------------------------------
# Route 3: principal-value ray representation inside the cut disc

def phi_pv(z: complex, n: int, a: complex, tol: float = 1e-10) -> EvalResult:
    """Principal-value representation: (-1)^(n-1)/(n-1)! * {PV integral along
    arg t = phi with pole at -ln z, plus pi * d^(n-1)/da^(n-1) (z^-a cot(pi a))}."""
    z, a = _validate(z, n, a, tol)
    g = _quadrature_scale(n, "principal-value route")
    r = abs(z)
    if not 0.0 < r < 1.0 or (_is_real(z) and z.real < 0):
        raise DomainError(
            "principal-value route needs z in the open unit disc cut along "
            f"the negative real axis, got z = {z}"
        )
    coeffs = cot_pi_taylor(n - 1, a)  # before the quadrature: a pole raises
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

    a1 = a - 1.0

    def integrand(t: complex) -> complex:
        # e^(a t) / (z e^t - 1) rewritten overflow-free as
        # e^((a-1) t) / (z - e^(-t))
        return t ** (n - 1) * cmath.exp(a1 * t) / (z - cmath.exp(-t))

    # The fold's sides lie at t = t0 (1 +- x), x = u/|t0| in [0, 1].  With
    # e^(-t0) = z and E = e^(x t0) - 1, z - e^(-t) is z E/(1 + E) and -z E,
    # formed without cancellation, so the sides' poles cancel exactly.
    # With A = (a-1) t0, e^((a-1) t) is e^A/Y and e^A Y, Y = e^(-A x): one
    # exponential per node.  Both sides share e^A's argument with Y's, so
    # its rounding cancels at x = 1, where the mass of a fast decay sits,
    # and Y's argument, small at x = 0, keeps the sides' ratio exact next to
    # the pole.  Where -Re A > 700, e^A underflows and Y overflows, so an
    # integer S moves e^S from Y to e^A, exactly: e^(A+S) Y keeps its
    # value, and e^(A-S)/Y, below e^-700 there, becomes 0 once e^(A-S)
    # underflows.  t0^(n-1) is a product, which overflows to a non-finite
    # value, and so to a stall, where ** would raise.
    p = float(n - 1)
    big_a = a1 * t0
    if not cmath.isfinite(big_a):
        raise DomainError(f"principal-value route needs (a - 1) log(1/z) "
                          f"within the double range, got a = {a}, z = {z}")
    shift = float(max(0, math.floor(-big_a.real) - 700))
    u0 = abs(t0)
    outer = math.prod([t0] * (n - 1)) * t0 / (u0 * z)
    near = cmath.exp(big_a + shift) * outer
    far = cmath.exp(big_a - shift) * outer
    neg_a, re_t0, half_im_t0 = -big_a, t0.real, 0.5 * t0.imag

    def fold(u: float) -> complex:
        # E = e^(x t0) - 1 = expm1(x Re t0) + 2i s e^(x Re t0) e^(i x Im t0/2)
        # with s = sin(x Im t0 / 2), free of cancellation for small x; the
        # fold (far (1 + E) - near)/E is summed as (far - near)/E + far
        x = u / u0
        em = math.expm1(x * re_t0)
        s = math.sin(x * half_im_t0)
        grow = 2.0 * s * (1.0 + em)
        e = complex(em - grow * s, grow * math.cos(x * half_im_t0))
        y = cmath.exp(x * neg_a - shift)
        far_side = (1.0 + x) ** p * (far / y if far else 0j)
        return (far_side - (1.0 - x) ** p * near * y) / e + far_side

    # The poles t0 + 2 pi i k all have Re t = Re t0, and the wedge with apex
    # 2 t0 between arg = phi and the real direction has Re t >= 2 Re t0, so
    # the tail may leave 2 t0 along any ray of it; the decay rate, positive
    # on both edges, is largest along the steepest descent of e^((a-1) t),
    # where (a - 1) e^(i psi) is real and negative.
    steepest = cmath.phase(-a1.conjugate())
    psi = min(max(steepest, min(phi_angle, 0.0)), max(phi_angle, 0.0))
    ray = RayIntegrand(integrand, phi_angle, decay_rate=decay,
                       growth_degree=n - 1, exponent_rate=abs(a1))
    tail = RayIntegrand(integrand, psi,
                        decay_rate=-(a1 * cmath.exp(1j * psi)).real,
                        growth_degree=n - 1)
    try:
        pv, stall = pv_integrate_ray(ray, t0, fold, tol, tail=tail), None
    except ToleranceNotMet as exc:
        pv, stall = exc.result, exc
    trig, rounding = _trig_side(*_cot_term(n, t0, coeffs), math.pi, n,
                                a * t0)
    value = (-1.0) ** (n - 1) * (pv.value / g + trig)
    if not cmath.isfinite(trig) or (stall is None and not cmath.isfinite(value)):
        raise BeyondDoubleRange(
            f"Phi({z}, {n}, {a}) is beyond the double range (principal-value "
            f"route: value {value})"
        )
    err = pv.err_estimate / g + rounding
    result = EvalResult(value, err, "pv", pv.terms_or_nodes)
    # The one route that does not end in certify: its quadrature's target
    # is scaled by the principal-value integral alone, not by |value|, so
    # its whole estimate can exceed tol * max(1, |value|); only a stall raises.
    if stall is not None:
        raise ToleranceNotMet(f"principal-value route: {stall}", result) from stall
    return result


# ---------------------------------------------------------------------------
# Route 4: inverse-argument expansion, |w| > 1 off the positive real axis

def phi_inverse(w: complex, n: int, b: complex, tol: float = 1e-10) -> EvalResult:
    """Convergent expansion of Phi(w, n, b) in powers of 1/w:

    pi/(n-1)! [d^(n-1)/dt^(n-1) (w^t (sgn(phi) i - cot(pi t)))]_(t = -b)
    - sum_{m>=1} w^(-m) / (b - m)^n,

    whose first term is -pi w^-b _cot_term(n, log w, cot_pi_taylor(n - 1,
    -b, -sgn(phi) i)).  Within _FOLD_RADIUS of an integer N >= 1 it and the
    tail term m = N, which cancel, are summed as one: w^-b _fold_side(n,
    log w, b - N, sgn(phi)).  The tail meets the absolute target tol/2, as
    the first term may cancel most of it; the estimate adds that term's
    rounding.  A folded head longer than MAX_TERMS terms is refused."""
    w, b = _validate(w, n, b, tol)
    if abs(w) <= 1.0 - 1e-12 or _on_positive_real_axis(w):
        raise DomainError(
            f"inverse-argument expansion needs |w| > 1 off the positive real "
            f"axis, where sgn(phi) = 0; got w = {w}"
        )
    log_w = cmath.log(w)
    sgn = 1 if cmath.phase(log_w) > 0 else -1
    N = round(b.real)
    fold = N >= 1 and abs(b - N) <= _FOLD_RADIUS
    cot, size = (_fold_side(n, log_w, b - N, sgn) if fold else
                 _cot_term(n, log_w, cot_pi_taylor(n - 1, -b, -sgn * 1j)))
    trig, trig_err = _trig_side(cot, size, 1.0 if fold else -math.pi, n,
                                -b * log_w)

    winv = 1.0 / w
    rho = abs(winv)
    # Folded, the sum over m != N is a fixed head m < J and, where J = N,
    # the tail from N + 1 ((-1)^n w^-N Li_n(1/w) at b = N, closed-form at
    # n = 1).  As |b - m| >= 1 - |b - N|, the terms from J on are at most
    # rho^J / ((1 - rho) (1 - |b - N|)^n); J < N puts that below tol/2.
    start, J = (N + 1, N) if fold else (1, 1)
    if fold and rho < 1.0 and rho ** N < 0.5 * tol:
        log_rest = -math.log1p(-rho) - n * math.log1p(-abs(b - N))
        J = min(N, max(1, math.ceil((math.log(0.5 * tol) - log_rest)
                                    / math.log(rho))))
    if J - 1 > MAX_TERMS:  # so also where |w| < 1 and w^-N is beyond range
        raise DomainError(f"inverse-argument expansion sums a head of at most "
                          f"{MAX_TERMS} terms, got w = {w}, b = {b}")
    if fold and J < N:
        tail, bound, terms = 0j, math.exp(J * math.log(rho) + log_rest), 0
    elif fold and b == N:
        tail, bound, terms = _polylog_sum(n, winv, 0.25 * tol)
        scale = (-1.0) ** n * w ** -N
        tail, bound = scale * tail, abs(scale) * bound
    else:
        tail, bound, j = _power_sum(winv, b, -1, n, start, start + MAX_TERMS,
                                    0.5 * tol, 0.0)
        terms = j - start
    value = trig - tail
    if J > 1:
        head, rounding, _ = _power_sum(winv, b, -1, n, 1, J, 0.0, 0.0)
        value, bound, terms = value - head, bound + rounding, terms + J - 1
    if not (cmath.isfinite(trig) and cmath.isfinite(value)):
        raise BeyondDoubleRange(f"Phi({w}, {n}, {b}) is beyond the double "
                                f"range (inverse-argument expansion: value "
                                f"{value})")
    # on the circle with n = 1 the tail bound is infinite: a stall
    return certify(value, bound + trig_err, "inverse", terms, tol)


# the former integer-shift route's public name, which perfbench calls
phi_integer_a = phi_inverse


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
    require_order(n)
    if not (cmath.isfinite(z) and cmath.isfinite(a)):
        raise DomainError(f"symmetry relation needs finite z, a: {z}, {a}")
    if z == 0 or _on_positive_real_axis(z):
        raise DomainError(
            "symmetry relation undefined for z on [0, oo): sgn(phi) = 0 "
            "(excluded segments (0,1), {1}, (1, oo))"
        )
    t0 = -cmath.log(z)
    sgn = 1 if cmath.phase(t0) > 0 else -1
    cot, size = _cot_term(n, t0, cot_pi_taylor(n - 1, a, -sgn * 1j))
    trig, _ = _trig_side(cot, size, math.pi * (-1.0) ** (n - 1), n, a * t0)
    return LerchQuery(1.0 / z, n, 1.0 - a), trig


def extended_polylog(z: complex, n: int, a: complex, tol: float = 1e-10) -> EvalResult:
    """Extended polylogarithm Li_n(z, a) = z * Phi(z, n, a)."""
    z = complex(z)
    if z == 0:
        require_order(n)
        return EvalResult(0j, 0.0, "extended-polylog", 0)
    res = phi(z, n, a, tol)
    return EvalResult(z * res.value, abs(z) * res.err_estimate, res.method,
                      res.terms_or_nodes)


# ---------------------------------------------------------------------------
# Dispatcher

class _Row(NamedTuple):
    """phi's row for a region: the ROUTES names it tries in order (a route
    that refuses with DomainError, or stalls with ToleranceNotMet, passes
    the point on), and the DomainError text when all refuse (else the last
    refusal stands).  If no route certifies and one stalled, the first
    stall stands."""

    routes: tuple
    refusal: str = ""


# series refuses |z| > 1 + 1e-12 and inverse |z| < 1 - 1e-12, so one band
# row serves both sides of the circle
_ROUTE_TABLE = {
    Region.INSIDE_DISC: _Row(("series", "integral")),
    Region.BAND: _Row(("integral", "series", "inverse")),
    Region.ONE: _Row(("series",)),
    Region.NEAR_ONE: _Row(
        (), f"z = {{z}} within {_CIRCLE_BAND:g} of the singular point z = 1"),
    Region.EXTERIOR: _Row(("inverse", "integral")),
    Region.EXTERIOR_NEGATIVE_REAL: _Row(("integral", "inverse")),
    Region.CUT: _Row((), "z = {z} on the singular cut (1, oo); no implemented "
                         "representation applies"),
}


def phi(z: complex, n: int, a: complex, tol: float = 1e-10) -> EvalResult:
    """Evaluate Phi(z, n, a) by the routes of the region of z.

    Returns the result of the first route of the row that certifies the
    point, or raises a LerchError; it never returns an uncertified result.
    A route that refuses or stalls passes the point on to the next route of
    the row; if none certifies, the first stall is raised as ToleranceNotMet,
    which carries that route's result.  Non-finite z or a, and a tol that
    is not finite and positive, raise DomainError.
    """
    z = complex(z)
    row = _ROUTE_TABLE[classify(z)]
    refused = stalled = None
    for name in row.routes:
        try:
            return ROUTES[name](z, n, a, tol)
        except BeyondDoubleRange:
            raise
        except DomainError as exc:
            refused = exc
        except ToleranceNotMet as exc:
            stalled = stalled or exc
    # every route checks the input first: checked here once none certified
    _validate(z, n, a, tol)
    if stalled is not None:
        raise stalled
    if row.refusal:
        raise DomainError(row.refusal.format(z=z))
    raise refused


def degrade(route, z: complex, n: int, a: complex, tol: float) -> EvalResult:
    """route(z, n, a, tol); if it raises ToleranceNotMet, the result that
    exception carries, with its method tagged "(degraded)".  The CLI shows
    an uncertified point this way; phi itself never degrades."""
    try:
        return route(z, n, a, tol)
    except ToleranceNotMet as exc:
        return exc.result._replace(method=exc.result.method + " (degraded)")


# Every route by name, in the order compare reports them.  Each entry looks
# its function up when called, so a replaced module attribute takes effect.
ROUTES = {
    "series": lambda z, n, a, tol: phi_series(z, n, a, tol),
    "integral": lambda z, n, a, tol: phi_integral(z, n, a, tol),
    "pv": lambda z, n, a, tol: phi_pv(z, n, a, tol),
    "inverse": lambda z, n, a, tol: phi_inverse(z, n, a, tol),
}
