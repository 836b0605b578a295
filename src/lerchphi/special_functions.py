"""Auxiliary special functions feeding the Lerch evaluation routes.

Exact Bernoulli numbers, the Taylor coefficients of cot(pi (a + eps)) from
one float recurrence and the Laurent coefficients of cot(pi eps) from
zeta(2k) live next to the floating-point summations (polylogarithm,
Hurwitz zeta, polygamma) so that the identity checks can pit independent
computations against each other.  Every power sum, here and in the routes,
runs through the one kernel _power_sum, which returns the exactly rounded
math.fsum of its terms.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import ceil, exp, factorial, floor, fsum, hypot, inf, log, log1p
from operator import attrgetter

from .errors import (
    BeyondDoubleRange,
    DivergentAtOne,
    DomainError,
    PoleAtInteger,
    PoleAtNonPositiveInteger,
)
from .result import certify

__all__ = [
    "bernoulli",
    "tan_series_coeff",
    "cot_pi",
    "cot_pi_taylor",
    "cot_pi_derivative",
    "cot_pi_derivatives",
    "polylog",
    "hurwitz_zeta",
    "polygamma",
    "dist_to_nearest_integer",
]

# Refusal radius around the poles a = 0, -1, -2, ... shared by every route.
POLE_GUARD = 1e-8

# At and above this |Im a| the Taylor coefficients of cot(pi a) are seeded
# from the q-expansion, below it from sin and cos.  Both seeds are needed:
# sin(pi a) overflows beyond |Im a| ~ 226, while u = q / (1 - q) loses
# relative accuracy for real a near an integer (4e-10 at a = 1e-8, where
# sin and cos give 1e-16).  Both hold 1e-13 relative at the switch (see
# tests/test_special_functions.py).
_Q_EXPANSION_IM = 0.2

_TWO_PI_I = 2j * math.pi

# log of the smallest positive double: log |x| for x = 0
_LOG_TINY = math.log(5e-324)

_REAL = attrgetter("real")
_IMAG = attrgetter("imag")


def dist_to_nearest_integer(a: complex) -> float:
    """Distance from complex a to the nearest point of the integer lattice on R."""
    a = complex(a)
    return abs(a - round(a.real))


def require_off_nonpositive_poles(a: complex) -> None:
    """Reject a within POLE_GUARD of 0, -1, -2, ... (a genuine pole of order n)."""
    a = complex(a)
    k = round(a.real)
    if k <= 0 and abs(a - k) <= POLE_GUARD:
        raise PoleAtNonPositiveInteger(
            f"a = {a} is within {POLE_GUARD:g} of the pole at {k}"
        )


# ---------------------------------------------------------------------------
# Exactly rounded power sums

def _first_below(c0: float, log_rho: float, p: int, h: float,
                 top: float) -> float:
    """A point in [h, top] at or below the root of the convex, decreasing
    F(w) = c0 + w log_rho - p log w, or top where F(top) > 0; the step count
    of either part of the bound in _power_sum, where log_rho may be 0.

    Newton's method: a tangent of a convex function lies below it, so a
    step from anywhere lands at or below the root, and further steps climb
    to it.  The first step starts from an upper bound of the root, where
    the log or the linear term alone would reach 0; the iteration stops
    once a step is under half an index."""
    w = c0 / p
    w = exp(w) if w < 700.0 else inf
    if log_rho < 0.0:
        linear = (c0 - p * log(h)) / -log_rho
        if linear < w:
            w = linear
    w = min(max(w, h), top)  # a start below h puts the root below it
    while True:
        step = (c0 + w * log_rho - p * log(w)) / (p / w - log_rho)
        w += step
        if w <= h:
            return h
        if w >= top:
            return top
        if -0.5 < step < 0.5:
            return w


def _power_sum(x: complex, c: complex, sign: int, n: int, k: int, cap: int,
               t_abs: float, t_rel: float):
    """sum_{i=k}^{j-1} x^i / (c + sign*i)^n, exactly rounded: the math.fsum of
    the terms' real parts and of their imaginary parts.

    The one summation kernel of the library: the series, the inverse-argument
    tail, the polylogarithm and the fixed-count heads of the Hurwitz zeta,
    integer-shift and shifted-integral sums.  With rho = |x| (1 on and
    beyond the circle), u = j + sign Re c and D = min_{i>=j} |c + sign i|,
    the remainder from j on is at most

        bound = rho^j min(1 / ((1 - rho) D^n), (u - 1)^(1-n) / (n - 1)),

    inf where neither part holds.  The first part needs rho < 1; D is
    |c + sign j| once u >= 0, from where |c + sign i| grows with i, and
    (dist(u, Z)^2 + Im c^2)^(1/2) before.  The second, an integral
    comparison with |c + sign i| >= i + sign Re c, needs n >= 2 and holds
    once u > 1.  It can be the smaller part only while
    D < (n - 1) / (1 - rho), and is taken on the circle and where that
    limit is at least 32.  The estimate at j adds the rounding term
    (n + 3) 2^-53 sum_{i<j} |t_i|.  The sum stops at the first j >= k where
    the bound meets the target max(t_abs, t_rel |S_j|), S_j the running sum
    of the terms below j, and either the whole estimate does or the bound is
    at most the rounding term, as more terms cannot halve the estimate; or
    at j = cap.

    The bound is checked only where it can first meet the target.  From a
    check at j that it fails, the next one is at the first index whose
    bound can be <= reach = max(t_abs, t_rel (|S_j| + bound)), the largest
    target the partial sums can reach.  Each part of the bound is bounded
    below by a function of the step count m whose log is convex,
    rho^(j+m) / ((1 - rho) (D + m)^n) and the second part itself, and no
    index before the first root of the two can meet reach (_first_below).
    The terms between the checks are formed with no bound, branch or
    compensation work.

    Returns (S, estimate, j).  With no target, t_abs = t_rel = 0, S is the
    finite sum up to cap and the estimate its rounding term alone."""
    terms: list = []
    keep = terms.append
    j, s, power, bound, rounding = k, 0j, x ** k, 0.0, 0.0
    stop = cap
    if t_abs or t_rel:
        stop = k
        rho = abs(x)
        shift, c_im = sign * c.real, c.imag
        log_rho = (log(rho) if 0.0 < rho < 1.0 else _LOG_TINY if rho < 1.0
                   else 0.0)
        log_geo = -log1p(-rho) if rho < 1.0 else None
        # from D >= (n - 1) / (1 - rho) on, the second part is at least the
        # first and stays above the first's lower bound, as D >= u > u - 1;
        # D never falls.  Where that is below 32 the second part could only
        # end a sum of a few dozen terms a term or two early, which costs
        # more in checks than it saves.
        second_from = (0.0 if n == 1 else inf if log_geo is None
                       else (n - 1) / (1.0 - rho))
        if second_from < 32.0:
            second_from = 0.0
        log_alg = -log(n - 1) if n > 1 else 0.0
        h = 0.0
    while True:
        if j < stop:
            try:
                for i in range(sign * j, sign * stop, sign):
                    keep(power / (c + i) ** n)
                    power *= x
            except (OverflowError, ZeroDivisionError):  # from i on, one by one
                for i in range(i, sign * stop, sign):
                    keep(_term(power, c + i, n))
                    power *= x
            if t_rel:
                s += sum(terms[j - k:])
            j = stop
        if not (t_abs or t_rel):  # a fixed count
            rounding = (n + 3) * 2.0**-53 * _abs_sum(terms)
            break
        u = j + shift
        log_b = inf
        if log_geo is not None:
            h = hypot(u if u >= 0.0 else u - round(u), c_im)
            log_b = j * log_rho + log_geo - n * log(h)
        if h >= second_from:
            second_from = 0.0
        elif u > 1.0 and (log_geo is None or (1.0 - rho) * h * (u + n - 2.0)
                          < (n - 1) * (u - 1.0)):
            # the second part can be below the first: by Bernoulli's
            # inequality their ratio is >= (1 - rho) D (u + n - 2) /
            # ((n - 1) (u - 1))
            log_b = min(log_b,
                        j * log_rho + log_alg - (n - 1) * log(u - 1.0))
        bound = exp(log_b) if log_b < 709.0 else inf
        try:
            s_abs = abs(s)
        except OverflowError:  # |S| beyond the double range
            s_abs = inf
        goal = max(t_abs, t_rel * s_abs)
        if bound <= goal or j >= cap:
            rounding = (n + 3) * 2.0**-53 * _abs_sum(terms)
            if bound + rounding <= goal or bound <= rounding or j >= cap:
                break
            stop = j + 1  # the rounding term, not the bound, is above goal
            continue
        if bound == inf:  # on the circle, or a term beyond the double range
            stop = (min(cap, max(j + 1, floor(2.0 - shift)))
                    if n > 1 or log_b < inf else cap)
            continue
        # the first index whose bound can meet the largest target the
        # partial sums can reach; the margin covers the logs' rounding
        log_reach = log(max(goal, t_rel * (s_abs + bound))) + 1e-9
        m = float(cap - j)
        if log_geo is not None:  # the first part's lower bound
            c0 = (j - h) * log_rho + log_geo - log_reach
            m = _first_below(c0, log_rho, n, h, h + m) - h
        if h < second_from:
            # the second part, from the first step where it holds, unless
            # it stays above reach up to m
            g = u - 1.0
            start = 0 if g > 0.0 else floor(-g) + 1
            c0 = (j - g) * log_rho + log_alg - log_reach
            if start < m and c0 + (g + m) * log_rho - (n - 1) * log(
                    g + m) <= 0.0:
                m = _first_below(c0, log_rho, n - 1, g + start, g + m) - g
        stop = min(cap, j + (ceil(m - 1e-6) if m > 1.0 else 1))
    try:
        value = complex(fsum(map(_REAL, terms)), fsum(map(_IMAG, terms)))
    except (OverflowError, ValueError):  # a part beyond the double range
        value = complex(inf, inf)
    return value, bound + rounding, j


def _abs_sum(terms: list) -> float:
    """math.fsum of the terms' moduli; inf where one is beyond the double
    range (abs raises, or a term formed from an infinity is NaN) or the sum
    is."""
    try:
        total = fsum(map(abs, terms))
    except (OverflowError, ValueError):
        return inf
    return total if total == total else inf


def _term(power: complex, base: complex, n: int) -> complex:
    """power / base^n, from the reciprocal where base^n is beyond the double
    range or underflows to 0 (not base ** -n, which is NaN for complex base
    and n <= 100); inf where the term itself is beyond the double range."""
    try:
        return power / base ** n
    except (OverflowError, ZeroDivisionError):
        try:
            return power * (1.0 / base) ** n
        except OverflowError:
            return complex(inf)


# ---------------------------------------------------------------------------
# Bernoulli numbers (exact rationals)

_bernoulli_cache: list[Fraction] = []


def _grow_bernoulli_cache(n: int) -> None:
    # Akiyama-Tanigawa triangle; it yields B_1 = +1/2, flipped below to the
    # B_1 = -1/2 convention (only |B_{2n}| is consumed downstream anyway).
    row: list[Fraction] = []
    out: list[Fraction] = []
    for m in range(n + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if n >= 1:
        out[1] = Fraction(-1, 2)
    _bernoulli_cache[:] = out


def bernoulli(k: int) -> Fraction:
    """Exact Bernoulli number B_k (convention B_1 = -1/2)."""
    if k < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if k >= len(_bernoulli_cache):
        _grow_bernoulli_cache(k + 16)
    return _bernoulli_cache[k]


def tan_series_coeff(n: int) -> Fraction:
    """Exact coefficient of alpha^(2n-1) in the tangent Maclaurin series:
    2^(2n) (2^(2n) - 1) |B_{2n}| / (2n)!."""
    if n < 1:
        raise ValueError("tangent-series index must be >= 1")
    p = 2 ** (2 * n)
    return Fraction(p * (p - 1)) * abs(bernoulli(2 * n)) / factorial(2 * n)


# Laurent coefficients of cot(pi eps) about 0: _cot_laurent[j + 1] = c_j,
# filled on first use.
_cot_laurent: list[float] = []


def _cot_pi_laurent(order: int) -> list[float]:
    """[c_-1, c_0, ..., c_order] with cot(pi eps) = sum_j c_j eps^j:
    c_-1 = 1/pi, the even c_j vanish and c_(2k-1) = -2 zeta(2k) / pi, which
    stays near -2/pi for every k.  The returned list is shared; do not
    modify it."""
    while len(_cot_laurent) < order + 2:
        d = len(_cot_laurent) - 1
        if d == -1:
            _cot_laurent.append(1.0 / math.pi)
        elif d % 2 == 0:
            _cot_laurent.append(0.0)
        else:
            zeta, _, _ = _hurwitz_zeta_sum(d + 1, 1.0)
            _cot_laurent.append(-2.0 * zeta.real / math.pi)
    return _cot_laurent


# ---------------------------------------------------------------------------
# Taylor coefficients of cot(pi (a + eps))

def _cot_pi_seed(a: complex) -> tuple[complex, complex]:
    """(cot(pi a), -pi / sin^2(pi a)), the first two Taylor coefficients,
    from sin and cos of the reduced ar = a - round(Re a) below
    _Q_EXPANSION_IM, and from the q-expansion above it: with
    q = e^(2 pi i ar) and u = q / (1 - q), Im ar > 0,

        cot(pi a) = -i (1 + 2u),  1 / sin^2(pi a) = -4u (1 + u);

    Im ar < 0 is the conjugate."""
    a = complex(a)
    ar = a - round(a.real)
    if abs(ar.imag) >= _Q_EXPANSION_IM:
        flip = ar.imag < 0
        q = cmath.exp(_TWO_PI_I * (ar.conjugate() if flip else ar))
        u = q / (1.0 - q)
        e0 = -1j * (1.0 + 2.0 * u)
        e1 = 4.0 * math.pi * u * (1.0 + u)
        return (e0.conjugate(), e1.conjugate()) if flip else (e0, e1)
    s = cmath.sin(math.pi * ar)
    if s == 0:
        raise PoleAtInteger(f"cot(pi a) pole at a = {a}")
    return cmath.cos(math.pi * ar) / s, -math.pi / (s * s)


def cot_pi(a: complex) -> complex:
    """cot(pi a) for complex a, with argument reduction a -> a - round(Re a)."""
    return _cot_pi_seed(a)[0]


def cot_pi_taylor(m: int, a: complex, shift: complex = 0j) -> list[complex]:
    """[e_0, ..., e_m] with cot(pi (a + eps)) + shift = sum_j e_j eps^j.

    e_0 and e_1 come from _cot_pi_seed; the rest from cot' = -pi (1 + cot^2),
    (j + 1) e_(j+1) = -pi sum_{i=0..j} e_i e_(j-i) for j >= 1, in floats.
    Im cot(pi a) has the sign of -Im a, so a shift of +-i with the sign of
    Im a cancels cot at large |Im a|; there e_0 is formed as
    (1 + cot^2) / (cot - shift) = -e_1 / (pi (cot - shift)), which does not."""
    if m < 0:
        raise ValueError("derivative order must be >= 0")
    a = complex(a)
    if dist_to_nearest_integer(a) <= 1e-12:
        raise PoleAtInteger(f"cot(pi a) derivative requested at a = {a} (integer pole)")
    e = list(_cot_pi_seed(a))
    for j in range(1, m):
        # the sum is symmetric in i <-> j - i: twice its lower half
        half = e[j // 2] * e[j // 2] if j % 2 == 0 else 0j
        acc = 0j
        for i in range((j + 1) // 2):
            acc += e[i] * e[j - i]
        e.append(-math.pi * (2.0 * acc + half) / (j + 1))
    if shift:
        e[0] = (-e[1] / (math.pi * (e[0] - shift))
                if a.imag * shift.imag > 0 else e[0] + shift)
    return e[:m + 1]


def cot_pi_derivatives(jmax: int, a: complex) -> list[complex]:
    """[d^j/da^j cot(pi a) for j = 0..jmax] = j! e_j of cot_pi_taylor."""
    out = cot_pi_taylor(jmax, a)
    fact = 1.0
    for j in range(1, jmax + 1):
        fact *= j
        out[j] *= fact
    return out


def cot_pi_derivative(j: int, a: complex) -> complex:
    """Value of d^j/da^j cot(pi a)."""
    return cot_pi_derivatives(j, a)[j]


# ---------------------------------------------------------------------------
# Polylogarithm

def _polylog_sum(n: int, x: complex, tol: float):
    """Direct summation of Li_n(x); returns (value, err_bound, terms).

    |x| < 1 uses the geometric tail bound; on the unit circle (x != 1) the
    sum is capped at 10^4 terms with an integral-comparison remainder, so the
    returned bound can exceed tol (callers report it honestly).
    """
    x = complex(x)
    if n == 1:
        return -cmath.log(1.0 - x), 4e-16 * abs(cmath.log(1.0 - x)) + 1e-300, 1
    cap = 300_000 if abs(x) < 1.0 else 10_000
    value, bound, j = _power_sum(x, 0.0, 1, n, 1, cap + 1, tol, tol)
    return value, bound, j - 1


def polylog(n: int, x: complex, tol: float = 1e-12) -> complex:
    """Li_n(x) = sum_{k>=1} x^k / k^n for n >= 1, |x| <= 1."""
    if n < 1:
        raise DomainError("polylog order must be a positive integer")
    x = complex(x)
    r = abs(x)
    if r > 1.0 + 1e-12:
        raise DomainError(f"polylog needs |x| <= 1, got |x| = {r}")
    if n == 1 and abs(x - 1.0) <= 1e-14:
        raise DivergentAtOne("Li_1(1) diverges")
    if x == 0:
        return 0j
    if n >= 2 and abs(x - 1.0) <= 1e-14:
        return complex(hurwitz_zeta(n, 1.0))
    value, err, terms = _polylog_sum(n, x, tol)
    return certify(value, err, "polylog", terms, tol).value


# ---------------------------------------------------------------------------
# Hurwitz zeta and polygamma

def _hurwitz_zeta_sum(n: int, a: complex):
    """zeta(n, a) by direct summation plus Euler-Maclaurin tail.

    Returns (value, err_estimate, terms).  Uses M = max(20, ceil|a| + 20)
    explicit terms and four Bernoulli corrections.
    """
    if n < 2:
        raise DomainError("hurwitz_zeta needs integer order n >= 2")
    a = complex(a)
    require_off_nonpositive_poles(a)
    m_terms = max(20, math.ceil(abs(a)) + 20)
    head, _, _ = _power_sum(1.0, a, 1, n, 0, m_terms, 0.0, 0.0)
    x = a + m_terms
    xinv = 1.0 / x
    tail = x ** (1 - n) / (n - 1) + 0.5 * x ** (-n)
    rising = 1.0
    power = x ** (-n) * xinv
    for k in (1, 2, 3, 4):
        # rising factorial n (n+1) ... (n + 2k - 2)
        rising *= (n + 2 * (k - 1) - 1) * (n + 2 * (k - 1)) if k > 1 else n
        tail += float(bernoulli(2 * k)) / factorial(2 * k) * rising * power
        power *= xinv * xinv
    rising *= (n + 7) * (n + 8)
    err = abs(float(bernoulli(10)) / factorial(10) * rising * power)
    return head + tail, err + 1e-15 * abs(head), m_terms


def hurwitz_zeta(n: int, a: complex) -> complex:
    """zeta(n, a) = Phi(1, n, a) for integer n >= 2 and a off 0, -1, -2, ..."""
    value, _, _ = _hurwitz_zeta_sum(n, a)
    return value


def polygamma(m: int, a: complex) -> complex:
    """psi^(m)(a) = (-1)^(m+1) m! zeta(m+1, a) for m >= 1; BeyondDoubleRange
    where that is beyond the double range.  m! enters as a float mantissa
    times a power of two, so the product is formed even where m! alone is
    beyond the double range."""
    if m < 1:
        raise DomainError("polygamma implemented for m >= 1 only")
    fact = factorial(m)
    shift = max(0, fact.bit_length() - 64)
    value = (-1) ** (m + 1) * float(fact >> shift) * hurwitz_zeta(m + 1, a)
    try:
        value = complex(math.ldexp(value.real, shift),
                        math.ldexp(value.imag, shift))
    except OverflowError:
        value = complex(math.inf)
    if not cmath.isfinite(value):
        raise BeyondDoubleRange(
            f"polygamma({m}, {a}) = (-1)^(m+1) m! zeta(m+1, a) is beyond the "
            "double range"
        )
    return value
