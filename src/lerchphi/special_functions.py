"""Auxiliary special functions feeding the Lerch evaluation routes.

Exact Bernoulli numbers, the Taylor coefficients of cot(pi (a + eps)) from
one float recurrence and the Laurent coefficients of cot(pi eps) from
zeta(2k) live next to the floating-point summations (polylogarithm,
Hurwitz zeta, polygamma) so that the identity checks can pit independent
computations against each other.  cot_pi_taylor is the one interface to
the cot side; d^j cot(pi a) is j! times its coefficient e_j.  Every power
sum, here and in the routes, runs through the one kernel _power_sum, which
returns the exactly rounded math.fsum of its terms.
"""

from __future__ import annotations

import cmath
import math
from math import (ceil, exp, expm1, fabs, factorial, floor, fsum, hypot, inf,
                  log, log1p, nan)
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
    "cot_pi_taylor",
    "polylog",
    "hurwitz_zeta",
    "polygamma",
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


def require_order(n, low: int = 1, what: str = "order") -> None:
    """DomainError unless n is an int, not a bool, of at least low: the one
    order check of phi, LerchQuery and the public special functions."""
    if not isinstance(n, int) or isinstance(n, bool) or n < low:
        raise DomainError(f"{what} must be an integer >= {low}, got {n!r}")


def require_off_nonpositive_poles(a: complex) -> None:
    """Reject a within POLE_GUARD of 0, -1, -2, ... (a genuine pole of order
    n), and a with a real part that is not finite."""
    a = complex(a)
    try:
        k = round(a.real)
    except (OverflowError, ValueError):
        raise DomainError(f"a = {a} is not finite") from None
    if k <= 0 and abs(a - k) <= POLE_GUARD:
        raise PoleAtNonPositiveInteger(
            f"a = {a} is within {POLE_GUARD:g} of the pole at {k}"
        )


# ---------------------------------------------------------------------------
# Exactly rounded power sums

# The one term ceiling of every power sum and fixed-count head
MAX_TERMS = 300_000


def _first_below(g0: float, log_rho: float, p: int, h: float,
                 top: float) -> float:
    """A step count in [0, top] at or below the root of the convex,
    decreasing G(m) = g0 + m log_rho - p log(1 + m/h), or one above top
    where G(top) > 0.  Newton's method from an upper bound of the root,
    where the log or the linear term alone reaches 0, cut to top: a tangent
    of a convex function lies below it, so every step lands at or below the
    root; it stops once a step is under half an index."""
    m = h * expm1(g0 / p) if g0 < 700.0 * p else inf
    if log_rho < 0.0 and g0 < m * -log_rho:
        m = g0 / -log_rho
    m = top if m > top else m if m > 0.0 else 0.0
    while True:
        step = (g0 + m * log_rho - p * log1p(m / h)) / (p / (h + m) - log_rho)
        m += step
        if -0.5 < step < 0.5 or m <= 0.0 or m >= top:
            return m if m > 0.0 else 0.0


def _power_sum(x: complex, c: complex, sign: int, n: int, k: int, cap: int,
               t_abs: float, t_rel: float):
    """sum_{i=k}^{j-1} x^i / (c + sign*i)^n, exactly rounded: the math.fsum of
    the terms' real parts and of their imaginary parts.

    The one summation kernel of the library: the series, the inverse-argument
    tail and head, the polylogarithm and the fixed-count heads of the
    Hurwitz zeta and shifted-integral sums.  With rho = |x| (1 on and
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
    at most the rounding term, as more terms cannot halve the estimate.  It
    stalls at j = cap, or at once at a failed check from which the bound
    cannot meet the target by cap: where its prediction (below) lies past
    cap, and where the bound is infinite on the circle and its second part
    cannot hold by cap (n = 1, or u <= 1 at cap).

    The bound is checked only where it can first meet the target.  From a
    failed check at j the next is at the first index whose bound can be
    <= reach = max(t_abs, t_rel (|S_j| + bound)), the largest target the
    partial sums can reach (_first_below): each part of the bound is bounded
    below by a function of the step count m whose log is convex, the second
    part itself and rho^(j+m) / ((1 - rho) (D + m)^n), this from the first
    m with u + m >= 0, as D stays put before.  A relative target forms t_k
    first and checks at k only where |t_k| <= 2 t_abs (the bound at k is at
    least |t_k|): the first reach is then |t_k| plus the bound at k + 1, not
    the bound at k, whose D can be far below the next.  A short sum so
    makes one prediction and one passing check.

    Returns (S, estimate, j).  With no target, t_abs = t_rel = 0, S is the
    finite sum up to cap and the estimate its rounding term alone."""
    terms: list = []
    power = x ** k
    if not (t_abs or t_rel):  # a fixed count
        _extend(terms, x, c, sign, n, k, cap, power)
        value = _fsum(terms)
        if value != value:  # a NaN term (_extend)
            value, terms = _checked_sum(x, c, sign, n, k, cap)
        return value, (n + 3) * 2.0**-53 * _abs_sum(terms), cap
    rho = abs(x)
    shift, c_im = sign * c.real, c.imag
    if rho < 1.0:
        log_rho = log(rho) if rho else _LOG_TINY
        log_geo, limit = -log1p(-rho), (n - 1) / (1.0 - rho)
    else:
        log_rho, log_geo, limit = 0.0, inf, inf if n > 1 else 0.0
    # from D >= limit on the second part is at least the first and stays
    # above the first's lower bound, as D >= u > u - 1.  Below 32 it could
    # only end a sum of a few dozen terms a term or two early.
    limit, log_alg = (limit, -log(n - 1)) if limit >= 32.0 else (0.0, 0.0)
    j, stop, s = k, k, 0j
    if t_rel and k < cap:
        try:
            s = power / (c + sign * k) ** n
        except (OverflowError, ZeroDivisionError):
            s = 0j  # formed in the first block, after a check at k
        if fabs(s.real) + fabs(s.imag) > 3.0 * t_abs:  # |t_k| > 2 t_abs
            terms.append(s)
            power *= x
            j = stop = k + 1
        else:
            s = 0j
    while True:
        if j < stop:
            power = _extend(terms, x, c, sign, n, j, stop, power)
            if t_rel:
                s = sum(terms[j - k:], s)
            j = stop
        u = j + shift
        h = hypot(u if u >= 0.0 else u - round(u), c_im)
        log_b = log_first = j * log_rho + log_geo - n * log(h)
        if h < limit and u > 1.0 and (1.0 - rho) * h * (u + n - 2.0) < (
                n - 1) * (u - 1.0):
            # the second part can be below the first: by Bernoulli's
            # inequality their ratio is >= (1 - rho) D (u + n - 2) /
            # ((n - 1) (u - 1))
            log_b = min(log_b, j * log_rho + log_alg - (n - 1) * log(u - 1.0))
        bound = exp(log_b) if log_b < 709.0 else inf
        try:
            s_abs = abs(s)
        except OverflowError:  # |S| beyond the double range
            s_abs = inf
        goal = t_rel * s_abs if t_rel * s_abs > t_abs else t_abs
        if bound <= goal or j >= cap:
            rounding = (n + 3) * 2.0**-53 * _abs_sum(terms)
            if bound + rounding <= goal or bound <= rounding or j >= cap:
                break
            stop = j + 1  # the rounding term, not the bound, is above goal
            continue
        if bound == inf:  # on the circle, or a term beyond the double range
            # on to the first index with u > 1, where the second part holds;
            # inside the disc the first part can come down by the cap
            stop = min(cap, max(j + 1, floor(2.0 - shift)))
            if rho < 1.0 or n > 1 and cap + shift > 1.0:
                continue
        else:
            # the first index whose bound can meet the largest target the
            # partial sums can reach; the margin covers the logs' rounding
            reach = t_rel * (s_abs + bound)
            log_reach = log(reach if reach > goal else goal) + 1e-9
            top, m = float(cap - j), inf
            if rho < 1.0:  # the first part's lower bound
                g0, m0, d = log_first - log_reach, 0, h
                if u < 0.0 and g0 > ceil(-u) * -log_rho and ceil(-u) < top:
                    # D stays h up to the first step m0 with u + m0 >= 0
                    m0 = ceil(-u)
                    d = hypot(u + m0, c_im)
                    g0 += m0 * log_rho - n * log(d / h)
                m = m0 + _first_below(g0, log_rho, n, d, top - m0)
            if h < limit:  # the second part, from the first step it holds
                g = u - 1.0
                start = 0 if g > 0.0 else floor(-g) + 1
                if start <= min(m, top):
                    g += start
                    m = min(m, start + _first_below(
                        (j + start) * log_rho + log_alg - (n - 1) * log(g)
                        - log_reach, log_rho, n - 1, g, min(m, top) - start))
            if m <= top:
                stop = j + ceil(m - 1e-6) if m > 1.0 else j + 1
                continue
        # the bound cannot meet the target by the cap: a stall, at once
        rounding = (n + 3) * 2.0**-53 * _abs_sum(terms)
        break
    value = _fsum(terms)
    if value != value:  # a NaN term, whose inf rounding term let j stop at
        # the first check where the bound met the goal
        value, terms = _checked_sum(x, c, sign, n, k, j)
        rounding = (n + 3) * 2.0**-53 * _abs_sum(terms)
    return value, bound + rounding, j


def _extend(terms: list, x: complex, c: complex, sign: int, n: int, j: int,
            stop: int, power: complex) -> complex:
    """Append x^i / (c + sign i)^n for i = j .. stop - 1 to terms in a plain
    loop, power being x^j; returns x^stop.  From the first term whose **
    raises on, _extend_checked forms the terms.  A NaN term, which ** can
    return without raising, is left to _power_sum, whose exact sum shows
    it."""
    keep = terms.append
    try:
        for i in range(sign * j, sign * stop, sign):
            keep(power / (c + i) ** n)
            power *= x
    except (OverflowError, ZeroDivisionError):
        return _extend_checked(terms, x, c, sign, n, i, stop, power)
    return power


def _extend_checked(terms: list, x: complex, c: complex, sign: int, n: int,
                    i: int, stop: int, power: complex) -> complex:
    """_extend from the signed index i on, one term at a time.  Where the
    power (c + i)^n is beyond the double range or underflows to 0, the term
    is formed from the reciprocal (not with ** -n, NaN for complex bases and
    n <= 100), and is inf where it is itself beyond the range.  The power
    can also come out NaN, not raise: for 2 <= n <= 100 ** squares the
    base, and one part of a square can overflow first."""
    keep = terms.append
    for i in range(i, sign * stop, sign):
        try:
            term = power / (c + i) ** n
        except (OverflowError, ZeroDivisionError):
            term = complex(nan)
        if term != term:
            try:
                term = power * (1.0 / (c + i)) ** n
            except OverflowError:
                term = complex(inf)
        keep(term)
        power *= x
    return power


def _checked_sum(x: complex, c: complex, sign: int, n: int, k: int,
                 stop: int):
    """(S, terms) of _power_sum's terms i = k .. stop - 1 formed by
    _extend_checked: where the plain loop left a NaN term."""
    terms: list = []
    _extend_checked(terms, x, c, sign, n, sign * k, stop, x ** k)
    return _fsum(terms), terms


def _fsum(terms: list) -> complex:
    """The terms' exactly rounded sum, part by part; inf beyond the range."""
    try:
        return complex(fsum(map(_REAL, terms)), fsum(map(_IMAG, terms)))
    except (OverflowError, ValueError):
        return complex(inf, inf)


def _abs_sum(terms: list) -> float:
    """math.fsum of the terms' moduli; inf where one is beyond the double
    range (abs raises, or a term formed from an infinity is NaN) or the sum
    is."""
    try:
        total = fsum(map(abs, terms))
    except (OverflowError, ValueError):
        return inf
    return total if total == total else inf


# ---------------------------------------------------------------------------
# Bernoulli numbers (exact rationals; fractions is imported on first use)

_bernoulli_cache: list[Fraction] = []

# B_2, B_4, ..., B_10 for the Euler-Maclaurin tail of _hurwitz_zeta_sum;
# each quotient is correctly rounded, so equal to float(bernoulli(2k))
_BERNOULLI_2K = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66)


def _grow_bernoulli_cache(n: int) -> None:
    # Akiyama-Tanigawa triangle; it yields B_1 = +1/2, flipped below to the
    # B_1 = -1/2 convention (only |B_{2n}| is consumed downstream anyway).
    from fractions import Fraction
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
    require_order(k, 0, "Bernoulli index")
    if k >= len(_bernoulli_cache):
        _grow_bernoulli_cache(k + 16)
    return _bernoulli_cache[k]


def tan_series_coeff(n: int) -> Fraction:
    """Exact coefficient of alpha^(2n-1) in the tangent Maclaurin series:
    2^(2n) (2^(2n) - 1) |B_{2n}| / (2n)!."""
    require_order(n, 1, "tangent-series index")
    p = 2 ** (2 * n)
    return p * (p - 1) * abs(bernoulli(2 * n)) / factorial(2 * n)


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

def _cot_pi_seed(ar: complex) -> tuple[complex, complex]:
    """(cot(pi a), -pi / sin^2(pi a)), the first two Taylor coefficients,
    from sin and cos of the reduced ar = a - round(Re a), off 0, below
    _Q_EXPANSION_IM, and from the q-expansion above it: with
    q = e^(2 pi i ar) and u = q / (1 - q), Im ar > 0,

        cot(pi a) = -i (1 + 2u),  1 / sin^2(pi a) = -4u (1 + u);

    Im ar < 0 is the conjugate."""
    if abs(ar.imag) >= _Q_EXPANSION_IM:
        flip = ar.imag < 0
        q = cmath.exp(_TWO_PI_I * (ar.conjugate() if flip else ar))
        u = q / (1.0 - q)
        e0 = -1j * (1.0 + 2.0 * u)
        e1 = 4.0 * math.pi * u * (1.0 + u)
        return (e0.conjugate(), e1.conjugate()) if flip else (e0, e1)
    s = cmath.sin(math.pi * ar)
    return cmath.cos(math.pi * ar) / s, -math.pi / (s * s)


def cot_pi_taylor(m: int, a: complex, shift: complex = 0j) -> list[complex]:
    """[e_0, ..., e_m] with cot(pi (a + eps)) + shift = sum_j e_j eps^j.

    e_0 and e_1 come from _cot_pi_seed; the rest from cot' = -pi (1 + cot^2),
    (j + 1) e_(j+1) = -pi sum_{i=0..j} e_i e_(j-i) for j >= 1, in floats.
    Im cot(pi a) has the sign of -Im a, so a shift of +-i with the sign of
    Im a cancels cot at large |Im a|; there e_0 is formed as
    (1 + cot^2) / (cot - shift) = -e_1 / (pi (cot - shift)), which does not."""
    require_order(m, 0, "cot_pi_taylor order")
    a = complex(a)
    try:
        ar = a - round(a.real)
    except (OverflowError, ValueError):
        ar = complex(nan)
    if ar != ar:  # Re a not finite, or Im a NaN
        raise DomainError(f"cot(pi a) needs a finite a, got a = {a}")
    if abs(ar) <= 1e-12:
        raise PoleAtInteger(f"cot(pi a) derivative requested at a = {a} (integer pole)")
    e = list(_cot_pi_seed(ar))
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


# ---------------------------------------------------------------------------
# Polylogarithm

def _polylog_sum(n: int, x: complex, tol: float):
    """Direct summation of Li_n(x); returns (value, err_bound, terms).

    At most MAX_TERMS terms: on the unit circle (x != 1), where the bound
    is the integral comparison alone, a sum that cannot meet tol by then
    stalls at once, and the returned bound exceeds tol (callers report it).
    """
    x = complex(x)
    if n == 1:
        # 1 - x rounds by up to 2^-53, and its log by 4e-16 of itself
        log1x = cmath.log(1.0 - x)
        return -log1x, 4e-16 * abs(log1x) + 2.0**-53, 1
    value, bound, j = _power_sum(x, 0.0, 1, n, 1, MAX_TERMS + 1, tol, tol)
    return value, bound, j - 1


def polylog(n: int, x: complex, tol: float = 1e-12) -> complex:
    """Li_n(x) = sum_{k>=1} x^k / k^n for n >= 1, |x| <= 1."""
    require_order(n, 1, "polylog order")
    x = complex(x)
    r = abs(x)
    if not r <= 1.0 + 1e-12:  # NaN fails too
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
    explicit terms and four Bernoulli corrections; the estimate is the fifth
    correction plus the explicit terms' rounding, as _power_sum gives it.
    M above MAX_TERMS is refused with DomainError.
    """
    require_order(n, 2, "hurwitz_zeta order")
    a = complex(a)
    require_off_nonpositive_poles(a)
    if not abs(0.5 * a) <= 0.5 * (MAX_TERMS - 20):  # no overflow; NaN fails
        raise DomainError(f"hurwitz_zeta sums ceil|a| + 20 terms, at most "
                          f"{MAX_TERMS}; got a = {a}")
    m_terms = max(20, math.ceil(abs(a)) + 20)
    head, rounding, _ = _power_sum(1.0, a, 1, n, 0, m_terms, 0.0, 0.0)
    x = a + m_terms
    xinv = 1.0 / x
    tail = x ** (1 - n) / (n - 1) + 0.5 * x ** (-n)
    rising = 1.0
    power = x ** (-n) * xinv
    for k in (1, 2, 3, 4):
        # rising factorial n (n+1) ... (n + 2k - 2)
        rising *= (n + 2 * (k - 1) - 1) * (n + 2 * (k - 1)) if k > 1 else n
        tail += _BERNOULLI_2K[k - 1] / factorial(2 * k) * rising * power
        power *= xinv * xinv
    rising *= (n + 7) * (n + 8)
    err = abs(_BERNOULLI_2K[4] / factorial(10) * rising * power)
    return head + tail, err + rounding, m_terms


def hurwitz_zeta(n: int, a: complex) -> complex:
    """zeta(n, a) = Phi(1, n, a) for integer n >= 2 and a off 0, -1, -2, ..."""
    value, _, _ = _hurwitz_zeta_sum(n, a)
    return value


def polygamma(m: int, a: complex) -> complex:
    """psi^(m)(a) = (-1)^(m+1) m! zeta(m+1, a) for m >= 1; BeyondDoubleRange
    where that is beyond the double range.  m! enters as a float mantissa
    times a power of two, so the product is formed even where m! alone is
    beyond the double range."""
    require_order(m, 1, "polygamma order m")
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
