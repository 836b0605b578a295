"""Auxiliary special functions feeding the Lerch evaluation routes.

Exact rational machinery (Bernoulli numbers, the polynomials giving the
derivatives of cot(pi a)) lives next to the floating-point summations
(polylogarithm, Hurwitz zeta, polygamma) so that the identity checks can
pit independent computations against each other.  Every power sum, here
and in the routes, runs through the one compensated kernel _power_sum.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import (
    DivergentAtOne,
    DomainError,
    PoleAtInteger,
    PoleAtNonPositiveInteger,
    ToleranceNotMet,
)
from .result import EvalResult

__all__ = [
    "bernoulli",
    "tan_series_coeff",
    "CotDerivPolynomial",
    "cot_deriv_polynomial",
    "cot_pi",
    "cot_pi_derivative",
    "cot_pi_derivatives",
    "polylog",
    "hurwitz_zeta",
    "polygamma",
    "dist_to_nearest_integer",
]

# Refusal radius around the poles a = 0, -1, -2, ... shared by every route.
POLE_GUARD = 1e-8

# At and above this |Im a| the derivatives of cot(pi a) come from the
# q-expansion: the polynomial in c = cot(pi a) cancels near c = -+i, losing
# relative accuracy like e^(2 pi |Im a|), and sin(pi a) overflows beyond
# |Im a| ~ 226.  Both forms hold 1e-13 relative at the switch (see
# tests/test_special_functions.py).
_Q_EXPANSION_IM = 0.2

_TWO_PI_I = 2j * math.pi


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
# Compensated power sums

def _power_sum(x: complex, c: complex, sign: int, n: int, k: int,
               k_check: int, cap: int, t_abs: float, t_rel: float):
    """Neumaier-compensated sum_{i=k}^{j-1} x^i / (c + sign*i)^n.

    The one summation kernel of the library: the series, the inverse-argument
    tail, the polylogarithm and the fixed-count heads of the Hurwitz zeta and
    integer-shift sums.  From next index j = k_check on, the remainder is
    bounded by

        rho^j * min(1 / ((1 - rho) g^n), (g - 1)^(1-n) / (n - 1)),

    with rho = |x|, g = j - |c| (since |c + sign*i| >= i - |c|); the first
    part needs rho < 1, the second n >= 2, and the bound is inf where
    neither applies (or g <= 1).  Summation stops at the first such j whose
    bound is <= t_abs or <= t_rel * |S|, or at j = cap.  Returns
    (S, bound, j).
    """
    rho = abs(x)
    abs_c = abs(c)
    if rho < 1.0:
        geo = 1.0 / (1.0 - rho)
        rho_j = rho ** k
    else:
        rho, geo, rho_j = 1.0, 0.0, 1.0  # geo = 0: no geometric part
    xp = x ** k
    kf = float(sign * k)
    sr = si = cr = ci = 0.0
    hypot = math.hypot
    while True:
        try:
            t = xp / (c + kf) ** n
        except OverflowError:
            # not (c + k) ** -n: that is NaN for complex c and n <= 100
            t = xp * (1.0 / (c + kf)) ** n
        tr = t.real
        ti = t.imag
        u = sr + tr
        if abs(sr) >= abs(tr):
            cr += (sr - u) + tr
        else:
            cr += (tr - u) + sr
        sr = u
        u = si + ti
        if abs(si) >= abs(ti):
            ci += (si - u) + ti
        else:
            ci += (ti - u) + si
        si = u
        k += 1
        kf += sign
        xp *= x
        rho_j *= rho
        if k >= k_check:
            g = k - abs_c
            bound = math.inf
            if g > 1.0:
                # negative powers: they underflow where positive ones overflow
                if geo:
                    bound = rho_j * geo * g ** -n
                if n >= 2:
                    second = rho_j * (g - 1.0) ** (1 - n) / (n - 1)
                    if second < bound:
                        bound = second
            if bound <= t_abs or bound <= t_rel * hypot(sr, si) or k >= cap:
                return complex(sr + cr, si + ci), bound, k


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
    c_-1 = 1/pi, the even c_j vanish and c_(2k-1) = -2^(2k) |B_2k| / (2k)!
    pi^(2k-1).  The returned list is shared; do not modify it."""
    while len(_cot_laurent) < order + 2:
        d = len(_cot_laurent) - 1
        if d == -1:
            _cot_laurent.append(1.0 / math.pi)
        elif d % 2 == 0:
            _cot_laurent.append(0.0)
        else:
            k = (d + 1) // 2
            frac = Fraction(2 ** (2 * k)) * abs(bernoulli(2 * k)) / factorial(2 * k)
            _cot_laurent.append(-float(frac) * math.pi ** (2 * k - 1))
    return _cot_laurent


# ---------------------------------------------------------------------------
# Derivatives of cot(pi a) as polynomials in c = cot(pi a)

@dataclass(frozen=True)
class CotDerivPolynomial:
    """d^j/da^j cot(pi a) = pi^j * sum_k coeffs[k] c^k with c = cot(pi a).

    Coefficients are exact integers; the recurrence Q_{j+1} = -(1 + c^2) Q_j'
    (equivalently P_{j+1} = -pi (1 + c^2) P_j' with P_j = pi^j Q_j) holds
    exactly, starting from Q_0 = c.
    """

    degree: int
    coeffs: tuple[int, ...]

    def evaluate(self, c: complex) -> complex:
        acc = 0j
        for coef in reversed(self.coeffs):
            acc = acc * c + coef
        return acc * math.pi ** self.degree


_cot_poly_cache: list[CotDerivPolynomial] = [CotDerivPolynomial(0, (0, 1))]


def cot_deriv_polynomial(j: int) -> CotDerivPolynomial:
    """The j-th derivative of cot(pi a) in polynomial form."""
    if j < 0:
        raise ValueError("derivative order must be >= 0")
    while len(_cot_poly_cache) <= j:
        prev = _cot_poly_cache[-1].coeffs
        dprev = tuple(k * prev[k] for k in range(1, len(prev)))
        nxt = [0] * (len(dprev) + 2)
        for k, coef in enumerate(dprev):
            nxt[k] -= coef
            nxt[k + 2] -= coef
        _cot_poly_cache.append(
            CotDerivPolynomial(len(_cot_poly_cache), tuple(nxt))
        )
    return _cot_poly_cache[j]


# Rows of m! S(j, m), the coefficients of sum_{k>=1} k^j q^k as a polynomial
# in u = q / (1 - q); row j + 1 follows from u (1 + u) d/du of row j.
_q_rows: list[tuple[int, ...]] = [(0, 1)]


def _q_row(j: int) -> tuple[int, ...]:
    while len(_q_rows) <= j:
        prev = _q_rows[-1]
        nxt = [0] * (len(prev) + 1)
        for m in range(1, len(prev)):
            nxt[m] += m * prev[m]
            nxt[m + 1] += m * prev[m]
        _q_rows.append(tuple(nxt))
    return _q_rows[j]


def _cot_pi_q(jmax: int, ar: complex) -> list[complex]:
    """d^j/da^j cot(pi a), j = 0..jmax, for reduced ar = a - round(Re a) off
    the real axis, from the q-expansion

        cot(pi a) = -i (1 + 2 sum_{k>=1} q^k),  q = e^(2 pi i a),  Im a > 0,

    so d^j cot(pi a) = -2i (2 pi i)^j sum_k k^j q^k for j >= 1.  The sums are
    taken in closed form, sum_m m! S(j, m) u^m with u = q / (1 - q): exact,
    and free of the cancellation near c = -i.  Im a < 0 is the conjugate.
    """
    flip = ar.imag < 0
    if flip:
        ar = ar.conjugate()
    q = cmath.exp(_TWO_PI_I * ar)
    u = q / (1.0 - q)
    out = [-1j * (1.0 + 2.0 * u)]
    scale = -2j
    for j in range(1, jmax + 1):
        scale *= _TWO_PI_I
        acc = 0j
        for coef in reversed(_q_row(j)):
            acc = acc * u + coef
        out.append(scale * acc)
    return [v.conjugate() for v in out] if flip else out


def cot_pi(a: complex) -> complex:
    """cot(pi a) for complex a, with argument reduction a -> a - round(Re a)."""
    a = complex(a)
    ar = a - round(a.real)
    if abs(ar.imag) >= _Q_EXPANSION_IM:
        return _cot_pi_q(0, ar)[0]
    s = cmath.sin(math.pi * ar)
    if s == 0:
        raise PoleAtInteger(f"cot(pi a) pole at a = {a}")
    return cmath.cos(math.pi * ar) / s


def cot_pi_derivatives(jmax: int, a: complex) -> list[complex]:
    """[d^j/da^j cot(pi a) for j = 0..jmax], in one pass: the polynomials in
    c = cot(pi a) for |Im a| < _Q_EXPANSION_IM, the q-expansion above."""
    if jmax < 0:
        raise ValueError("derivative order must be >= 0")
    a = complex(a)
    if dist_to_nearest_integer(a) <= 1e-12:
        raise PoleAtInteger(f"cot(pi a) derivative requested at a = {a} (integer pole)")
    ar = a - round(a.real)
    if abs(ar.imag) >= _Q_EXPANSION_IM:
        return _cot_pi_q(jmax, ar)
    c = cot_pi(a)
    return [cot_deriv_polynomial(j).evaluate(c) for j in range(jmax + 1)]


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
    value, bound, j = _power_sum(x, 0.0, 1, n, 1, 2, cap + 1, tol, tol)
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
    if err > tol * max(1.0, abs(value)):
        raise ToleranceNotMet(
            f"polylog({n}, {x}) tail bound {err:.3g} above tolerance",
            EvalResult(value, err, "polylog", terms),
        )
    return value


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
    head, _, _ = _power_sum(1.0, a, 1, n, 0, m_terms, m_terms, 0.0, 0.0)
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
    """psi^(m)(a) = (-1)^(m+1) m! zeta(m+1, a) for m >= 1."""
    if m < 1:
        raise DomainError("polygamma implemented for m >= 1 only")
    return (-1) ** (m + 1) * factorial(m) * hurwitz_zeta(m + 1, a)
