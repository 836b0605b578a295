"""Error-controlled integration along complex rays.

Double-exponential trapezoid rules (Takahasi & Mori, Publ. RIMS 9, 1974):
exp-sinh, u = c + s e^((pi/2) sinh x), on [c, oo) and tanh-sinh,
u = L (1 + tanh((pi/2) sinh x)) / 2, on [0, L].  One driver, _de_sum, halves
the step in x at each level, so that a level adds only the odd nodes, and
estimates the error from the difference of successive levels, a rounding
floor and the last kept terms.  The difference d_L of levels L and L-1 is
the error of level L-1; a rule's error roughly squares with each halving,
so once the contraction d_L/d_(L-1) is no slower than d_(L-1)/d_(L-2), the
error of level L is estimated as d_L^2/d_(L-1) (Bailey, Jeyabalan & Li,
Experimental Math. 14, 2005), and a piece stops a level sooner than d_L
alone would allow.  A principal value runs along the ray through its one
simple pole t0, so the pole fixes the ray, and folds [0, 2 t0] about the
pole; the caller supplies the fold, as only it can form f(t0 + v) +
f(t0 - v) without cancellation.

The tail of a principal value, from 2 t0 to infinity, need not follow the
pole's ray.  Where f is analytic in the wedge with apex 2 t0 between the
pole's ray and the tail's ray, and decays across it, Cauchy's theorem lets
the tail run along any ray of that wedge; the caller picks the one on which
f decays fastest.  The rule converges at a rate set by the distance from
the path to the nearest singularity (Mori & Sugihara, J. Comput. Appl. Math.
127, 2001), so a tail that keeps clear of poles next to the pole's ray also
stops at a low level.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Callable

from .errors import DomainError, PoleOffRay, ToleranceNotMet
from .result import EvalResult

__all__ = ["RayIntegrand", "integrate_ray", "pv_integrate_ray"]

_H0 = 0.5  # step in x at level 0
# nodes lie in |x| <= _X_MAX[tanh_sinh]; beyond 3.2 the tanh-sinh weights
# are below 2^-55, and next to a folded pole such nodes add only rounding
_X_MAX = {False: 4.5, True: 3.2}
_MAX_NODES = 37_500


class RayIntegrand:
    """Integrand on the ray arg(t) = ray_angle with |f(t)| <~ e^(-decay_rate |t|)
    up to a polynomial factor |t|^growth_degree."""

    __slots__ = ("evaluate", "ray_angle", "decay_rate", "growth_degree")

    def __init__(self, evaluate: Callable[[complex], complex],
                 ray_angle: float, decay_rate: float, growth_degree: int = 0):
        if not -math.pi / 2 < ray_angle < math.pi / 2:
            raise DomainError("ray angle must lie in (-pi/2, pi/2)")
        if not decay_rate > 0:
            raise DomainError("decay rate must be positive")
        self.evaluate, self.ray_angle, self.decay_rate, self.growth_degree = (
            evaluate, ray_angle, decay_rate, growth_degree)


def _node(tanh_sinh: bool, x: float):
    """(offset, weight) at x of the unit tanh-sinh map onto [0, 1], or of
    the unit exp-sinh map onto [0, oo)."""
    y, dy = 0.5 * math.pi * math.sinh(x), 0.5 * math.pi * math.cosh(x)
    if tanh_sinh:
        q = math.exp(-2.0 * abs(y))
        return (1.0 if x >= 0 else q) / (1.0 + q), 2.0 * q / (1.0 + q)**2 * dy
    return math.exp(y), dy * math.exp(y)


def _sides(tanh_sinh: bool, level: int):
    """(first x, step in x, node count) of the nodes that the level adds on
    each side of x = 0, right side first, ordered outward."""
    h = _H0 / 2**level
    step = 2 * h if level else h
    return tuple((sign * start, sign * step,
                  int((_X_MAX[tanh_sinh] - start) / step) + 1)
                 for start, sign in ((h if level else 0.0, 1.0), (h, -1.0)))


def _table_size(tanh_sinh: bool, level: int) -> int:
    """Nodes in the level's table, counted without building it."""
    return sum(count for _, _, count in _sides(tanh_sinh, level))


@functools.cache
def _nodes(tanh_sinh: bool, level: int):
    """(right, left): the (offset, weight) pairs of _sides(tanh_sinh, level).
    Built on first use, never at import."""
    return tuple(tuple(_node(tanh_sinh, first + j * step) for j in range(count))
                 for first, step, count in _sides(tanh_sinh, level))


def _level_sums(piece, level: int, cut: float, grow: float = 0.0):
    """(sum of terms, sum of their moduli, last kept moduli, nodes) of the
    nodes the level adds to piece = (tanh_sinh, fun, lo, scale), each side
    summed outward until a term falls below cut max(1, grow |sum so far|);
    such a side counts that cut, not its last term, among the last kept.
    A tanh-sinh piece walks its whole table: its mass may sit at one end,
    as a folded pole's does at the far end, where a walk stopped by small
    terms next to the middle would never arrive.  Terms are summed on the
    unit map and scaled once at the end."""
    tanh_sinh, fun, lo, scale = piece
    if tanh_sinh:
        cut = 0.0
    unit = abs(scale)
    total = 0j
    size = tail = 0.0
    nodes = 0
    limit = cut / unit
    for side in _nodes(tanh_sinh, level):
        mag = 0.0
        for off, w in side:
            term = fun(lo + scale * off) * w
            mag = abs(term)
            total += term
            size += mag
            nodes += 1
            if mag < limit:
                mag = limit  # the terms past it may rise again
                break
            if grow:
                limit = cut / unit * max(1.0, grow * unit * abs(total))
        tail += mag
    return scale * total, unit * size, unit * tail, nodes


def _rounding(growth_degree: int, exponent: float = 0.0) -> float:
    """Relative rounding error of a term: 10 units of 2^-53, or 3 per power
    of t, as t^g and e^(-r t) near its peak r |t| = g multiply the rounding
    of t and of the exponent's argument g-fold; plus exponent, a bound on
    |c t| where the terms lie, for a factor e^(c t) whose argument's
    rounding the peak does not bound."""
    return 2.0**-53 * (max(10, 3 * (growth_degree + 1)) + exponent)


def _refine(piece, first, share: float, rounding: float):
    """(value, error estimate, nodes, converged) of one piece from its level-0
    sums.  Levels are added until the error estimate of the last one is at
    most share, or past _MAX_NODES walked nodes, or before a level whose
    table would hold more than _MAX_NODES.  With d_L = |I_L - I_(L-1)|, that
    estimate is d_L^2/d_(L-1) where the contraction speeds up, d_L/d_(L-1)
    <= d_(L-1)/d_(L-2) < 1, and d_L from level 2 on otherwise.  A zero or
    growing earlier difference leaves no contraction to extrapolate.  The
    estimate returned is that one (without convergence the larger of the
    last two differences, which are then noise of one size) plus a rounding
    floor, rounding times the sum of the moduli, and the last kept terms."""
    total, size, tail, nodes = first
    value, diff, before = _H0 * total, math.inf, math.inf
    level = 0
    while cmath.isfinite(value):
        level += 1
        h = _H0 / 2**level
        part, part_size, tail, count = _level_sums(piece, level, 1e-4 * share)
        total += part
        size += part_size
        nodes += count
        last, value = value, h * total
        diff, before, older = abs(value - last), diff, before
        if 0 < before < older and diff / before <= before / older:
            estimate = diff * (diff / before)
            done = estimate <= share
        else:
            estimate = diff
            done = level >= 2 and diff <= share
        if (done or 2 * nodes > _MAX_NODES
                or _table_size(piece[0], level + 1) > _MAX_NODES):
            return (value, (estimate if done else max(diff, before))
                    + rounding * h * size + tail, nodes, done)
    return value, math.inf, nodes, False


def _de_sum(pieces, tol: float, method: str, rounding: float) -> EvalResult:
    """Sum of the integrals of the pieces (tanh_sinh, fun, lo, scale), each
    of fun over t = lo + scale * offset, by the trapezoid rule in x; a term
    rounds to a relative error of at most rounding.

    Level 0 walks until a term falls below 2.5e-5 tol max(1, |the piece's
    running sum|), which stops it before the integrand's factors overflow.
    Its sum fixes the target 0.25 tol max(1, |level-0 sum|), shared evenly
    by the pieces, which walk later levels to 1e-4 of their share.  If a
    piece does not converge, the estimate misses 4 times the target or the
    integrand fails, ToleranceNotMet carries the result.
    """
    try:
        firsts = [_level_sums(piece, 0, 2.5e-5 * tol, _H0) for piece in pieces]
        level0 = abs(_H0 * sum(f[0] for f in firsts))
        share = 0.25 * tol * max(1.0, level0) / len(pieces)
        value, err, nodes, converged = (
            sum(col) for col in zip(*(_refine(piece, first, share, rounding)
                                      for piece, first in zip(pieces, firsts))))
    except (ArithmeticError, ValueError):  # fun or abs(NaN) raised (stale errno)
        value, err, nodes, converged = complex(math.nan), math.inf, 0, 0
    result = EvalResult(value, err, method, nodes)
    if converged < len(pieces) or not err <= 4 * len(pieces) * share:
        raise ToleranceNotMet(
            f"{method} quadrature stalled at error {err:.3g} (tol {tol:.3g})",
            result,
        )
    return result


def _exp_sinh(f: RayIntegrand, lo: complex):
    """The exp-sinh piece of f from lo along the ray, with the scale
    max(1, growth_degree) / decay_rate, where |t|^g e^(-r |t|) peaks."""
    scale = max(1, f.growth_degree) / f.decay_rate
    return (False, f.evaluate, lo, scale * cmath.exp(1j * f.ray_angle))


def integrate_ray(f: RayIntegrand, tol: float) -> EvalResult:
    """Integral of a pole-free integrand over the full ray, tail included."""
    return _de_sum((_exp_sinh(f, 0j),), tol, "ray", _rounding(f.growth_degree))


def pv_integrate_ray(pole: complex, fold: Callable[[float], complex],
                     tail: RayIntegrand, tol: float,
                     exponent_rate: float = 0.0) -> EvalResult:
    """Cauchy principal value of f along the ray arg t = phi through its one
    simple pole t0 = u0 e^(i phi); PoleOffRay unless Re t0 > 0.

    fold(u) must return (f(t0 + u e^(i phi)) + f(t0 - u e^(i phi))) e^(i phi),
    which is regular at u -> 0 for a simple pole; then
    PV = int_0^u0 fold (tanh-sinh) + int_2t0^oo tail (exp-sinh), where the
    second integral runs from 2 t0 along the ray arg = tail.ray_angle.

    The caller's duty: tail.evaluate is f, analytic in the closed wedge with
    apex 2 t0 between the rays arg = phi and arg = tail.ray_angle, and it
    decays across that wedge, so that by Cauchy's theorem the tail along
    either ray is the same; a tail along the pole's ray always qualifies.
    exponent_rate is |c| where f's decay comes from a factor e^(c t), whose
    value rounds with c t; both pieces reach |t| = 2 |t0|, so exponent_rate
    2 |t0| joins the rounding floor.
    """
    t0 = complex(pole)
    if not t0.real > 0:
        raise PoleOffRay(f"pole {t0} is not in the open right half-plane")
    u0 = (t0 * cmath.exp(-1j * cmath.phase(t0))).real

    # Regularity guard: a simple on-ray pole folds to a bounded integrand.
    delta = min(u0 / 2.0, 1.0)
    if abs(fold(1e-6 * delta)) > 1e6 * (abs(fold(0.5 * delta)) + 1.0):
        raise PoleOffRay(
            "folded integrand blows up at the declared pole; "
            "pole location or order is wrong"
        )
    rounding = _rounding(tail.growth_degree, 2.0 * abs(t0) * exponent_rate)
    return _de_sum(((True, fold, 0.0, u0), _exp_sinh(tail, 2.0 * t0)), tol,
                   "pv-ray", rounding)
