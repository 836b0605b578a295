"""Error-controlled integration along complex rays.

Adaptive 7-15 Gauss-Kronrod panels on the ray arg(t) = phi, truncated where
an exponential decay bound certifies the tail.  Each adaptive piece starts
from _START_PANELS equal panels and bisects where the error is, as QUADPACK's
qag does.  Cauchy principal values with one simple on-ray pole are computed
by folding a symmetric window about the pole, which realizes the symmetric
limit exactly and keeps the integrand bounded.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, PoleOffRay, ToleranceNotMet
from .result import EvalResult

__all__ = ["RayIntegrand", "PoleSpec", "integrate_ray", "pv_integrate_ray"]

# 7-15 Gauss-Kronrod pair (QUADPACK dqk15 abscissae/weights).
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299786,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
)
_WGK_CENTER = 0.2094821410847278
# Gauss nodes are _XGK[1], _XGK[3], _XGK[5] plus the centre.
_WG = (0.1294849661688697, 0.2797053914892767, 0.3818300505051189)
_WG_CENTER = 0.4179591836734694

_MAX_PANELS = 2500
_START_PANELS = 4


@dataclass(frozen=True)
class RayIntegrand:
    """Integrand on the ray arg(t) = ray_angle with |f(t)| <~ e^(-decay_rate |t|)
    up to a polynomial factor |t|^growth_degree."""

    evaluate: Callable[[complex], complex]
    ray_angle: float
    decay_rate: float
    growth_degree: int = 0

    def __post_init__(self):
        if not -math.pi / 2 < self.ray_angle < math.pi / 2:
            raise DomainError("ray angle must lie in (-pi/2, pi/2)")
        if not self.decay_rate > 0:
            raise DomainError("decay rate must be positive")


@dataclass(frozen=True)
class PoleSpec:
    location: complex
    order: int = 1


# panels whose evaluation hits a singularity get this sentinel error so the
# refinement keeps attacking them until the budget runs out
_HUGE_ERR = 1e300


def _gk_panel(fun, lo: float, hi: float):
    """One 15-point Kronrod panel; returns (integral, err_estimate)."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    try:
        fc = fun(c)
        k15 = _WGK_CENTER * fc
        g7 = _WG_CENTER * fc
        for i in range(7):
            x = h * _XGK[i]
            pair = fun(c - x) + fun(c + x)
            k15 += _WGK[i] * pair
            if i % 2 == 1:
                g7 += _WG[(i - 1) // 2] * pair
    except (ZeroDivisionError, OverflowError, ValueError):
        return 0j, _HUGE_ERR
    err = abs(h * (k15 - g7))
    if err != err or err == math.inf:  # NaN/inf from the integrand
        return 0j, _HUGE_ERR
    return h * k15, err


def _adaptive(fun, lo, hi, tol, abs_target=None):
    """Adaptive bisection until sum of panel errors meets the target.

    Starts from _START_PANELS equal panels on [lo, hi], whatever its length,
    and bisects the worst panel while the summed estimate misses the target:
    abs_target when given, else the mixed tol * max(1, |total|).
    Returns (value, err, nevals, converged); the final value is re-summed in
    panel order for reproducibility.
    """
    entries = []
    counter = 0
    heap = []
    total_err = 0.0
    total_val = 0j
    width = (hi - lo) / _START_PANELS
    for i in range(_START_PANELS):
        a = lo + i * width
        b = hi if i == _START_PANELS - 1 else lo + (i + 1) * width
        val, err = _gk_panel(fun, a, b)
        heapq.heappush(heap, (-err, counter, a, b, val, err))
        counter += 1
        total_err += err
        total_val += val
    nevals = 15 * _START_PANELS
    while True:
        target = abs_target if abs_target is not None else tol * max(
            1.0, abs(total_val)
        )
        if total_err <= target:
            converged = True
            break
        if counter >= _MAX_PANELS:
            converged = False
            break
        _, _, a, b, val, err = heapq.heappop(heap)
        total_err -= err
        total_val -= val
        mid = 0.5 * (a + b)
        for aa, bb in ((a, mid), (mid, b)):
            v, e = _gk_panel(fun, aa, bb)
            heapq.heappush(heap, (-e, counter, aa, bb, v, e))
            counter += 1
            total_err += e
            total_val += v
        nevals += 30
    panels = sorted(heap, key=lambda item: item[2])
    value = 0j
    err = 0.0
    for _, _, _, _, val, e in panels:
        value += val
        err += e
    return value, err, nevals, converged


def _safe_abs(fun, u):
    try:
        return abs(fun(u))
    except (ZeroDivisionError, OverflowError):
        return math.inf


def _truncation_point(f: RayIntegrand, tol: float, ray_fun) -> float:
    """T with a certified tail bound: base point from the decay rate, a
    growth-degree correction, then empirical extension while the integrand
    envelope at the cut stays above tol * decay / 4."""
    r = f.decay_rate
    budget = math.log(1.0 / min(tol, 0.1)) + 5.0
    t_cut = budget / r
    for _ in range(2):
        t_cut = (budget + f.growth_degree * math.log1p(t_cut)) / r
    while t_cut < 1e6:
        env = max(
            _safe_abs(ray_fun, t_cut),
            _safe_abs(ray_fun, 1.031 * t_cut),
            _safe_abs(ray_fun, 1.092 * t_cut),
        )
        if env / r <= 0.25 * tol:
            break
        t_cut *= 1.3
    return t_cut


def integrate_ray(f: RayIntegrand, tol: float) -> EvalResult:
    """Integral of a pole-free integrand over the full ray, tail included."""
    phase = cmath.exp(1j * f.ray_angle)

    def ray_fun(u):
        return f.evaluate(u * phase) * phase

    t_cut = _truncation_point(f, tol, ray_fun)
    value, err, nevals, ok = _adaptive(ray_fun, 0.0, t_cut, 0.75 * tol)
    err += 0.25 * tol  # certified tail remainder
    result = EvalResult(value, err, "ray", nevals)
    if not ok:
        raise ToleranceNotMet(
            f"ray integral stalled at error {err:.3g} (tol {tol:.3g})", result
        )
    return result


def pv_integrate_ray(f: RayIntegrand, pole: PoleSpec, tol: float) -> EvalResult:
    """Cauchy principal value with one simple pole on the ray.

    The window pole +- delta e^{i phi} is folded: g(u) = f(t0 + u e^{i phi})
    + f(t0 - u e^{i phi}) is regular at u -> 0 for a simple pole, so the
    symmetric limit needs no shrinking excision.
    """
    if pole.order != 1:
        raise DomainError("only simple poles are supported")
    phase = cmath.exp(1j * f.ray_angle)
    t0 = complex(pole.location)
    proj = t0 * cmath.exp(-1j * f.ray_angle)
    if abs(proj.imag) > 1e-10 * max(1.0, abs(proj)) or proj.real <= 0:
        raise PoleOffRay(
            f"pole {t0} does not lie on the ray arg(t) = {f.ray_angle:.6g}"
        )
    u0 = proj.real
    delta = min(u0 / 2.0, 1.0)

    def ray_fun(u):
        return f.evaluate(u * phase) * phase

    def folded(u):
        v = u * phase
        return (f.evaluate(t0 + v) + f.evaluate(t0 - v)) * phase

    # Regularity guard: a simple on-ray pole folds to a bounded integrand.
    g_small = _safe_abs(folded, 1e-6 * delta)
    g_mid = _safe_abs(folded, 0.5 * delta)
    if g_small > 1e6 * (g_mid + 1.0):
        raise PoleOffRay(
            "folded integrand blows up at the declared pole; "
            "pole location or order is wrong"
        )

    t_cut = max(_truncation_point(f, tol, ray_fun), u0 + delta + 1.0)

    # Coarse single-panel scan fixes the absolute refinement target, so that
    # cancellation between the window and the outer pieces is respected.
    coarse = (
        _gk_panel(ray_fun, 0.0, u0 - delta)[0]
        + _gk_panel(ray_fun, u0 + delta, t_cut)[0]
        + _gk_panel(folded, 0.0, delta)[0]
    )
    abs_target = 0.25 * tol * max(1.0, abs(coarse))

    value = 0j
    err = 0.0
    nevals = 45
    converged = True
    pieces = (
        (ray_fun, 0.0, u0 - delta),
        (folded, 0.0, delta),
        (ray_fun, u0 + delta, t_cut),
    )
    for fun, lo, hi in pieces:
        v, e, ne, ok = _adaptive(fun, lo, hi, tol, abs_target=abs_target)
        value += v
        err += e
        nevals += ne
        converged = converged and ok
    err += 0.25 * tol  # tail remainder beyond t_cut
    result = EvalResult(value, err, "pv-ray", nevals)
    if not converged:
        raise ToleranceNotMet(
            f"principal value stalled at error {err:.3g} (tol {tol:.3g})",
            result,
        )
    return result
