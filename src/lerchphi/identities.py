"""Residual checks for the identity web.

Each operation returns |left - right| for one identity, with the two sides
evaluated through independent code paths wherever the regions allow, so a
small residual certifies cross-implementation agreement rather than
self-consistency.  Identities involving numerical derivatives, the order
ladder and the PDE, which is the ladder's down rung at order n + 1, carry
looser tolerances (1e-6..1e-7) than the algebraic ones (1e-9..1e-10):
central differencing noise dominates there.  The reflections read their cot
side from cot_pi_taylor's Taylor coefficients, as the routes do.
"""

from __future__ import annotations

import math

from .engine import degrade, phi, symmetry_transform
from .errors import DomainError
from .special_functions import cot_pi_taylor, hurwitz_zeta, polygamma

__all__ = [
    "residual_shift",
    "residual_s_ladder",
    "residual_pde",
    "residual_symmetry",
    "residual_hurwitz_reflection",
    "residual_polygamma_reflection",
]

# Step for central differences; one Richardson step kills the h^2 term.
_FD_STEP = 1e-5


def _inner_tol(tol: float) -> float:
    return min(1e-12, 0.01 * tol)


def _richardson(fn, x, h):
    d1 = (fn(x + h) - fn(x - h)) / (2 * h)
    d2 = (fn(x + 0.5 * h) - fn(x - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def _phi_within(z, n, a, inner, abs_budget=0.0):
    """Evaluate Phi, retrying with a proportionally tighter tolerance when the
    reported error exceeds the absolute budget (no budget, no retry); a
    stall gives its carried value, and the record then fails by its
    residual; an infinite estimate, which no tolerance meets, stands."""
    res = degrade(phi, z, n, a, inner)
    if math.inf > res.err_estimate > abs_budget > 0:
        res = degrade(phi, z, n, a, inner * abs_budget / res.err_estimate)
    return res.value


def _down_rung(z, n, a, inner):
    """(Phi(z,n-1,a), Phi(z,n,a), dPhi(z,n,a)/dz): the terms of the order
    ladder's down step, which at order n + 1 is the defining PDE."""
    hz = _FD_STEP * max(1.0, abs(z))
    dz = _richardson(lambda t: _phi_within(t, n, a, inner), z, hz)
    return _phi_within(z, n - 1, a, inner), _phi_within(z, n, a, inner), dz


def residual_shift(z, n, a, tol: float = 1e-10) -> float:
    """|Phi(z,n,a+1) - (Phi(z,n,a) - a^-n)/z|.

    The right side divides by z after subtracting a^-n, which amplifies the
    evaluation error of Phi(z,n,a) by 1/|z|; the inner tolerance is budgeted
    accordingly.
    """
    z, a = complex(z), complex(a)
    if z == 0:
        raise DomainError("shift identity needs z != 0")
    inner = _inner_tol(tol)
    budget = 0.05 * tol
    left = _phi_within(z, n, a + 1, inner, budget)
    right = (_phi_within(z, n, a, inner, budget * abs(z)) - a ** (-n)) / z
    return abs(left - right)


def residual_s_ladder(z, n, a, tol: float = 1e-6):
    """Residuals of the order ladder.

    down: |Phi(z,n-1,a) - a Phi(z,n,a) - z dPhi/dz|   (needs n >= 2)
    up:   |Phi(z,n+1,a) + (1/n) dPhi/da|
    """
    z, a = complex(z), complex(a)
    if n < 2:
        raise DomainError("down-check needs n >= 2")
    inner = _inner_tol(tol)
    lower, value, dz = _down_rung(z, n, a, inner)
    down = abs(lower - a * value - z * dz)
    ha = _FD_STEP * max(1.0, abs(a))
    da = _richardson(lambda t: _phi_within(z, n, t, inner), a, ha)
    up = abs(_phi_within(z, n + 1, a, inner) + da / n)
    return down, up


def residual_pde(z, n, a, tol: float = 1e-6) -> float:
    """Residual of the defining PDE, algebraized at order n + 1:
    |z dPhi(z,n+1,a)/dz + a Phi(z,n+1,a) - Phi(z,n,a)|, the down rung of
    the order ladder at n + 1."""
    z, a = complex(z), complex(a)
    value, upper, dz = _down_rung(z, n + 1, a, _inner_tol(tol))
    return abs(z * dz + a * upper - value)


def residual_symmetry(z, n, a, tol: float = 1e-9) -> float:
    """|Phi(z,n,a) + (-1)^n z^-1 Phi(1/z,n,1-a) - trig term|, the two Phi
    values coming from distinct routes (series inside, inverse outside).

    Evaluation errors are budgeted against the absolute tolerance; the
    partner value is amplified by 1/|z|, so its budget shrinks with |z|.
    """
    z, a = complex(z), complex(a)
    inner = min(0.05 * tol, 1e-11)
    partner, trig = symmetry_transform(z, n, a)
    budget = 0.05 * tol
    v1 = _phi_within(z, n, a, inner, budget)
    v2 = _phi_within(partner.z, partner.n, partner.a, inner, budget * abs(z))
    return abs(v1 + (-1.0) ** n / z * v2 - trig)


def residual_hurwitz_reflection(n, a) -> float:
    """|zeta(n,a) + (-1)^n zeta(n,1-a) - (-1)^(n-1) pi e_(n-1)|, the symmetry
    relation at z = 1; e_j = d^j cot(pi a)/j! (cot_pi_taylor)."""
    a = complex(a)
    left = hurwitz_zeta(n, a) + (-1.0) ** n * hurwitz_zeta(n, 1.0 - a)
    right = (-1.0) ** (n - 1) * math.pi * cot_pi_taylor(n - 1, a)[n - 1]
    return abs(left - right)


def residual_polygamma_reflection(m, a) -> float:
    """|psi^(m)(a) - (-1)^m psi^(m)(1-a) + pi m! e_m|, e_m by cot_pi_taylor."""
    a = complex(a)
    left = polygamma(m, a) - (-1.0) ** m * polygamma(m, 1.0 - a)
    return abs(left + math.pi * (math.factorial(m) * cot_pi_taylor(m, a)[m]))
