"""Reference implementations that the tests compare the library against."""

import cmath
import math
from math import factorial

import mpmath

from lerchphi.errors import DomainError
from lerchphi.special_functions import _polylog_sum

_PI2 = math.pi ** 2
_PI4 = math.pi ** 4


def phi_integer_a_explicit(w: complex, n: int, N: int) -> complex:
    """Closed forms of Phi(w, n, N) for n <= 5; cross-validation table for
    the generic Laurent finite-part route."""
    w = complex(w)
    if not 1 <= n <= 5:
        raise DomainError("explicit table covers n = 1..5 only")
    lw = cmath.log(w)
    sgn = 1 if cmath.phase(lw) > 0 else -1
    limit_term = {
        1: -lw,
        2: _PI2 / 3.0 - lw ** 2 / 2.0,
        3: _PI2 / 3.0 * lw - lw ** 3 / 6.0,
        4: _PI4 / 45.0 + _PI2 / 6.0 * lw ** 2 - lw ** 4 / 24.0,
        5: _PI4 / 45.0 * lw + _PI2 / 18.0 * lw ** 3 - lw ** 5 / 120.0,
    }[n]
    ksum = sum(w ** k / float(k) ** n for k in range(1, N))
    li_val, _, _ = _polylog_sum(n, 1.0 / w, 1e-14)
    inner = (
        limit_term
        + sgn * 1j * math.pi * lw ** (n - 1) / factorial(n - 1)
        - ksum
        - (-1.0) ** n * li_val
    )
    return w ** (-N) * inner


def shifted_integral(w: complex, n: int, b: complex, dps: int = 30) -> complex:
    """Phi(w, n, b) for w off [1, oo) by mpmath quadrature of

        Phi(w, n, b) = int_0^oo t^(n-1)/(n-1)! e^(-b t) / (1 - w e^(-t)) dt,

    which is the library's continuation there.  The shift is first moved to
    Re b >= 1 with Phi(w, n, b) = sum_{m<k} w^m / (b+m)^n + w^k Phi(w, n, b+k),
    so that the integrand has one peak, at t = (n-1)/Re b.  Where
    Re log w > 0 the pole log w lies next to the path, and the quadrature
    is split at its real part too."""
    with mpmath.workdps(dps):
        ww, bb = mpmath.mpc(w), mpmath.mpc(b)
        k = max(0, math.ceil(1.0 - b.real))
        head = mpmath.fsum(ww ** m / (bb + m) ** n for m in range(k))
        c = bb + k
        log_g = mpmath.loggamma(n)

        def integrand(t):
            # t^(n-1) / (n-1)! without forming either factor
            return (mpmath.exp((n - 1) * mpmath.log(t) - log_g - c * t)
                    / (1 - ww * mpmath.exp(-t)))

        peak = max(n - 1, 1) / c.real
        nodes = [f * peak for f in (0.25, 0.5, 1, 2, 4)]
        pole = mpmath.log(ww).real
        if pole > 0:
            nodes.append(pole)
        nodes = [0] + sorted(nodes) + [mpmath.inf]
        return complex(head + ww ** k * mpmath.quad(integrand, nodes))


def lerch_reference(z: complex, n: int, a: complex, dps: int = 30) -> complex:
    """Phi(z, n, a) at dps digits: mpmath.lerchphi inside the unit disc, and
    shifted_integral outside it, where mpmath follows another continuation
    than the library's principal branch for complex a."""
    if abs(z) < 1.0:
        with mpmath.workdps(dps):
            return complex(mpmath.lerchphi(z, n, a))
    return shifted_integral(z, n, a, dps)
