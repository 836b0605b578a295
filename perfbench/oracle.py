"""Reference values at 30 digits, computed outside the timed loop.

Inside the unit disc the reference is ``mpmath.lerchphi``.  Outside it,
mpmath's lerchphi follows another continuation than the library's principal
branch for complex a, so the reference there is ``mpmath.quad`` of the
integral representation

    Phi(z, n, b) = 1/(n-1)! int_0^oo t^(n-1) e^(-b t) / (1 - z e^(-t)) dt,

moved to Re b >= 1 with the shift identity
Phi(z, n, a) = sum_{m<k} z^m / (a+m)^n + z^k Phi(z, n, a+k).
"""

from __future__ import annotations

import math

import mpmath

_DPS = 30


def reference(z: complex, n: int, a: complex):
    """(value, error bound of the reference)."""
    with mpmath.workdps(_DPS):
        zz, aa = mpmath.mpc(z), mpmath.mpc(a)
        if abs(z) < 1.0:
            value = mpmath.lerchphi(zz, n, aa)
            err = 0
        else:
            k = max(0, math.ceil(1.0 - a.real))
            head = mpmath.fsum(zz ** m / (aa + m) ** n for m in range(k))
            b = aa + k

            def integrand(t):
                return t ** (n - 1) * mpmath.exp(-b * t) / (1 - zz * mpmath.exp(-t))

            # the integrand comes closest to its poles at t = log|z|
            split = max(mpmath.log(abs(zz)), mpmath.mpf("1e-3"))
            tail, quad_err = mpmath.quad(integrand, [0, split, mpmath.inf],
                                         error=True)
            g = mpmath.factorial(n - 1)
            value = head + zz ** k * tail / g
            err = abs(zz ** k) * quad_err / g
        # a few digits below the working precision, plus rounding to double
        err += mpmath.mpf(10) ** (5 - _DPS) * max(1, abs(value))
        return complex(value), float(err) + 2.0 ** -52 * float(abs(value))


def check(value: complex, err_estimate: float, tol: float, ref):
    """(violation, miss) for one result against its reference.

    A miss is a true error above err_estimate plus the reference's error.
    A violation breaks the result's own claim: a result certified at tol
    (err_estimate <= tol * max(1, |value|)) claims a true error within that
    target, an uncertified one only its err_estimate.  NaN never passes.
    """
    ref_value, ref_err = ref
    error = abs(value - ref_value)
    target = tol * max(1.0, abs(value))
    allowed = target if err_estimate <= target else err_estimate
    return not error <= allowed + ref_err, not error <= err_estimate + ref_err
