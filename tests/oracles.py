"""Reference implementations that the tests compare the library against."""

import cmath
import math
from math import factorial

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
