"""Set-up cost in a fresh interpreter: import lerchphi and lerchphi.cli, then
make one call per route.  Prints the seconds from before the import to after
the last call.

    python3 -I perfbench/fresh_setup.py <checkout>/src
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import cmath  # noqa: E402

import lerchphi  # noqa: E402
import lerchphi.cli  # noqa: E402,F401

a = 0.3 + 0.1j
inside, outside = 0.5 * cmath.exp(0.7j), 10.0 * cmath.exp(0.7j)
lerchphi.phi_series(inside, 2, a)
lerchphi.phi_integral(inside, 2, a)
lerchphi.phi_pv(inside, 3, 0.75)
lerchphi.phi_inverse(outside, 2, a)
lerchphi.phi_integer_a(outside, 2, 1)
print(time.perf_counter() - start)
