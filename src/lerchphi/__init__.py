"""Lerch transcendent Phi(z, n, a) for positive integer order n.

Four cross-validating evaluation routes (series, exponential-kernel
integral, principal-value ray representation and inverse-argument
expansion; phi_integer_a is another name for phi_inverse), the region
classifier whose Region picks the dispatcher's routes, and residual checks
for the symmetry relation and the surrounding identity web.
"""

from .engine import (
    LerchQuery,
    Region,
    classify,
    extended_polylog,
    phi,
    phi_integer_a,
    phi_integral,
    phi_inverse,
    phi_pv,
    phi_series,
    symmetry_transform,
)
from .errors import (
    BeyondDoubleRange,
    DivergentAtOne,
    DomainError,
    LerchError,
    PoleAtInteger,
    PoleAtNonPositiveInteger,
    PoleOffRay,
    ToleranceNotMet,
)
from .identities import (
    residual_hurwitz_reflection,
    residual_pde,
    residual_polygamma_reflection,
    residual_s_ladder,
    residual_shift,
    residual_symmetry,
)
from .quadrature import RayIntegrand, integrate_ray, pv_integrate_ray
from .result import EvalResult
from .special_functions import (
    bernoulli,
    cot_pi_taylor,
    hurwitz_zeta,
    polygamma,
    polylog,
    tan_series_coeff,
)

__version__ = "0.1.0"
