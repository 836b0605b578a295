"""Result record shared by the quadrature backends and the evaluation routes,
and the one rule by which a route certifies it."""

from __future__ import annotations

import cmath
from typing import NamedTuple

from .errors import ToleranceNotMet


class EvalResult(NamedTuple):
    """Value with an a-posteriori error estimate and work accounting.

    ``err_estimate`` is absolute.  Routes target the mixed criterion
    err <= tol * max(1, |value|), checked by certify; a result that could
    not be certified is raised as ToleranceNotMet, which carries the best
    EvalResult.  The CLI shows such a result with a method tag ending in
    "(degraded)".
    """

    value: complex
    err_estimate: float
    method: str
    terms_or_nodes: int


def certify(value: complex, err: float, method: str, work: int, tol: float,
            stall: Exception | None = None) -> EvalResult:
    """EvalResult(value, err, method, work) if no quadrature stalled, the
    value is finite and its whole estimate err <= tol * max(1, |value|);
    otherwise ToleranceNotMet carrying that result, chained to the stall."""
    result = EvalResult(value, err, method, work)
    if stall is not None:
        raise ToleranceNotMet(f"{method}: {stall}", result) from stall
    # no abs() of a value that is not finite: on a NaN part it can raise
    # OverflowError when an earlier math call left errno at ERANGE
    if not (cmath.isfinite(value) and err <= tol * max(1.0, abs(value))):
        raise ToleranceNotMet(f"{method}: error estimate {err:.3g} above "
                              f"tolerance {tol:.3g}", result)
    return result
