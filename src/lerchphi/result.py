"""Result record shared by the quadrature backends and the evaluation routes."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EvalResult:
    """Value with an a-posteriori error estimate and work accounting.

    ``err_estimate`` is absolute.  Routes target the mixed criterion
    err <= tol * max(1, |value|); a result that could not be certified is
    raised as ToleranceNotMet, which carries the best EvalResult.  The CLI
    shows such a result with a method tag ending in "(degraded)".
    """

    value: complex
    err_estimate: float
    method: str
    terms_or_nodes: int
