"""Exception types shared across the library."""


class LerchError(Exception):
    """Base class for every library-specific error."""


class DomainError(LerchError, ValueError):
    """Arguments fall outside the validity region of the requested route."""


class PoleAtInteger(DomainError):
    """cot(pi a) or one of its derivatives was requested at integer a."""


class PoleAtNonPositiveInteger(DomainError):
    """a sits (numerically) on one of the poles 0, -1, -2, ... of Phi(z, n, a)."""


class DivergentAtOne(DomainError):
    """Li_1(x) requested at x = 1, where the series diverges."""


class BeyondDoubleRange(DomainError):
    """The value is beyond the double range; phi ends its route row there,
    since no route can return it.  A finite value with an infinite error
    bound is a stall, ToleranceNotMet, not this."""


class PoleOffRay(DomainError):
    """Principal-value pole off the open right half-plane, or not simple."""


class ToleranceNotMet(LerchError):
    """Requested tolerance could not be certified.

    ``result`` is the raising route's own best EvalResult, built as on
    success (same scaling and method tag), with its honest error estimate.
    Every raiser passes one.
    """

    def __init__(self, message, result):
        super().__init__(message)
        self.result = result
