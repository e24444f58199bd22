"""Exception types shared across the package."""


class DysRatesError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedOrientationError(DysRatesError):
    """A transform would produce a left half-plane {Re z <= a}, which the
    region model does not represent."""


class UnsupportedInversionError(DysRatesError):
    """z -> 1/z applied to an atom whose image is not representable
    (0 interior to a half-plane, or the image is a left half-plane)."""


class EmptyRegionError(DysRatesError):
    """The atoms of a region have empty intersection."""


class UnboundedRegionError(DysRatesError):
    """An operation that needs a bounded region (or finite boundary) was
    applied to an unbounded one."""


class InvalidClassError(DysRatesError):
    """Operator-class description violates a consistency requirement."""


class SingularResolventError(DysRatesError):
    """A resolvent value of 0 cannot be realized as an invertible map."""


class PreconditionError(DysRatesError):
    """A theorem or operation precondition fails.  The message names the
    violated inequality."""

    def __init__(self, inequality: str, detail: str = ""):
        self.inequality = inequality
        msg = inequality if not detail else f"{inequality} ({detail})"
        super().__init__(msg)
