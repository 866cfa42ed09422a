"""Exception types shared across the package, and the integer and real
checks that raise one for inputs that must be numbers."""
import numbers


class DomainError(ValueError):
    """Input violates a documented precondition (bad measure, bad range, ...)."""


class PreconditionError(ValueError):
    """A structural precondition of an operation does not hold."""


class CapacityError(RuntimeError):
    """Problem size exceeds an explicit enumeration or solver cap."""


class UnsupportedError(RuntimeError):
    """Requested configuration is out of the implemented scope."""


class InternalFault(RuntimeError):
    """Two independent computations of the same quantity disagree."""


def _count(x, least, what) -> int:
    """``x`` as an int; DomainError unless it is an integer, and >=
    ``least`` unless that is None.  Floats and booleans are refused, not
    truncated.  No numpy import: numpy integers are ``numbers.Integral``."""
    if (isinstance(x, bool) or not isinstance(x, numbers.Integral)
            or least is not None and x < least):
        bound = "" if least is None else f" >= {least}"
        raise DomainError(f"{what} must be an integer{bound}, not {x!r}")
    return int(x)


def _real(x, what) -> float:
    """``x`` as a float; DomainError unless it is a real number.  Strings and
    booleans are refused, not converted.  No numpy import: numpy floats and
    integers are ``numbers.Real``."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise DomainError(f"{what} must be a real number, not {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise DomainError(f"{what} is too large for a float") from None
