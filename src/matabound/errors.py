"""Exception hierarchy and the integer check shared across the package."""

import numbers


def _check_integer(value, name: str) -> int:
    """``value`` as an int; a value that is not an integer (numpy's pass)
    raises ``ValueError`` naming it as ``name``."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return int(value)


class MatacoverError(Exception):
    """Base class for all errors raised by this package."""


class RankDeficient(MatacoverError):
    """Design matrix does not have full column rank."""


class MissingResponse(MatacoverError):
    """Operation needs a response vector but the problem has none."""


class SingularRestriction(MatacoverError):
    """Restriction quadratic form H_K (X'X)^-1 H_K' is numerically singular.

    Cannot occur for a full-rank design; raised defensively.
    """


class DegenerateFit(MatacoverError):
    """Residual sum of squares is zero (perfect fit); tail areas undefined."""


class BracketFailure(MatacoverError):
    """A tail-area root solve missed its residual tolerance or iteration cap."""


class DomainError(MatacoverError):
    """Argument outside the mathematical domain of the function."""


class QuadratureError(MatacoverError):
    """Numerical integration failed its convergence check."""


class EventMismatch(MatacoverError):
    """Audited replicate: h-event and endpoint-containment coverage disagree.

    This signals an implementation bug, not a statistical failure.
    """
