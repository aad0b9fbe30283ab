"""Exception hierarchy and the integer check shared across the package.

The type of an exception carries the CLI's exit-code rule.  Bad input
raises ``ValueError`` (exit 2), ``RankDeficient`` included.  A
``MatacoverError`` means that a computation on valid input failed its own
check (exit 3).
"""

import numbers


def _check_integer(value, name: str, least: int | None = None) -> int:
    """``value`` as an int; a value that is not an integer (numpy's pass),
    or lies below ``least`` if that is given, raises ``ValueError`` naming
    it as ``name``."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}")
    return int(value)


class MatacoverError(Exception):
    """A computation on valid input failed its own check.

    Bad input is a ``ValueError`` instead, and no subclass of this one is.
    """


class RankDeficient(ValueError):
    """Design matrix does not have full column rank: bad input, so a
    ``ValueError`` and not a ``MatacoverError``."""


class SingularRestriction(MatacoverError):
    """Restriction quadratic form H_K (X'X)^-1 H_K' is numerically singular.

    Cannot occur for a full-rank design; raised defensively.
    """


class DegenerateFit(MatacoverError):
    """Residual sum of squares is zero (perfect fit); tail areas undefined."""


class BracketFailure(MatacoverError):
    """A tail-area root solve missed its residual tolerance or iteration cap."""


class QuadratureError(MatacoverError):
    """Numerical integration failed its convergence check."""


class EventMismatch(MatacoverError):
    """Audited replicate: h-event and endpoint-containment coverage disagree.

    This signals an implementation bug, not a statistical failure.
    """
