"""Exception types raised across the package."""

import numpy as np


class SubchanError(Exception):
    """Base class for all package-specific errors."""


class NotPrimePowerError(SubchanError, ValueError):
    """Field size is not a prime power in the supported range."""


class FieldMismatchError(SubchanError, ValueError):
    """Operands belong to different finite fields."""


class DimensionMismatchError(SubchanError, ValueError):
    """Matrix or subspace dimensions are incompatible."""


class AmbientMismatchError(SubchanError, ValueError):
    """Subspaces live in different ambient spaces."""


class InvalidRankError(SubchanError, ValueError):
    """Requested rank is outside [0, min(n, m)]."""


class EnumerationTooLargeError(SubchanError, ValueError):
    """An enumeration would exceed the configured size cap."""


class DistributionInvalidError(SubchanError, ValueError):
    """A probability vector fails validation (negative mass, bad sum)."""


class ObservationOutOfRangeError(SubchanError, ValueError):
    """An observed rank or deficiency lies outside [0, h]."""


class InsufficientDataError(SubchanError, ValueError):
    """An empirical estimate was requested from an empty observation stream."""


class NotRowStochasticError(SubchanError, ValueError):
    """A transition matrix has negative entries or rows not summing to one."""


class InvalidParameterError(SubchanError, ValueError):
    """An argument, matrix entry or setting has the wrong type or value."""


class NonConvergenceError(SubchanError, RuntimeError):
    """Iterative solver hit its iteration cap before reaching tolerance.

    Carries the best solution found so far in ``solution``.
    """

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution


def _check_int(name: str, value, minimum: int, error=InvalidParameterError) -> int:
    """value as an int; a non-integer (bool included) raises
    InvalidParameterError, an integer below minimum raises ``error``."""
    message = f"{name} must be an integer >= {minimum}, got {value!r}"
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParameterError(message)
    if value < minimum:
        raise error(message)
    return int(value)
