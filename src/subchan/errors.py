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


def _check_int(name: str, value, minimum: int, error=InvalidParameterError, *, maximum=None) -> int:
    """value as an int; a non-integer (bool included) raises
    InvalidParameterError, an integer outside [minimum, maximum] raises
    ``error`` (no upper bound when maximum is None)."""
    bounds = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
    message = f"{name} must be an integer {bounds}, got {value!r}"
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParameterError(message)
    if value < minimum or (maximum is not None and value > maximum):
        raise error(message)
    return int(value)
