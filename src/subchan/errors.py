"""Exception types raised across the package, and the one check of each
input rule: ``_check_type`` (an instance of a package class), ``_check_int``
(an integer, not a bool), ``_check_real`` (a finite int or float, not a
bool), ``_real_array`` and ``_check_probabilities``.  Each
raises a SubchanError subclass, never a bare ValueError or TypeError."""

import math
import sys

import numpy as np

# Mass tolerance of probability vectors and transition-matrix rows.  Checks
# read `not <valid>`, so that NaN, which fails every comparison, is rejected.
_SUM_TOLERANCE = 1e-9


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


def _check_type(name: str, value, cls: type):
    """value itself if it is a ``cls``; anything else raises InvalidParameterError."""
    if not isinstance(value, cls):
        raise InvalidParameterError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def _check_int(name: str, value, minimum: int, error=InvalidParameterError, *, maximum=None) -> int:
    """value as an int; a non-integer (bool included) raises
    InvalidParameterError, an integer outside [minimum, maximum] raises
    ``error`` (no upper bound when maximum is None)."""
    wrong_type = isinstance(value, bool) or not isinstance(value, (int, np.integer))
    if wrong_type or value < minimum or (maximum is not None and value > maximum):
        bounds = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise (InvalidParameterError if wrong_type else error)(f"{name} must be an integer {bounds}, got {value!r}")
    return int(value)


def _check_real(name: str, value, error=InvalidParameterError, *, above: float) -> float:
    """value as a finite float > above; anything else (bool included) raises ``error``."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    huge = isinstance(value, int) and abs(value) > sys.float_info.max  # float() would overflow
    number = float(value) if real and not huge else math.nan
    if not (math.isfinite(number) and number > above):
        raise error(f"{name} must be a finite number > {above}, got {value!r}")
    return number


def _real_array(name: str, value, error, ndim: int) -> np.ndarray:
    """value as a float64 array with ``ndim`` axes; ragged nesting and bool,
    complex, str or object entries raise ``error``."""
    try:
        array = np.asarray(value)
    except ValueError:  # ragged nesting
        raise error(f"{name} must be a {ndim}-D array of real numbers, got ragged nesting") from None
    if array.dtype.kind not in "iuf" or array.ndim != ndim:
        raise error(f"{name} must be a {ndim}-D array of real numbers, got shape {array.shape} of {array.dtype}")
    return array.astype(np.float64, copy=False)


def _check_probabilities(name: str, value, error, size: int | None = None) -> np.ndarray:
    """value as a float64 probability vector: ``size`` entries (any number
    when None), finite, nonnegative and summing to 1 within _SUM_TOLERANCE."""
    vec = _real_array(name, value, error, 1)
    if size is not None and vec.size != size:
        raise error(f"{name} must have {size} entries, got {vec.size}")
    if not np.all(np.isfinite(vec) & (vec >= 0)):
        raise error(f"{name} must be finite and nonnegative")
    if not abs(float(vec.sum()) - 1.0) <= _SUM_TOLERANCE:
        raise error(f"{name} must sum to 1 within {_SUM_TOLERANCE}, got {float(vec.sum())!r}")
    return vec
