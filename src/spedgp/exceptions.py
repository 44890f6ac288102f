"""Error types shared across the package, and the three argument rules.

Every count or seed, every rate and every numeric array that the package
reads from a caller, a config or a model file is checked by one of
:func:`check_count`, :func:`check_rate` and :func:`check_array`, which
raise :class:`InvalidInputError` on a value of the wrong type or range.
"""

import math
import numbers

import numpy as np


class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class SingularMatrixError(RuntimeError):
    """Raised when a required matrix factorization or inverse fails."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative solver exhausts its iteration budget.

    The ``residual`` attribute carries the last optimality residual so
    callers can report how far the solve was from its certificate.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class NumericalError(RuntimeError):
    """Raised on internal numerical inconsistencies (negative variances etc.)."""


class FitError(RuntimeError):
    """Raised when every restart of the fit driver fails.

    Carries the per-restart traces collected so far in ``traces``.
    """

    def __init__(self, message: str, traces=None):
        super().__init__(message)
        self.traces = traces


def _real_type(t: type) -> bool:
    # numbers.Real holds the Python and numpy ints and floats, but neither
    # numpy's bool nor a string; Python's bool is an int, and no number here
    return issubclass(t, numbers.Real) and not issubclass(t, bool)


def check_count(name: str, value, minimum: int):
    """value itself when it is a count or a seed: an integer, not a bool,
    at or above minimum."""
    # an int is an integer (a bool's type is bool); the ABC test decides the rest
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        least = "nonnegative" if minimum == 0 else f"at least {minimum}"
        raise InvalidInputError(f"{name} must be {least}, got {value!r}")
    return value


def check_rate(name: str, value):
    """value itself when it is a rate: a finite real >= 0, not a bool or a string."""
    # a float (numpy's float64 is one) is a real; the ABC test decides the rest
    if not ((isinstance(value, float) or _real_type(type(value)))
            and math.isfinite(value) and value >= 0):
        raise InvalidInputError(f"{name} must be finite and nonnegative, got {value!r}")
    return value


def _fits(expected, length) -> bool:
    return expected is None or expected == length


def check_array(name: str, value, shape: tuple | None) -> np.ndarray:
    """value as a float array when it is a numeric array: of the given
    shape, where a None length matches any length and a None shape any
    shape, every entry finite, and none a string, a bool or None."""
    try:
        a = value if isinstance(value, np.ndarray) else np.array(value, dtype=object)
    except ValueError as exc:  # arrays of different shapes nested in a list
        raise InvalidInputError(f"{name}: no array shape, expected {shape}") from exc
    if shape is not None and (len(a.shape) != len(shape)
                              or not all(map(_fits, shape, a.shape))):
        raise InvalidInputError(f"{name}: shape {a.shape}, expected {shape}")
    if not (a.dtype.kind in "iuf"
            or a.dtype == object and all(map(_real_type, set(map(type, a.flat))))):
        raise InvalidInputError(f"{name} must hold real numbers, not strings or booleans")
    a = a.astype(float, copy=False)
    # counting is cheaper than a logical_and reduction on small arrays
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise InvalidInputError(f"{name} must be finite")
    return a
