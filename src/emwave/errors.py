"""Exception types shared across the package, and the checkers of its number, count and array arguments."""

from __future__ import annotations

import numbers

import numpy as np


class EmwaveError(Exception):
    """Base class for all package-specific errors."""


class InvalidDirectionError(EmwaveError):
    """A direction vector is zero or not normalizable."""


class EmptyAmplitudeError(EmwaveError):
    """An amplitude has no grid nodes to sum over."""


class InvalidScaleError(EmwaveError):
    """A scale parameter is zero (only nonzero scales label wavelets)."""


class SingularKernelError(EmwaveError):
    """Kernel evaluation hit the singular set.

    Carries the complex time ``tau`` and the radius ``r`` at which the
    denominator ``|tau^2 + r^2|`` fell below its 1e-30 cutoff.
    """

    def __init__(self, tau: complex, r: float):
        self.tau = tau
        self.r = r
        super().__init__(
            f"kernel denominator |tau^2 + r^2| fell below 1e-30 at tau={tau!r}, r={r!r} "
            "(it is exactly zero only on the singular set s + sigma = 0, r = |t|)"
        )


class GridMismatchError(EmwaveError):
    """Two objects that must share a grid were built on different grids."""


class NonFiniteSampleError(EmwaveError):
    """A user-supplied sampler returned a non-finite value.

    Carries the line parameter ``tau`` at which the sample was taken.
    """

    def __init__(self, tau: float, value: complex):
        self.tau = tau
        self.value = value
        super().__init__(f"sampler returned non-finite value {value!r} at tau={tau!r}")


class ConfigError(EmwaveError):
    """A scenario configuration failed validation.

    Carries the JSON-path of the offending entry.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"config error at {path}: {message}")


def check_count(value, name: str) -> int:
    """``value`` as an int if it is a true integer (a numpy one too, not a bool or a float); else `EmwaveError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise EmwaveError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_real(value, name: str) -> float:
    """``value`` as a float if it is a finite real number (see `check_array`); else `EmwaveError` naming ``name``."""
    return float(check_array(value, name, ()))


def check_array(value, name: str, shape: tuple | None = None, dtype=float) -> np.ndarray:
    """``value`` as a finite array of ``dtype`` (float, or complex) and ``shape``; else `EmwaveError` naming ``name``.

    A bool, a string, ``None``, NaN, +-inf and, for float, a complex value are refused.  ``shape`` is ``None``
    for any shape; a leading ``...`` stands for any leading axes, so ``(..., 3)`` is one point or an array of them.
    """
    try:
        array = np.asarray(value)
        array = array.astype(dtype) if array.dtype.kind == "O" and not array.ndim else array  # a Fraction, a huge int
    except (TypeError, ValueError, OverflowError):  # a ragged or non-numeric sequence
        array = np.asarray(None)
    fits = shape is None or array.shape == shape or shape[:1] == (...,) and array.shape[1 - len(shape) :] == shape[1:]
    kinds = "iuf" if dtype is float else "iufc"
    if array.dtype.kind not in kinds or not fits or np.count_nonzero(np.isfinite(array)) != array.size:
        what = "number" if shape == () else "array" if shape is None else f"array of shape {shape}".replace("Ellipsis", "...")
        got = f"<array of shape {value.shape}>" if isinstance(value, np.ndarray) and value.ndim else f"{value!r:.60}"
        raise EmwaveError(f"{name}={got} is not a finite {'real' if dtype is float else 'complex'} {what}")
    return array.astype(dtype, copy=False)
