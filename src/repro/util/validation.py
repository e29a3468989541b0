"""Argument validation helpers.

These raise ``ValueError``/``IndexError`` with uniform messages so that the
public API fails fast and loudly instead of producing garbage results deep
inside a simulation.
"""

from __future__ import annotations

from typing import Any

import numpy as np


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with *message* unless *condition* holds."""
    if not condition:
        raise ValueError(message)


def check_positive(value: float, name: str, *, strict: bool = True) -> None:
    """Validate that *value* is positive (or non-negative when not strict)."""
    if strict and value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def check_index(index: int, size: int, name: str = "index") -> None:
    """Validate ``0 <= index < size``."""
    if not 0 <= index < size:
        raise IndexError(f"{name}={index} out of range [0, {size})")


def is_power_of_two(value: int) -> bool:
    """Return True iff *value* is a positive integral power of two."""
    return value >= 1 and (value & (value - 1)) == 0


def check_power_of_two(value: int, name: str) -> None:
    """Validate that *value* is a positive power of two.

    The subtree-to-subcube mapping and hypercube collectives both require
    processor counts of the form 2**k.
    """
    if not is_power_of_two(value):
        raise ValueError(f"{name} must be a positive power of two, got {value!r}")


def check_square(shape: tuple[int, ...], name: str = "matrix") -> None:
    """Validate that *shape* describes a square 2-D array."""
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"{name} must be square, got shape {shape!r}")


def check_rhs(b: Any) -> np.ndarray:
    """Validate a right-hand side and return it as a float64 array.

    The solvers are real-valued: a complex or non-numeric *b* raises
    :class:`TypeError` (a cast would silently drop the imaginary part),
    and NaN or infinite entries raise :class:`ValueError` (they would
    only come back as a NaN solution).
    """
    arr = np.asarray(b)
    if arr.dtype.kind not in "biuf":
        raise TypeError(
            f"right-hand side must be real and numeric, got dtype {arr.dtype}"
        )
    arr = arr.astype(np.float64, copy=False)
    if not np.isfinite(arr).all():
        raise ValueError("right-hand side has non-finite (NaN or inf) entries")
    return arr


def as_int(value: Any, name: str) -> int:
    """Coerce numpy/python integers to ``int``, rejecting non-integral input."""
    out = int(value)
    if out != value:
        raise ValueError(f"{name} must be integral, got {value!r}")
    return out
