"""Argument-validation helpers.

All public entry points of the toolkit validate their arguments through
these helpers so that error messages are consistent and informative.
Each helper raises ``ValueError`` (or ``TypeError`` where appropriate)
with a message that names the offending parameter.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

import numpy as np

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_in",
    "check_array_1d",
    "check_integer",
]


def check_integer(value: Any, name: str) -> int:
    """Check that ``value`` is an integer (bools rejected) and return it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    return int(value)


def check_positive(value: Any, name: str) -> float:
    """Check that ``value`` is a strictly positive finite number."""
    val = float(value)
    if not math.isfinite(val) or val <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return val


def check_non_negative(value: Any, name: str) -> float:
    """Check that ``value`` is a non-negative finite number."""
    val = float(value)
    if not math.isfinite(val) or val < 0:
        raise ValueError(f"{name} must be a non-negative finite number, got {value!r}")
    return val


def check_probability(value: Any, name: str) -> float:
    """Check that ``value`` lies in the closed interval [0, 1]."""
    val = float(value)
    if not (0.0 <= val <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return val


def check_in(value: Any, options: Iterable[Any], name: str) -> Any:
    """Check that ``value`` is one of ``options``."""
    options = tuple(options)
    if value not in options:
        raise ValueError(f"{name} must be one of {options!r}, got {value!r}")
    return value


def check_array_1d(array: Any, name: str, *, dtype=None) -> np.ndarray:
    """Coerce to a 1-D NumPy array, raising if the input is not 1-D."""
    arr = np.asarray(array, dtype=dtype)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr
