"""Reduction operations for collectives.

A :class:`ReduceOp` pairs a binary combining function with an identity
element; reductions over NumPy arrays are element-wise.  The standard
MPI-like operations are provided as module-level singletons.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

__all__ = ["ReduceOp", "SUM", "PROD", "MAX", "MIN", "LAND", "LOR"]


class ReduceOp:
    """A named, associative, commutative reduction operation.

    Parameters
    ----------
    name:
        Human-readable name used in reprs and error messages.
    func:
        Binary function combining two operands; must accept scalars and
        NumPy arrays.
    identity:
        Identity element (used to reduce an empty contribution list,
        which only happens in degenerate single-rank cases).
    """

    def __init__(self, name: str, func: Callable[[Any, Any], Any], identity: Any):
        self.name = name
        self._func = func
        self.identity = identity

    def reduce(self, values: list) -> Any:
        """Reduce a list of operands left-to-right."""
        if not values:
            return self.identity
        result = values[0]
        for value in values[1:]:
            result = self._func(result, value)
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReduceOp({self.name})"


def _add(a, b):
    return np.add(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else a + b


def _mul(a, b):
    return np.multiply(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else a * b


def _max(a, b):
    return np.maximum(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else max(a, b)


def _min(a, b):
    return np.minimum(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else min(a, b)


def _land(a, b):
    return np.logical_and(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else bool(a) and bool(b)


def _lor(a, b):
    return np.logical_or(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else bool(a) or bool(b)


SUM = ReduceOp("SUM", _add, 0)
PROD = ReduceOp("PROD", _mul, 1)
MAX = ReduceOp("MAX", _max, float("-inf"))
MIN = ReduceOp("MIN", _min, float("inf"))
LAND = ReduceOp("LAND", _land, True)
LOR = ReduceOp("LOR", _lor, False)
