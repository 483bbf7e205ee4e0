"""Reduction operations for collectives.

A :class:`ReduceOp` pairs a binary combining function with an identity
element; reductions over NumPy arrays are element-wise.  The three
operations the programs reduce with -- ``SUM``, ``MAX`` and ``MIN`` --
are module-level singletons.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

__all__ = ["ReduceOp", "SUM", "MAX", "MIN"]


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


def _add(a, b):
    return np.add(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else a + b


def _max(a, b):
    return np.maximum(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else max(a, b)


def _min(a, b):
    return np.minimum(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else min(a, b)


SUM = ReduceOp("SUM", _add, 0)
MAX = ReduceOp("MAX", _max, float("-inf"))
MIN = ReduceOp("MIN", _min, float("inf"))
