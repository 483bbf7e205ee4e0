"""Redundant coarse-model storage for implicit-method recovery.

For implicit methods the paper (§III-C) suggests "storing a coarse
model representation on neighboring processes that could be used to
boot-strap state recovery upon failure": the coarse representation is
cheap to keep redundant (a coarsening factor of c costs only 1/c of the
state in extra memory), and after a failure the lost block is rebuilt
by interpolation -- accurate "up to the truncation error of the PDE",
i.e. good enough that the next implicit solve converges in almost the
same number of iterations as from the true state.

* :func:`restrict_field` / :func:`prolong_field` -- the averaging
  restriction and linear-interpolation prolongation operators.
* :class:`CoarseModelStore` -- a per-rank store of coarse snapshots
  (its redundancy/mirroring across ranks reuses
  :class:`~repro.lflr.store.PersistentStore`; sequential experiments
  use it directly as a container).

Experiment E5 compares recovery from the coarse model against the
cheaper alternatives the paper implies are inadequate (restart the lost
block from zero, or average the neighbours).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.utils.validation import check_integer

__all__ = ["restrict_field", "prolong_field", "CoarseModelStore"]


def restrict_field(fine: np.ndarray, factor: int) -> np.ndarray:
    """Restrict a 1-D field by averaging ``factor`` neighbouring values.

    The tail segment (when the length is not divisible by the factor)
    is averaged over the remaining points, so no information is
    silently dropped.
    """
    check_integer(factor, "factor")
    if factor <= 0:
        raise ValueError("factor must be positive")
    fine = np.asarray(fine, dtype=np.float64)
    if fine.ndim != 1:
        raise ValueError("restrict_field expects a 1-D field")
    if factor == 1 or fine.size == 0:
        return fine.copy()
    n_coarse = int(np.ceil(fine.size / factor))
    coarse = np.empty(n_coarse, dtype=np.float64)
    for i in range(n_coarse):
        block = fine[i * factor : min((i + 1) * factor, fine.size)]
        coarse[i] = block.mean()
    return coarse


def prolong_field(coarse: np.ndarray, n_fine: int, factor: int) -> np.ndarray:
    """Interpolate a coarse field back to ``n_fine`` points.

    Piecewise-linear interpolation between coarse-cell centres, which
    reproduces smooth fields to second order -- the "up to the
    truncation error" accuracy the paper asks of the recovered state.
    """
    check_integer(n_fine, "n_fine")
    check_integer(factor, "factor")
    if n_fine < 0 or factor <= 0:
        raise ValueError("n_fine must be >= 0 and factor positive")
    coarse = np.asarray(coarse, dtype=np.float64)
    if n_fine == 0:
        return np.zeros(0, dtype=np.float64)
    if coarse.size == 0:
        return np.zeros(n_fine, dtype=np.float64)
    if coarse.size == 1:
        return np.full(n_fine, float(coarse[0]))
    # Coarse sample i represents the centre of fine block i.
    centres = np.array(
        [min((i * factor + min((i + 1) * factor, n_fine) - 1) / 2.0, n_fine - 1)
         for i in range(coarse.size)]
    )
    fine_coords = np.arange(n_fine, dtype=np.float64)
    return np.interp(fine_coords, centres, coarse)


class CoarseModelStore:
    """Per-owner store of coarse snapshots of a 1-D field.

    Parameters
    ----------
    factor:
        Coarsening factor (memory overhead of redundancy is ~1/factor).
    """

    def __init__(self, factor: int = 4):
        check_integer(factor, "factor")
        if factor <= 0:
            raise ValueError("factor must be positive")
        self.factor = int(factor)
        self._snapshots: Dict[int, Dict[str, np.ndarray]] = {}
        self._sizes: Dict[int, int] = {}

    def store(self, owner: int, field: np.ndarray, step: Optional[int] = None) -> np.ndarray:
        """Store the coarse representation of ``owner``'s field; returns it."""
        field = np.asarray(field, dtype=np.float64)
        coarse = restrict_field(field, self.factor)
        self._snapshots[int(owner)] = {
            "coarse": coarse,
            "step": np.asarray(step if step is not None else -1),
        }
        self._sizes[int(owner)] = field.size
        return coarse

    def recover(self, owner: int) -> Optional[np.ndarray]:
        """Rebuild ``owner``'s fine field from its stored coarse model."""
        snapshot = self._snapshots.get(int(owner))
        if snapshot is None:
            return None
        n_fine = self._sizes[int(owner)]
        return prolong_field(snapshot["coarse"], n_fine, self.factor)

    def memory_overhead(self, owner: int) -> float:
        """Bytes of coarse redundancy relative to the owner's fine state."""
        snapshot = self._snapshots.get(int(owner))
        if snapshot is None:
            return 0.0
        n_fine = self._sizes[int(owner)]
        if n_fine == 0:
            return 0.0
        return snapshot["coarse"].size / float(n_fine)
