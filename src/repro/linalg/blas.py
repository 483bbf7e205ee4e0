"""Dense kernels of the GMRES least-squares problem.

Givens rotations (for the incremental QR of the Hessenberg matrix) and
back substitution; Gram-Schmidt lives in
:class:`~repro.krylov.ops.KrylovBasis`.  These stay float64
unconditionally, whatever the basis dtype: they are O(m) per cycle,
cost nothing, and keeping the outer recurrence in full precision is
what makes reduced inner precision safe (the iterative-refinement
shape).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.utils.validation import check_array_1d

__all__ = [
    "givens_rotation",
    "givens_rotation_many",
    "rotate_hessenberg_column",
    "back_substitution",
    "back_substitution_many",
    "HessenbergLsq",
]


def givens_rotation(a: float, b: float) -> Tuple[float, float]:
    """Return ``(c, s)`` such that ``[c s; -s c] @ [a; b] = [r; 0]``.

    Uses the numerically careful formulation that avoids overflow for
    large ``|a|`` or ``|b|``.
    """
    a = float(a)
    b = float(b)
    if b == 0.0:
        return 1.0, 0.0
    if a == 0.0:
        return 0.0, 1.0
    if abs(b) > abs(a):
        t = a / b
        s = 1.0 / math.sqrt(1.0 + t * t)
        c = s * t
    else:
        t = b / a
        c = 1.0 / math.sqrt(1.0 + t * t)
        s = c * t
    return float(c), float(s)


def givens_rotation_many(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`givens_rotation` over a batch of ``(a, b)`` pairs.

    Each lane's ``(c, s)`` is bit-for-bit the scalar result, including
    the NaN cases (a comparison against NaN is False here as in Python,
    so a NaN input lands in the same final branch).  The two divide
    branches are one formula with the roles of ``a`` and ``b`` swapped
    where ``|b| > |a|``; the swap is skipped when no pair needs it, and
    the exact ``(1, 0)`` / ``(0, 1)`` of a zero entry (the formula gives
    them up to the sign of zero) are patched in only when one occurs.
    The division runs under ``errstate`` suppression: its result for a
    zero entry is discarded, for an infinite one it is the scalar's NaN.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    big = np.abs(b) > np.abs(a)
    mixed = big.any()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.where(big, a, b) / np.where(big, b, a) if mixed else b / a
        c = 1.0 / np.sqrt(1.0 + t * t)
        s = c * t
    if mixed:
        c, s = np.where(big, s, c), np.where(big, c, s)
    if not (a.all() and b.all()):
        b_zero = b == 0.0
        a_zero = a == 0.0
        c = np.where(b_zero, 1.0, np.where(a_zero, 0.0, c))
        s = np.where(b_zero, 0.0, np.where(a_zero, 1.0, s))
    return c, s


def rotate_hessenberg_column(col: list, g: list, givens: list, j: int) -> float:
    """Incremental QR update for GMRES Hessenberg column ``j``, in place.

    Applies the accumulated rotations in ``givens`` to ``col`` (the new
    column as ``j + 2`` Python floats), computes and appends the
    rotation that annihilates the subdiagonal entry, and applies it to
    ``col`` and to the least-squares right-hand side ``g``.  Operates
    on plain lists: the column is tiny and per-element ndarray indexing
    would dominate this O(j) recurrence at small n.  Returns the new
    recurrence residual ``|g[j + 1]|``.  ``givens`` holds the ``j``
    rotations of the earlier columns.
    """
    # Rotation i writes col[i + 1], which rotation i + 1 reads back:
    # carry that entry in ``a`` instead of through the list.
    a = col[0]
    for i, (c, s) in enumerate(givens, 1):
        b = col[i]
        col[i - 1] = c * a + s * b
        a = c * b - s * a
    b = col[j + 1]
    c, s = givens_rotation(a, b)
    givens.append((c, s))
    col[j] = c * a + s * b
    col[j + 1] = c * b - s * a
    a, b = g[j], g[j + 1]
    g[j] = c * a + s * b
    g[j + 1] = c * b - s * a
    return abs(g[j + 1])


def back_substitution(upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``R y = rhs`` for upper-triangular ``R``.

    Raises ``np.linalg.LinAlgError`` when a diagonal entry is zero (the
    Hessenberg QR broke down), so callers can treat breakdown
    explicitly rather than silently dividing by zero.
    """
    upper = np.asarray(upper, dtype=np.float64)
    rhs = check_array_1d(rhs, "rhs", dtype=np.float64)
    n = rhs.size
    if upper.shape[0] < n or upper.shape[1] < n:
        raise ValueError("triangular factor too small for the right-hand side")
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    pivots = np.diagonal(upper)[:n]
    bad = np.flatnonzero(~np.isfinite(pivots) | (pivots == 0.0))
    if bad.size:
        raise np.linalg.LinAlgError(
            f"zero or non-finite pivot at row {int(bad[-1])}"
        )
    # Work on the strictly-upper-triangular part only: GMRES stores the
    # (numerically tiny) rotated subdiagonal entries in the same array,
    # and back substitution must ignore them.
    y = np.zeros(n, dtype=np.float64)
    for i in range(n - 1, -1, -1):
        y[i] = (rhs[i] - upper[i, i + 1 : n].dot(y[i + 1 : n])) / pivots[i]
    return y


def back_substitution_many(upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """:func:`back_substitution` over a stack: ``(L, k, k)`` factors, ``(L, k)`` right-hand sides.

    Each lane's ``y`` is bit for bit the per-lane one: row ``i`` is one
    stacked ``(L, 1, k-i-1) @ (L, k-i-1, 1)`` matmul, which NumPy hands
    lane by lane to the dot kernel of the per-lane ``upper[i,
    i+1:].dot(y[i+1:])``, on the same strides.  A lane with a zero or non-finite
    pivot raises the per-lane ``np.linalg.LinAlgError``.
    """
    upper = np.asarray(upper, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    lanes, k = rhs.shape
    pivots = np.diagonal(upper, axis1=1, axis2=2)[:, :k]
    bad = (~np.isfinite(pivots) | (pivots == 0.0)).any(axis=1)
    if bad.any():
        lane = int(bad.argmax())
        back_substitution(upper[lane], rhs[lane])  # raises that lane's error
    y = np.zeros((lanes, k), dtype=np.float64)
    for i in range(k - 1, -1, -1):
        dots = np.matmul(upper[:, i : i + 1, i + 1 : k], y[:, i + 1 : k, None])[:, 0, 0]
        np.divide(np.subtract(rhs[:, i], dots, out=dots), pivots[:, i], out=y[:, i])
    return y


class HessenbergLsq:
    """Incremental QR least-squares state of one restarted-Arnoldi cycle.

    Owns the pieces every GMRES-family solver used to hand-roll per
    cycle: the ``(m+1) x m`` Hessenberg array, the accumulated Givens
    rotations and the rotated least-squares right-hand side ``g``
    (initialized to ``beta * e_1``).  :meth:`append_column` performs the
    incremental QR update for the newest Arnoldi column and returns the
    recurrence residual ``|g[j+1]|``; :meth:`solve` back-substitutes for
    the cycle's correction coefficients.

    The stored :attr:`hessenberg` array is the live solver state the
    iteration hooks see -- fault-injection campaigns write into it, and
    :meth:`solve` reads whatever is there at restart time (the rotations
    and ``g`` are *not* re-derived from a mutated array, matching the
    pre-engine behaviour the SDC experiments were calibrated against).
    """

    def __init__(self, m: int, beta: float):
        self.hessenberg = np.zeros((int(m) + 1, int(m)), dtype=np.float64)
        self._givens: list = []
        self._g = [0.0] * (int(m) + 1)
        self._g[0] = float(beta)
        self.size = 0

    def append_column(self, coefficients: np.ndarray, h_next: float) -> float:
        """Rotate and store Arnoldi column ``size``; return the residual."""
        j = self.size
        col = coefficients.tolist()
        col.append(h_next)
        residual = rotate_hessenberg_column(col, self._g, self._givens, j)
        self.hessenberg[: j + 2, j] = col
        self.size = j + 1
        return residual

    def solve(self, k: Optional[int] = None) -> np.ndarray:
        """Back-substitute for the first ``k`` correction coefficients.

        Raises ``np.linalg.LinAlgError`` on a zero/non-finite pivot, as
        :func:`back_substitution` does.
        """
        k = self.size if k is None else int(k)
        return back_substitution(self.hessenberg[:k, :k], self._g[:k])
