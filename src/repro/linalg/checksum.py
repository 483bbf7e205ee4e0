"""Checksum-encoded (ABFT) matrix operations.

Huang & Abraham's algorithm-based fault tolerance (the 1984 paper cited
by Heroux as the root of the field) encodes redundancy directly into
the operands of a matrix computation:

* a **column-checksum matrix** appends a row equal to the column sums;
* a **row-checksum vector/matrix** appends an element/column equal to
  the row sums;
* after the operation, the checksum relations must still hold; a
  violation localizes an error, and for a single corrupted element the
  error can be *corrected* from the checksum difference.

This module implements checksum encoding for matrix-vector and
matrix-matrix products, verification, and single-error correction for
the matmul case -- these are the "meta data used to recover state can
also be used to detect anomalous behavior" of paper §III-A, and the
substance of experiment E2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.linalg.csr import CsrMatrix

__all__ = [
    "verify_checksum",
    "ChecksummedMatrix",
    "checked_matvec",
    "checked_matmul",
    "correct_single_error",
    "MatmulCheckReport",
]


def verify_checksum(vector: np.ndarray, expected: float) -> bool:
    """Check a vector against its expected checksum with a mixed tolerance.

    The tolerance, ``1e-12`` plus ``1e-8`` times the 1-norm of the
    vector, is relative to the natural scale of rounding error
    accumulated by the sum.
    """
    vector = np.asarray(vector, dtype=np.float64)
    actual = vector.sum()
    if not np.isfinite(actual) or not np.isfinite(expected):
        return bool(np.isfinite(actual) == np.isfinite(expected) and actual == expected)
    scale = np.abs(vector).sum()
    return bool(abs(actual - expected) <= 1e-12 + 1e-8 * max(scale, 1.0))


class ChecksummedMatrix:
    """A matrix carrying its column-checksum row.

    The checksum row is computed once at construction; matvec results
    can then be verified in O(n) instead of recomputing the product.
    """

    def __init__(self, matrix: Union[CsrMatrix, np.ndarray]):
        if isinstance(matrix, CsrMatrix):
            self._matrix = matrix
            self._column_checksums = matrix.rmatvec(
                np.ones(matrix.n_rows, dtype=np.float64)
            )
        else:
            dense = np.asarray(matrix, dtype=np.float64)
            if dense.ndim != 2:
                raise ValueError("matrix must be two-dimensional")
            self._matrix = dense
            self._column_checksums = dense.sum(axis=0)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Plain (unchecked) matvec."""
        if isinstance(self._matrix, CsrMatrix):
            return self._matrix.matvec(x)
        return self._matrix @ np.asarray(x, dtype=np.float64)

    def expected_result_checksum(self, x: np.ndarray) -> float:
        """The checksum the result of ``A @ x`` must have: ``(e^T A) x``."""
        x = np.asarray(x, dtype=np.float64)
        return float(self._column_checksums @ x)


def checked_matvec(
    matrix: Union[ChecksummedMatrix, CsrMatrix, np.ndarray],
    x: np.ndarray,
    *,
    corrupt=None,
) -> Tuple[np.ndarray, bool]:
    """Matrix-vector product with checksum verification.

    Parameters
    ----------
    matrix:
        The operand; a plain matrix is wrapped on the fly.
    x:
        Input vector.
    corrupt:
        Optional callable applied to the raw result *before*
        verification; the fault injectors pass themselves here so the
        check sees exactly what a corrupted execution would produce.

    Returns
    -------
    (result, ok):
        The (possibly corrupted) result and whether the checksum test
        passed.
    """
    wrapped = matrix if isinstance(matrix, ChecksummedMatrix) else ChecksummedMatrix(matrix)
    expected = wrapped.expected_result_checksum(x)
    result = wrapped.matvec(x)
    if corrupt is not None:
        result = corrupt(result)
    ok = verify_checksum(result, expected)
    return result, ok


@dataclass
class MatmulCheckReport:
    """Outcome of a checked matrix-matrix multiplication."""

    ok: bool
    row_violations: np.ndarray
    col_violations: np.ndarray
    corrected: bool = False
    corrected_index: Optional[Tuple[int, int]] = None


def checked_matmul(
    a: np.ndarray,
    b: np.ndarray,
    *,
    corrupt=None,
    correct: bool = False,
) -> Tuple[np.ndarray, MatmulCheckReport]:
    """Full-checksum matrix product C = A @ B with detection/correction.

    Following Huang & Abraham, A is extended with a column-checksum row
    and B with a row-checksum column; the product of the extended
    matrices then contains both the row and column checksums of C, and
    a single corrupted element of C is located by the intersection of
    the violated row and column and repaired from either checksum.  A
    checksum is violated when it is not finite or misses by more than
    ``1e-10`` plus ``1e-8`` times the 1-norm of its row or column.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError("incompatible shapes for matmul")
    c = a @ b
    if corrupt is not None:
        c = corrupt(c)
    # Checksums computed from the *inputs* (trusted metadata).
    expected_col = (a.sum(axis=0)) @ b  # column sums of C
    expected_row = a @ (b.sum(axis=1))  # row sums of C
    actual_col = c.sum(axis=0)
    actual_row = c.sum(axis=1)
    col_scale = np.abs(c).sum(axis=0) + 1.0
    row_scale = np.abs(c).sum(axis=1) + 1.0
    with np.errstate(invalid="ignore"):
        col_diff = actual_col - expected_col
        row_diff = actual_row - expected_row
    col_bad = ~np.isfinite(actual_col) | (np.abs(col_diff) > 1e-10 + 1e-8 * col_scale)
    row_bad = ~np.isfinite(actual_row) | (np.abs(row_diff) > 1e-10 + 1e-8 * row_scale)
    ok = not (col_bad.any() or row_bad.any())
    report = MatmulCheckReport(ok=ok, row_violations=np.nonzero(row_bad)[0],
                               col_violations=np.nonzero(col_bad)[0])
    if not ok and correct:
        corrected = correct_single_error(
            c, expected_row, expected_col, row_bad, col_bad
        )
        if corrected is not None:
            c, index = corrected
            report.corrected = True
            report.corrected_index = index
            report.ok = True
    return c, report


def correct_single_error(
    c: np.ndarray,
    expected_row: np.ndarray,
    expected_col: np.ndarray,
    row_bad: np.ndarray,
    col_bad: np.ndarray,
) -> Optional[Tuple[np.ndarray, Tuple[int, int]]]:
    """Attempt single-element correction of a checksum-violating product.

    Correction is possible exactly when one row and one column checksum
    are violated; the corrupted element sits at their intersection and
    its correct value is recovered from the row-checksum difference.
    Returns ``None`` when the violation pattern is not a single element
    (multiple errors, or checksum elements themselves corrupted).
    """
    rows = np.nonzero(row_bad)[0]
    cols = np.nonzero(col_bad)[0]
    if rows.size != 1 or cols.size != 1:
        return None
    i, j = int(rows[0]), int(cols[0])
    corrected = c.copy()
    # Rebuild the corrupted entry from the expected row sum and the other
    # (uncorrupted) entries of its row.  This stays accurate even when the
    # corrupted value is enormous or non-finite, where the alternative
    # "subtract the checksum difference" formulation loses all precision.
    others = np.delete(c[i, :], j).sum()
    corrected[i, j] = expected_row[i] - others
    return corrected, (i, j)
