"""Preconditioners (the mechanisms).

The solvers accept any object implementing the :class:`Preconditioner`
protocol (an ``apply`` method mapping a residual to a correction).  The
choices here are the standard light-weight ones used in resilience
studies -- Jacobi, SSOR, a Neumann-series polynomial and block Jacobi
-- all of which are also natural candidates for running in *unreliable*
mode under SRP, since a corrupted preconditioner application changes
only the rate of convergence, never the correctness of a converged
answer (for right preconditioning in flexible methods).

**Stale-values rule.**  Jacobi, SSOR and block Jacobi capture every
matrix value they use at construction (inverted diagonal; diagonal and
permuted off-diagonals; inverted dense blocks), so writing to
``matrix.data`` afterwards does not change their ``apply`` -- build a
new preconditioner from the changed matrix.  Only the polynomial
preconditioner reads the matrix live (through ``matvec``) next to the
diagonal it captured at construction.  SSOR sweeps row by row on
Python floats over the schedule the matrix pattern shares (see
:mod:`repro.linalg.csr`); no other ``apply`` loops over single rows in
Python.

This module is the mechanism layer only.  The declarative surface --
serializable spec strings (``"jacobi"``, ``"ssor:omega=1.2"``,
``"poly:k=4"``, ``"bjacobi:bs=8"``), the named registry, and the
``precond=`` parameter every registered solver accepts -- lives in
:mod:`repro.precond`, which builds these classes and re-raises their
validation errors with the offending spec string attached.  The
unreliable wrap is :meth:`repro.reliability.Region.preconditioner`.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.linalg.csr import CsrMatrix
from repro.utils.validation import check_integer, check_positive

__all__ = [
    "Preconditioner",
    "JacobiPreconditioner",
    "SsorPreconditioner",
    "NeumannPolynomialPreconditioner",
    "BlockJacobiPreconditioner",
]


class Preconditioner:
    """Protocol: a preconditioner maps a vector to M^{-1} v."""

    def apply(self, vector: np.ndarray) -> np.ndarray:
        """Return an approximation to ``M^{-1} vector``."""
        raise NotImplementedError

    def __call__(self, vector: np.ndarray) -> np.ndarray:
        return self.apply(vector)


class JacobiPreconditioner(Preconditioner):
    """Diagonal (Jacobi) preconditioner ``M = diag(A)``."""

    def __init__(self, matrix: CsrMatrix):
        diag = matrix.diagonal_values()
        if np.any(diag == 0.0):
            raise ValueError("Jacobi preconditioner requires a nonzero diagonal")
        self._inv_diag = 1.0 / diag

    def apply(self, vector: np.ndarray) -> np.ndarray:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.size != self._inv_diag.size:
            raise ValueError("vector length does not match the matrix")
        return self._inv_diag * vector


class SsorPreconditioner(Preconditioner):
    """Symmetric successive over-relaxation preconditioner.

    Applies one forward and one backward Gauss-Seidel-like sweep with
    relaxation factor ``omega``, row by row on Python floats over the
    rows of the matrix pattern's shared sweep schedule
    (:meth:`CsrMatrix.sweep_schedule`).  A sweep is sequential along
    its dependency chain; a row on Python floats costs less than the
    NumPy calls that would solve a wavefront of rows together, on
    chains of any length and on 2-D grids up to side 32 -- every E9
    problem included (PERFORMANCE.md, "Preconditioner").

    **Values are captured at construction** -- the diagonal and the
    off-diagonal entries, widened to float64, as Python floats per row.
    Writing to ``matrix.data`` afterwards does not change ``apply``;
    build a new preconditioner from the changed matrix.

    **Arithmetic.**  Per row the forward sweep is ``x_i = ((b_i - s) *
    omega) / d_i`` with ``s = 0.0 + a_ij0*x_j0 + a_ij1*x_j1 + ...`` over
    the row's strictly lower entries in CSR order, every product and sum
    rounded (no fused multiply-add), and ``(b_i * omega) / d_i`` for a
    row with no lower entry; the backward sweep is the same over the
    strictly upper entries with ``(d_i * x_i) / omega`` as right-hand
    side.  The result does not depend on the linked BLAS, and Python
    float arithmetic raises no floating-point warning.  No
    ``ZeroDivisionError`` is reachable: the diagonal is nonzero and
    ``omega`` positive, both checked here.
    """

    def __init__(self, matrix: CsrMatrix, omega: float = 1.0):
        if not matrix.is_square:
            raise ValueError("SSOR requires a square matrix")
        check_positive(omega, "omega")
        if omega >= 2.0:
            raise ValueError("omega must lie in (0, 2) for SSOR")
        self._omega = float(omega)
        diag = matrix.diagonal_values().astype(np.float64)
        if np.any(diag == 0.0):
            raise ValueError("SSOR requires a nonzero diagonal")
        self._lower, self._upper = matrix.sweep_schedule().rows(matrix.data)
        self._diag = diag.tolist()
        self._diag_backward = self._diag[::-1]

    @staticmethod
    def _sweep(rows: tuple, rhs: list, diag: list, omega: float) -> list:
        """``(D/omega + T) x = rhs`` in sweep order, row by row."""
        x: list = []
        append = x.append
        for row, b, d in zip(rows, rhs, diag):
            if row:
                s = 0.0
                for v, c in row:
                    s += v * x[c]
                append(((b - s) * omega) / d)
            else:
                append((b * omega) / d)
        return x

    def apply(self, vector: np.ndarray) -> np.ndarray:
        b = np.asarray(vector, dtype=np.float64)
        if b.size != len(self._diag):
            raise ValueError("vector length does not match the matrix")
        omega, diag_backward = self._omega, self._diag_backward
        # Forward sweep: (D/omega + L) x = b
        x = self._sweep(self._lower, b.ravel().tolist(), self._diag, omega)
        # Backward sweep, rows n-1 down to 0: (D/omega + U) y = D x / omega
        rhs = [(d * v) / omega for d, v in zip(diag_backward, reversed(x))]
        y = self._sweep(self._upper, rhs, diag_backward, omega)
        y.reverse()
        return np.array(y, dtype=np.float64)


class NeumannPolynomialPreconditioner(Preconditioner):
    """Truncated Neumann-series polynomial preconditioner.

    With the Jacobi splitting ``A = D - N``, the inverse is approximated
    by ``M^{-1} = (I + G + G^2 + ... + G^k) D^{-1}`` where
    ``G = D^{-1} N``.  Matrix-power preconditioners like this need *no
    inner products*, which makes them attractive for latency-tolerant
    (RBSP) solvers.
    """

    def __init__(self, matrix: CsrMatrix, degree: int = 2):
        check_integer(degree, "degree")
        if degree < 0:
            raise ValueError("degree must be non-negative")
        if not matrix.is_square:
            raise ValueError("polynomial preconditioner requires a square matrix")
        diag = matrix.diagonal_values()
        if np.any(diag == 0.0):
            raise ValueError("polynomial preconditioner requires a nonzero diagonal")
        self._matrix = matrix
        self._inv_diag = 1.0 / diag
        self._degree = int(degree)

    def apply(self, vector: np.ndarray) -> np.ndarray:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.size != self._matrix.n_rows:
            raise ValueError("vector length does not match the matrix")
        z = self._inv_diag * vector
        result = z.copy()
        term = z
        for _ in range(self._degree):
            # G term = D^{-1} (D - A) term = term - D^{-1} A term, computed
            # in matvec's fresh output rather than in two more temporaries.
            scaled = self._matrix.matvec(term)
            np.multiply(self._inv_diag, scaled, out=scaled)
            if scaled.dtype == term.dtype:
                term = np.subtract(term, scaled, out=scaled)
            else:  # reduced-precision matrix: the difference widens to float64
                term = term - scaled
            result += term
        return result


class BlockJacobiPreconditioner(Preconditioner):
    """Block-Jacobi preconditioner with contiguous diagonal blocks.

    The matrix is partitioned into ``n_blocks`` contiguous row blocks;
    each diagonal block is extracted densely and factorized once.  This
    mirrors the per-subdomain (per-rank) preconditioning a distributed
    solver would use, so it is the natural preconditioner for the
    simulated-MPI solvers and the natural unit of loss in LFLR studies.
    """

    def __init__(self, matrix: CsrMatrix, n_blocks: int):
        check_integer(n_blocks, "n_blocks")
        if not matrix.is_square:
            raise ValueError("block Jacobi requires a square matrix")
        n = matrix.n_rows
        if not 1 <= n_blocks <= n:
            raise ValueError("n_blocks must lie in [1, n_rows]")
        self._n = n
        bounds = np.linspace(0, n, n_blocks + 1).astype(np.int64)
        self._ranges: List[tuple] = [
            (int(bounds[i]), int(bounds[i + 1])) for i in range(n_blocks)
        ]
        # One pass over the stored entries: those whose row and column
        # fall in the same block are summed (duplicates included, as
        # matvec sums them) into a zero-padded stack of the blocks.
        sizes = np.diff(bounds)
        block_of = np.repeat(np.arange(n_blocks, dtype=np.int64), sizes)
        rows = matrix.row_ids()
        inside = np.flatnonzero(block_of[rows] == block_of[matrix.indices])
        rows, cols = rows[inside], matrix.indices[inside]
        blocks = block_of[rows]
        offsets = bounds[blocks]
        stacked = np.zeros((n_blocks, sizes.max(), sizes.max()), dtype=matrix.dtype)
        np.add.at(stacked, (blocks, rows - offsets, cols - offsets), matrix.data[inside])
        self._factors = []
        for index, (start, stop) in enumerate(self._ranges):
            block = stacked[index, : stop - start, : stop - start]
            if block.size == 0:
                self._factors.append(None)
                continue
            self._factors.append(np.linalg.inv(block))

    def apply(self, vector: np.ndarray) -> np.ndarray:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.size != self._n:
            raise ValueError("vector length does not match the matrix")
        result = np.zeros_like(vector)
        for (start, stop), inv in zip(self._ranges, self._factors):
            if inv is None or stop <= start:
                continue
            result[start:stop] = inv @ vector[start:stop]
        return result
