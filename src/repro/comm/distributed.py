"""Row-distributed vectors and matrices over any communicator backend.

The distributed objects follow the simplest row-block decomposition:
rank ``r`` owns a contiguous block of rows/entries.  Reductions (dot
products, norms) use the communicator's ``allreduce`` -- these are the
global synchronization points whose latency the RBSP/pipelined
algorithms hide.  The matrix-vector product gathers the needed remote
entries with an ``allgather``; for the banded model problems used in
the experiments this is wasteful in bandwidth but exactly right in
*synchronization structure*, which is what the performance model cares
about, while keeping the numerics bit-identical to the sequential
solvers.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.comm.base import BaseCommunicator
from repro.comm.ops import SUM
from repro.linalg.csr import CsrMatrix
from repro.utils.validation import check_integer

__all__ = ["block_ranges", "DistributedVector", "DistributedRowMatrix"]


def block_ranges(n: int, n_blocks: int) -> List[Tuple[int, int]]:
    """Split ``range(n)`` into ``n_blocks`` contiguous, balanced ranges.

    The first ``n % n_blocks`` blocks get one extra element, matching
    the usual MPI block distribution.
    """
    check_integer(n, "n")
    check_integer(n_blocks, "n_blocks")
    if n < 0 or n_blocks <= 0:
        raise ValueError("n must be >= 0 and n_blocks > 0")
    base = n // n_blocks
    extra = n % n_blocks
    ranges: List[Tuple[int, int]] = []
    start = 0
    for b in range(n_blocks):
        size = base + (1 if b < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


class DistributedVector:
    """A vector distributed in contiguous blocks over the ranks of a comm.

    Parameters
    ----------
    comm:
        The communicator; rank ``r`` owns block ``r``.
    local:
        This rank's block of entries.
    global_size:
        Total length across all ranks.
    offset:
        Global index of this rank's first entry.
    """

    def __init__(self, comm: BaseCommunicator, local: np.ndarray, global_size: int, offset: int):
        self.comm = comm
        self.local = np.array(local, dtype=np.float64, copy=True)
        self.global_size = int(global_size)
        self.offset = int(offset)

    # ------------------------------------------------------------------
    @classmethod
    def from_global(cls, comm: BaseCommunicator, global_vector: np.ndarray) -> "DistributedVector":
        """Create by slicing a replicated global vector (test helper)."""
        global_vector = np.asarray(global_vector, dtype=np.float64)
        ranges = block_ranges(global_vector.size, comm.size)
        start, stop = ranges[comm.rank]
        return cls(comm, global_vector[start:stop], global_vector.size, start)

    @classmethod
    def zeros_like(cls, other: "DistributedVector") -> "DistributedVector":
        """A zero vector with the same distribution as ``other``."""
        return cls(other.comm, np.zeros_like(other.local), other.global_size, other.offset)

    @classmethod
    def from_local_view(
        cls, comm: BaseCommunicator, local: np.ndarray, global_size: int, offset: int
    ) -> "DistributedVector":
        """Wrap existing local storage WITHOUT copying.

        The returned vector aliases ``local``: mutations through either
        side are visible to the other.  This is how
        :class:`~repro.krylov.ops.KrylovBasis` hands out basis columns
        that remain live solver state (the fault-injection surface);
        regular constructors keep their defensive copy.
        """
        vector = cls.__new__(cls)
        vector.comm = comm
        vector.local = np.asarray(local, dtype=np.float64)
        vector.global_size = int(global_size)
        vector.offset = int(offset)
        return vector

    def copy(self) -> "DistributedVector":
        """Deep copy (same distribution)."""
        return DistributedVector(self.comm, self.local, self.global_size, self.offset)

    # ------------------------------------------------------------------
    @property
    def local_size(self) -> int:
        """Number of locally owned entries."""
        return self.local.size

    def dot(self, other: "DistributedVector") -> float:
        """Global inner product (one allreduce)."""
        self._check_compatible(other)
        local_dot = float(self.local @ other.local)
        self.comm.compute(2.0 * self.local_size)
        return float(self.comm.allreduce(local_dot, op=SUM))

    def norm(self) -> float:
        """Global 2-norm (one allreduce)."""
        local_sq = float(self.local @ self.local)
        self.comm.compute(2.0 * self.local_size)
        return float(np.sqrt(self.comm.allreduce(local_sq, op=SUM)))

    def axpy(self, alpha: float, other: "DistributedVector") -> "DistributedVector":
        """In-place ``self += alpha * other``; returns self."""
        self._check_compatible(other)
        self.local += alpha * other.local
        self.comm.compute(2.0 * self.local_size)
        return self

    def scale(self, alpha: float) -> "DistributedVector":
        """In-place scaling; returns self."""
        self.local *= alpha
        self.comm.compute(self.local_size)
        return self

    def gather_global(self) -> np.ndarray:
        """Return the full global vector on every rank (one allgather)."""
        pieces = self.comm.allgather(self.local)
        return np.concatenate(pieces)

    def _check_compatible(self, other: "DistributedVector") -> None:
        if not isinstance(other, DistributedVector):
            raise TypeError("expected a DistributedVector")
        if other.global_size != self.global_size or other.local.size != self.local.size:
            raise ValueError("distributed vectors have mismatched distributions")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistributedVector(rank={self.comm.rank}, local={self.local_size}, "
            f"global={self.global_size})"
        )


class DistributedRowMatrix:
    """A sparse matrix distributed by contiguous row blocks.

    Each rank stores the CSR block of its rows with *global* column
    indices.  ``matvec`` gathers the full input vector (allgather) and
    multiplies locally; the synchronization structure (one collective
    per matvec) matches a general distributed sparse matvec even though
    the data volume is pessimistic.
    """

    def __init__(self, comm: BaseCommunicator, local_block: CsrMatrix, global_shape: Tuple[int, int],
                 row_offset: int):
        self.comm = comm
        self.local_block = local_block
        self.global_shape = (int(global_shape[0]), int(global_shape[1]))
        self.row_offset = int(row_offset)
        if local_block.n_cols != self.global_shape[1]:
            raise ValueError("local block must use global column indices")

    @classmethod
    def from_global(cls, comm: BaseCommunicator, matrix: CsrMatrix) -> "DistributedRowMatrix":
        """Distribute a replicated global matrix by row blocks."""
        ranges = block_ranges(matrix.n_rows, comm.size)
        start, stop = ranges[comm.rank]
        return cls(comm, matrix.row_slice(start, stop), matrix.shape, start)

    @property
    def local_rows(self) -> int:
        """Number of locally owned rows."""
        return self.local_block.n_rows

    def matvec(self, x: DistributedVector) -> DistributedVector:
        """Distributed matrix-vector product; returns a new vector."""
        if not isinstance(x, DistributedVector):
            raise TypeError("matvec expects a DistributedVector")
        if x.global_size != self.global_shape[1]:
            raise ValueError("vector length does not match the matrix")
        global_x = x.gather_global()
        local_result = self.local_block.matvec(global_x)
        self.comm.compute(2.0 * self.local_block.nnz)
        # The product is a fresh array nobody else holds: wrap, don't copy.
        return DistributedVector.from_local_view(
            self.comm, local_result, self.global_shape[0], self.row_offset
        )

    def diagonal(self) -> DistributedVector:
        """The locally owned part of the global diagonal."""
        block = self.local_block
        diag_local = np.zeros(self.local_rows, dtype=np.float64)
        rows = block.row_ids()
        hits = np.flatnonzero(block.indices == rows + self.row_offset)
        # add.at, not assignment: duplicate diagonal entries are summed.
        np.add.at(diag_local, rows[hits], block.data[hits])
        return DistributedVector(self.comm, diag_local, self.global_shape[0], self.row_offset)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistributedRowMatrix(rank={self.comm.rank}, local_rows={self.local_rows}, "
            f"global_shape={self.global_shape})"
        )
