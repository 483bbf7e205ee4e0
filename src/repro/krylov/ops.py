"""Type-dispatch layer and block kernels for the Krylov solvers.

The solvers are written once against these helpers and therefore run
unchanged on

* plain NumPy vectors with a :class:`~repro.linalg.csr.CsrMatrix`,
  dense ndarray or callable operator (sequential execution), and
* :class:`~repro.comm.distributed.DistributedVector` operands with a
  :class:`~repro.comm.distributed.DistributedRowMatrix` operator
  (execution over any :class:`~repro.comm.base.BaseCommunicator`
  backend -- the simulated MPI runtime, where every global reduction
  pays the collective cost of the machine model, or the shared-memory
  multiprocess runtime, where the reductions are real inter-process
  collectives with the identical ascending-rank reduction order).

Besides the single-vector helpers, this module provides the
:class:`KrylovBasis` block store used by every Arnoldi-type solver: the
basis is preallocated as one contiguous 2-D array, so orthogonalization
is two BLAS-2 calls (``h = V_kᵀ w; w -= V_k h``, run twice for CGS2)
instead of an interpreted-Python loop of ``j`` dot/axpy round trips,
and the restart correction is a single ``V_k @ y``.  Fault injectors
keep working because :meth:`KrylovBasis.column` returns a writable view
of the stored vector (sequential execution), exactly like the mutable
list entries of the pre-block implementation.

The sequential kernels call ``ndarray.dot``, never ``@``: both reach the
same BLAS routine with the same bits, but ``@`` pays about 0.4 µs more
dispatch per call, most of a product at the sizes campaigns sweep
(``tests/test_analysis.py``'s ``matmul-dispatch`` rule keeps it out).
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from repro.comm.ops import SUM
from repro.comm.requests import CompletedRequest
from repro.linalg.csr import CsrMatrix
from repro.comm.distributed import DistributedRowMatrix, DistributedVector

__all__ = [
    "as_float",
    "matvec",
    "dot",
    "fused_dots",
    "squared_norm",
    "norm",
    "xpby",
    "copy_vector",
    "zeros_like",
    "to_local",
    "apply_preconditioner",
    "KrylovBasis",
    "allocate_basis",
]

Operator = Union[CsrMatrix, np.ndarray, Callable, DistributedRowMatrix]
Vector = Union[np.ndarray, DistributedVector]


def as_float(x) -> np.ndarray:
    """Coerce to a floating ndarray, preserving a reduced compute dtype.

    This is the dtype-dispatch point of the kernel layer: float64 input
    passes through as the usual no-op view (so the default path is
    bit-identical to the old blanket ``np.asarray(x, dtype=np.float64)``
    coercions), float32 input *stays* float32 instead of being silently
    upcast, float16 widens to float32 (no kernel here accumulates in
    half precision), and everything else -- ints, lists, generic
    objects -- coerces to float64 exactly as before.
    """
    arr = np.asarray(x)
    if arr.dtype == np.float64 or arr.dtype == np.float32:
        return arr
    if arr.dtype == np.float16:
        return arr.astype(np.float32)
    return np.asarray(arr, dtype=np.float64)


def matvec(operator: Operator, x: Vector) -> Vector:
    """Apply the operator to a vector, dispatching on types."""
    if isinstance(x, DistributedVector):
        if isinstance(operator, DistributedRowMatrix):
            return operator.matvec(x)
        if callable(operator):
            return operator(x)
        raise TypeError(
            "distributed vectors require a DistributedRowMatrix or callable operator"
        )
    if isinstance(operator, CsrMatrix):
        return operator.matvec(as_float(x))
    if isinstance(operator, np.ndarray):
        return operator.dot(as_float(x))
    if callable(operator):
        return operator(x)
    raise TypeError(f"unsupported operator type {type(operator).__name__}")


def dot(x: Vector, y: Vector) -> float:
    """Global inner product."""
    if isinstance(x, DistributedVector):
        return x.dot(y)
    return float(as_float(x).dot(as_float(y)))


def fused_dots(pairs: Sequence[Tuple[Vector, Vector]]):
    """Start several inner products as ONE non-blocking reduction.

    ``pairs`` is a sequence of ``(x, y)`` vector pairs; the returned
    request's ``wait()`` yields a 1-D array with one dot product per
    pair.  On the simulated runtime this is a single ``iallreduce`` of
    the stacked local partial sums -- the fused reduction wave the
    pipelined solvers are built around -- instead of one collective per
    inner product.
    """
    first = pairs[0][0]
    if isinstance(first, DistributedVector):
        comm = first.comm
        local = np.empty(len(pairs), dtype=np.float64)
        for i, (x, y) in enumerate(pairs):
            local[i] = float(x.local.dot(y.local))
            comm.compute(2.0 * x.local_size)
        return comm.iallreduce(local, op=SUM)
    values = np.array([dot(x, y) for x, y in pairs], dtype=np.float64)
    return CompletedRequest(values)


def squared_norm(x: Vector):
    """Global ``x . x``: the scalar :func:`norm` takes the root of.

    A NumPy scalar in the vector's own dtype (float32 stays float32) on
    the sequential path, the allreduced local sum (one reduction) for a
    :class:`DistributedVector`.  Unpreconditioned CG reads its ``(r, z)``
    here and its convergence norm from the root of the same scalar.
    """
    if isinstance(x, DistributedVector):
        return x.squared_norm()
    x = as_float(x)
    return x.dot(x)


def norm(x: Vector) -> float:
    """Global 2-norm."""
    # sqrt(x . x) is what np.linalg.norm computes for 1-D input, minus
    # the generic-dispatch overhead that matters at small n.
    return float(np.sqrt(squared_norm(x)))


def xpby(x: Vector, beta: float, y: Vector) -> Vector:
    """Return ``x + beta * y`` as a new vector."""
    if isinstance(x, DistributedVector):
        x._check_compatible(y)
        local = x.local + beta * y.local
        x.comm.compute(x.local_size)  # charged as the scale + axpy it replaces
        x.comm.compute(2.0 * x.local_size)
        return DistributedVector.from_local_view(x.comm, local, x.global_size, x.offset)
    # Python-float scalars do not upcast float32 arrays under NumPy
    # promotion, so a reduced-precision pair stays reduced here.
    return as_float(x) + beta * as_float(y)


def copy_vector(x: Vector) -> Vector:
    """Deep copy."""
    if isinstance(x, DistributedVector):
        return x.copy()
    return as_float(x).copy()


def zeros_like(x: Vector) -> Vector:
    """A zero vector with the same shape/distribution as ``x``."""
    if isinstance(x, DistributedVector):
        return DistributedVector.zeros_like(x)
    return np.zeros_like(as_float(x))


def to_local(x: Vector) -> np.ndarray:
    """Return the local (or full, for sequential) NumPy data of ``x``."""
    if isinstance(x, DistributedVector):
        return x.local
    return as_float(x)


class KrylovBasis:
    """Preallocated block of Krylov basis vectors with BLAS-2 kernels.

    The vectors live in one contiguous ``(max_vectors, n)`` array (row
    ``j`` is vector ``j``, so every vector is a contiguous slice; the
    column-oriented view of the same memory is exposed as
    :attr:`array`).  All orthogonalization traffic goes through two
    block kernels --

    * :meth:`block_dot`: ``h = V_kᵀ w`` (one gemv; on the simulated
      runtime one fused allreduce of the ``k`` coefficients), and
    * :meth:`block_axpy`: ``w -= V_k h`` (one gemv);

    classical Gram-Schmidt with reorthogonalization (CGS2) is these two
    calls run twice.  :meth:`lincomb` forms the restart correction
    ``V_k y`` with a single gemv.

    The fault-injection surface is preserved: ``basis[j]`` /
    :meth:`column` return a *writable, contiguous* NumPy view of vector
    ``j`` in the sequential case, so hooks that corrupt
    ``state.basis[i]`` in place keep hitting the live solver state.
    """

    def __init__(self, max_vectors: int, local_size: int, dtype=np.float64):
        self._rows = np.zeros((int(max_vectors), int(local_size)), dtype=dtype)
        self.n_columns = 0

    @property
    def dtype(self) -> np.dtype:
        """Dtype the basis block is stored (and orthogonalized) in."""
        return self._rows.dtype

    # -- storage -------------------------------------------------------
    @property
    def max_vectors(self) -> int:
        """Capacity of the block (``restart + 1`` for GMRES)."""
        return self._rows.shape[0]

    @property
    def array(self) -> np.ndarray:
        """The basis as an ``(n_local, max_vectors)`` ndarray view.

        Columns are basis vectors (the ``V`` of the textbooks); the
        view shares memory with the solver state, so reads always see
        the current basis and writes corrupt it -- which is exactly
        what fault-injection campaigns need.
        """
        return self._rows.T

    def matrix(self, k: Optional[int] = None) -> np.ndarray:
        """View of the first ``k`` (default: all stored) basis vectors
        as the columns of an ``(n_local, k)`` array."""
        k = self.n_columns if k is None else int(k)
        return self._rows[:k].T

    def __len__(self) -> int:
        return self.n_columns

    def __getitem__(self, j: int):
        return self.column(j)

    def __iter__(self) -> Iterator:
        for j in range(self.n_columns):
            yield self.column(j)

    def append_zero(self):
        """Store a zero vector (the happy-breakdown placeholder)."""
        self._rows[self.n_columns].fill(0.0)
        self.n_columns += 1
        return self.column(self.n_columns - 1)

    # -- implemented by subclasses -------------------------------------
    def column(self, j: int):
        """Vector ``j`` in the solver's native vector type."""
        raise NotImplementedError

    def append(self, vec, scale: float = 1.0):
        """Store ``scale * vec`` as the next basis vector."""
        raise NotImplementedError

    def block_dot(self, w, k: Optional[int] = None) -> np.ndarray:
        """``V_kᵀ w`` as a length-``k`` array (one fused reduction)."""
        raise NotImplementedError

    def block_axpy(self, coefficients: np.ndarray, w, k: Optional[int] = None):
        """``w - V_k @ coefficients`` as a new vector (one gemv)."""
        raise NotImplementedError

    def lincomb(self, coefficients: np.ndarray, k: Optional[int] = None):
        """``V_k @ coefficients`` as a new vector."""
        raise NotImplementedError

    def fused_projection(self, w, k: Optional[int] = None):
        """Start ONE reduction producing ``[V_kᵀ w, |w|²]``.

        Returns a request whose ``wait()`` yields a length ``k + 1``
        array: the ``k`` CGS coefficients followed by the squared norm
        of ``w``.  This is the single synchronization wave of the
        latency-tolerant GMRES variants.
        """
        raise NotImplementedError

    # -- shared orthogonalization kernel -------------------------------
    def orthogonalize(self, w, method: str = "cgs2", k: Optional[int] = None):
        """Orthogonalize ``w`` against the first ``k`` stored vectors.

        The one kernel is ``"cgs2"``: classical Gram-Schmidt run twice,
        as robust as MGS at BLAS-2 speed; any other ``method`` is
        refused.  Returns ``(w_orth, coefficients)``; the coefficient
        vector is the accumulated Hessenberg column.
        """
        _check_cgs2(method)
        k = self.n_columns if k is None else int(k)
        coefficients = self.block_dot(w, k)
        w = self.block_axpy(coefficients, w, k)
        correction = self.block_dot(w, k)
        w = self.block_axpy(correction, w, k)
        return w, coefficients + correction


def _check_cgs2(method: str) -> None:
    if method != "cgs2":
        raise ValueError(f"the Gram-Schmidt kernel is 'cgs2', not {method!r}")


class _DenseKrylovBasis(KrylovBasis):
    """Sequential (NumPy ndarray) backend."""

    def column(self, j: int) -> np.ndarray:
        return self._rows[j]

    def orthogonalize(self, w, method: str = "cgs2", k: Optional[int] = None):
        # Specialized to the minimal number of NumPy calls: at small n
        # the interpreter round trips cost more than the gemvs.
        _check_cgs2(method)
        k = self.n_columns if k is None else int(k)
        rows = self._rows[:k]
        coefficients = rows.dot(w)
        w = w - coefficients.dot(rows)
        correction = rows.dot(w)
        w -= correction.dot(rows)  # in place: w was freshly allocated above
        return w, coefficients + correction

    def append(self, vec, scale: float = 1.0):
        row = self._rows[self.n_columns]
        np.multiply(float(scale), as_float(vec), out=row)
        self.n_columns += 1
        return row

    def block_dot(self, w, k: Optional[int] = None) -> np.ndarray:
        k = self.n_columns if k is None else int(k)
        return self._rows[:k].dot(w)

    def block_axpy(self, coefficients, w, k: Optional[int] = None):
        k = self.n_columns if k is None else int(k)
        return w - coefficients.dot(self._rows[:k])

    def lincomb(self, coefficients, k: Optional[int] = None) -> np.ndarray:
        k = self.n_columns if k is None else int(k)
        # Match the basis dtype: a float64 coefficient vector against a
        # float32 basis would otherwise upcast the whole (k, n) block
        # for one gemv, throwing away the memory-traffic win.
        return np.asarray(coefficients, dtype=self._rows.dtype).dot(self._rows[:k])

    def fused_projection(self, w, k: Optional[int] = None):
        k = self.n_columns if k is None else int(k)
        payload = np.empty(k + 1, dtype=np.float64)
        payload[:k] = self._rows[:k].dot(w)
        payload[k] = float(w.dot(w))
        return CompletedRequest(payload)


class _DistributedKrylovBasis(KrylovBasis):
    """Distributed backend: one fused allreduce per block reduction."""

    def __init__(self, max_vectors: int, template: DistributedVector):
        super().__init__(max_vectors, template.local_size)
        self._comm = template.comm
        self._global_size = template.global_size
        self._offset = template.offset

    def _wrap(self, local: np.ndarray) -> DistributedVector:
        # No-copy wrap: for columns this keeps the returned vector live
        # solver state (hooks mutating state.basis[i].local corrupt the
        # actual basis, as with the old list-of-vectors layout); for
        # freshly computed locals (lincomb, block_axpy) the alias is
        # exclusive anyway.
        return DistributedVector.from_local_view(
            self._comm, local, self._global_size, self._offset
        )

    def column(self, j: int) -> DistributedVector:
        return self._wrap(self._rows[j])

    def append(self, vec: DistributedVector, scale: float = 1.0):
        row = self._rows[self.n_columns]
        np.multiply(float(scale), vec.local, out=row)
        self.n_columns += 1
        return row

    def block_dot(self, w: DistributedVector, k: Optional[int] = None) -> np.ndarray:
        k = self.n_columns if k is None else int(k)
        local = self._rows[:k].dot(w.local)
        self._comm.compute(2.0 * k * w.local_size)
        return np.asarray(self._comm.allreduce(local, op=SUM), dtype=np.float64)

    def block_axpy(self, coefficients, w: DistributedVector, k: Optional[int] = None):
        k = self.n_columns if k is None else int(k)
        self._comm.compute(2.0 * k * w.local_size)
        return self._wrap(w.local - coefficients.dot(self._rows[:k]))

    def lincomb(self, coefficients, k: Optional[int] = None) -> DistributedVector:
        k = self.n_columns if k is None else int(k)
        local = np.asarray(coefficients, dtype=np.float64).dot(self._rows[:k])
        self._comm.compute(2.0 * k * self._rows.shape[1])
        return self._wrap(local)

    def fused_projection(self, w: DistributedVector, k: Optional[int] = None):
        k = self.n_columns if k is None else int(k)
        payload = np.empty(k + 1, dtype=np.float64)
        payload[:k] = self._rows[:k].dot(w.local)
        payload[k] = float(w.local.dot(w.local))
        self._comm.compute(2.0 * (k + 1) * w.local_size)
        return self._comm.iallreduce(payload, op=SUM)


def allocate_basis(template: Vector, max_vectors: int) -> KrylovBasis:
    """Allocate an empty :class:`KrylovBasis` shaped like ``template``.

    ``template`` fixes the vector type (NumPy or distributed) and the
    (local) length; ``max_vectors`` is the capacity, ``restart + 1``
    for a GMRES cycle.
    """
    if int(max_vectors) <= 0:
        raise ValueError("max_vectors must be positive")
    if isinstance(template, DistributedVector):
        return _DistributedKrylovBasis(max_vectors, template)
    local = as_float(template)
    if local.ndim != 1:
        raise ValueError("template vector must be 1-D")
    return _DenseKrylovBasis(max_vectors, local.size, dtype=local.dtype)


def apply_preconditioner(preconditioner, x: Vector) -> Vector:
    """Apply ``M^{-1}`` to a vector, handling the no-preconditioner case.

    For distributed vectors the preconditioner must itself accept and
    return :class:`DistributedVector` (e.g. a diagonal preconditioner
    built from :meth:`DistributedRowMatrix.diagonal`); callables are
    applied directly in both cases.
    """
    if preconditioner is None:
        return copy_vector(x)
    if callable(preconditioner) and not hasattr(preconditioner, "apply"):
        return preconditioner(x)
    if isinstance(x, DistributedVector):
        return preconditioner(x) if callable(preconditioner) else preconditioner.apply(x)
    return preconditioner.apply(to_local(x)) if hasattr(preconditioner, "apply") else preconditioner(x)
