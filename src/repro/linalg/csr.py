"""Compressed-sparse-row matrices.

A small, dependency-free CSR implementation sufficient for the model
problems and solvers of the toolkit.  The data layout is the usual
triplet of arrays (``indptr``, ``indices``, ``data``); matvec is
vectorized with :func:`numpy.add.reduceat` so it stays fast enough for
the benchmark sizes without compiled extensions.

Two things keep the bandwidth-bound sizes fast in pure NumPy:

* **Slab reduce plan.**  ``reduceat`` pays a fixed cost per segment,
  which on short rows (five entries for a 2-D stencil) is most of a
  matvec.  From :data:`_SLAB_MIN_ROWS` rows on, and only when no row
  holds more than :data:`_SLAB_MAX_ROW_LENGTH` entries, ``matvec``
  instead reduces through a lazily built sliced-ELL layout
  (:class:`_SlabLayout`): rows are bucketed by length and the j-th
  entries of a bucket's rows are stored contiguously, so a row sum is
  a few contiguous vector adds.  From :data:`_WINDOW_MIN_ROWS` rows on
  a bucket whose j-th entries all sit one fixed shift from their row
  (the interior of a chain or of a grid stencil) skips the gather of
  ``x`` too: each slab multiplies a contiguous *window* of ``x`` and
  the sums go straight into the result.  The adds are ordered exactly
  as ``reduceat`` orders them, so every path gives the same bits;
  which one runs is decided by the matrix alone (and, for a matrix
  with windows, by whether ``x`` is finite).
* **Shared structure.**  ``indptr``/``indices`` (read-only from
  construction) and everything derived from them, the slab layout
  included, live in one :class:`_Pattern` that ``copy()`` and
  ``astype()`` share; those only copy ``data``.  The slab plan keeps a permuted copy of
  ``data``, so building it marks that matrix's ``data`` read-only: an
  in-place write afterwards raises instead of leaving the plan stale.
  Write to ``data`` before the first large matvec, or build a new
  matrix from the changed values.

The pattern also carries the **sweep schedule** of the triangular
solves SSOR needs (:class:`_RowSweeps`): each row's strictly lower and
strictly upper entries in CSR order, which the preconditioner captures
as Python floats and sweeps row by row.  A row loop on Python floats
beats a vectorised wavefront sweep on chains of any length and on 2-D
grids up to side 32 (PERFORMANCE.md, "Preconditioner").  Like the slab
layout the schedule is structure only, built on first use and shared
by every value-copy.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.utils.validation import check_integer

__all__ = ["CsrMatrix"]

#: Compute dtypes a CsrMatrix may carry.  Accumulation narrower than
#: float32 is numerically useless for Krylov work, so float16 is only
#: allowed as a *storage* dtype (entries are widened on multiply).
_COMPUTE_DTYPES = (np.float32, np.float64)
_STORAGE_DTYPES = (np.float16, np.float32, np.float64)


#: Row count from which ``matvec`` reduces through the slab layout
#: rather than ``reduceat``.  Measured crossover on a five-entry stencil
#: (PERFORMANCE.md, "Kernel"): ``reduceat`` still wins at 576 rows
#: (11 vs 13 us), the slab path from 1 024 on (19 vs 17 us, 253 vs 133
#: at 16 384).
_SLAB_MIN_ROWS = 1024

#: Longest row the slab path may reduce.  Not a tunable: ``reduceat``
#: sums a segment as ``first + pairwise_sum(rest)`` and NumPy's pairwise
#: sum is a plain left-to-right loop only below 8 addends, so longer
#: rows would no longer be bit-equal.
_SLAB_MAX_ROW_LENGTH = 8

#: Row count from which the slab plan reads ``x`` through windows where a
#: bucket allows it.  Measured crossover, both paths forced on one matrix
#: (PERFORMANCE.md, "Kernel"): the gather still wins at 3 136 rows (21.1
#: vs 22.3 us Poisson, 22.2 vs 22.9 convection-diffusion), the windows
#: from 4 096 on (25.5 vs 24.8, 27.0 vs 25.1; 95 vs 56-62 at 16 384).
_WINDOW_MIN_ROWS = 4096


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class _SlabLayout:
    """Sliced-ELL arrangement of a pattern's entries for short rows.

    Rows are bucketed by length (row order kept inside a bucket); for a
    bucket of ``m`` rows of length ``k`` the entries are laid out as
    ``k`` *slabs*, slab ``j`` holding every row's ``j``-th entry.  Every
    bucket is summed as ``slab0 + (slab1 + slab2 + ...)`` -- the order
    ``np.add.reduceat`` uses inside a segment (plain left-to-right is not
    bit-equal).

    A gathered bucket's slabs are ``m`` contiguous values multiplied by
    one gather of ``x`` over :attr:`indices`.  A *window* bucket (see
    :func:`_window`) has slabs that span its whole row range, zeros at
    the other buckets' rows, laid out apart from the gathered ones; its
    sums are written into that range of the result first and the other
    rows there are overwritten after.
    """

    __slots__ = ("indices", "windows", "_buckets", "_rows", "_row_slots",
                 "_empty_rows", "_n_rows")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, *, windows: bool):
        lengths = np.diff(indptr)
        order = np.argsort(lengths, kind="stable")
        ks, starts = np.unique(lengths[order], return_index=True)
        stops = np.append(starts[1:], lengths.size)
        #: (row length, CSR position of each row's first entry, offset of
        #: slab 0, slab length, place of each row in its slab); window
        #: buckets add (first row of the range, x start of each slab).
        self._buckets, self.windows, gathered = [], [], []
        gathered_size = window_size = 0
        for k, start, stop in zip(ks.tolist(), starts.tolist(), stops.tolist()):
            if k:
                rows = order[start:stop]
                first = indptr[rows]
                window = _window(rows, first, indices, k, self.windows) if windows else None
                if window is None:
                    gathered.append(rows)
                    self._buckets.append((k, first, gathered_size, rows.size, slice(None)))
                    gathered_size += k * rows.size
                else:
                    self.windows.append((k, first, window_size, *window))
                    window_size += k * window[0]
        # Each gathered row and where its sum ends up: its place in its
        # bucket's slab 0.  Empty rows are zeroed after.
        self._n_rows = lengths.size
        self._empty_rows = np.flatnonzero(lengths == 0)
        self._rows = np.concatenate([order[:0]] + gathered)
        self._row_slots = np.concatenate(
            [order[:0]] + [offset + np.arange(m) for _, _, offset, m, _ in self._buckets]
        )
        self.indices = self._permute(indices, self._buckets)

    def permute(self, entries: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """A CSR-ordered per-entry array rearranged into slab order: the
        gathered buckets' part and the window buckets' part."""
        return self._permute(entries, self._buckets), self._permute(entries, self.windows)

    @staticmethod
    def _permute(entries: np.ndarray, buckets: list) -> np.ndarray:
        out = np.zeros(sum(k * span for k, _, _, span, *_ in buckets), entries.dtype)
        for k, first, offset, span, places, *_ in buckets:
            for j in range(k):
                out[offset + j * span : offset + (j + 1) * span][places] = entries[first + j]
        return out

    def reduce(self, products: np.ndarray, values: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Row sums: the gathered buckets' from ``products`` (their
        slab-ordered products, overwritten), the window buckets' from
        ``values`` (their part of :meth:`permute`) and a finite ``x``.

        Sums are accumulated inside ``products`` and in the one fresh
        row-ordered result, so a matvec allocates little else.
        """
        for k, _, offset, rows, _ in self._buckets:
            if k == 1:
                continue
            slabs = products[offset : offset + k * rows].reshape(k, rows)
            rest = slabs[1]
            for j in range(2, k):
                np.add(rest, slabs[j], out=rest)
            np.add(slabs[0], rest, out=slabs[0])
        sums = np.empty(self._n_rows, dtype=products.dtype)
        for window in self.windows:
            _window_sums(sums, values, x, *window)
        sums[self._rows] = products.take(self._row_slots)
        if self._empty_rows.size:
            sums[self._empty_rows] = 0.0
        return sums


def _window(rows, first, indices, k: int, taken: list):
    """``(span, places, first row, x starts)`` of a window bucket, or
    ``None``.  Each of the bucket's ``k`` slabs must read ``x`` at
    ``rows`` plus one shift; ``rows`` must fill at least half of their
    range (a sparser window multiplies more zeros than the gather it
    replaces is worth); and the range must not meet one already
    ``taken``, whose sums would be overwritten.  The half is measured
    (PERFORMANCE.md, "Kernel"): gather / window time of a k = 3 (k = 5)
    stencil bucket at n = 16 384 reads 1.43 (1.54) at fill 0.75, 1.05
    (1.06) at 0.5, 0.91 (0.82) at 0.33 and 0.83 (0.84) at 0.25."""
    row0 = int(rows[0])
    span = int(rows[-1]) - row0 + 1
    if span > 2 * rows.size or any(
        row0 < start + length and start < row0 + span
        for _, _, _, length, _, start, _ in taken
    ):
        return None
    shifts = indices[first + np.arange(k)[:, None]] - rows
    if (shifts != shifts[:, :1]).any():
        return None
    return span, rows - row0, row0, (row0 + shifts[:, 0]).tolist()


def _window_sums(sums, values, x, k, first, offset, span, places, row0, starts) -> None:
    """A window bucket's row sums, written into ``sums[row0 : row0 +
    span]`` (the other buckets' rows there get junk, overwritten after)."""
    slabs = values[offset : offset + k * span].reshape(k, span)
    out = sums[row0 : row0 + span]
    windows = [x[start : start + span] for start in starts]
    np.multiply(slabs[0], windows[0], out=out)
    if k > 1:
        rest, term = slabs[1] * windows[1], np.empty_like(out)
        for j in range(2, k):
            np.add(rest, np.multiply(slabs[j], windows[j], out=term), out=rest)
        np.add(out, rest, out=out)


class _RowSweeps:
    """SSOR's two triangular sweeps over a square pattern, row by row.

    ``forward`` covers the strictly lower entries, ``backward`` the
    strictly upper ones, each as ``(entries, cols, bounds)``: the
    entries' CSR positions in CSR order, their columns as sweep
    positions, and each row's ``(start, stop)`` into both, in sweep
    order.  The backward sweep runs from row ``n - 1`` down, so it is
    stored reversed (columns renumbered to ``n - 1 - c``) and both
    sweeps visit their rows in stored order.
    """

    __slots__ = ("forward", "backward")

    def __init__(self, pattern: "_Pattern"):
        n = pattern.shape[0]
        row_ids, indices = pattern.row_ids(), pattern.indices
        lower = np.flatnonzero(indices < row_ids)
        upper = np.flatnonzero(indices > row_ids)
        self.forward = (lower, indices[lower].tolist(), self._bounds(row_ids[lower], n))
        self.backward = (
            upper,
            (n - 1 - indices[upper]).tolist(),
            self._bounds(row_ids[upper], n)[::-1],
        )

    @staticmethod
    def _bounds(rows: np.ndarray, n: int) -> list:
        stops = np.cumsum(np.bincount(rows, minlength=n), dtype=np.int64).tolist()
        return list(zip([0] + stops[:-1], stops))

    def rows(self, data: np.ndarray) -> tuple:
        """``data``'s entries of both sweeps: per row, in sweep order, a
        tuple of ``(value, column)`` pairs with values widened to float64."""
        return self._pairs(self.forward, data), self._pairs(self.backward, data)

    @staticmethod
    def _pairs(sweep: tuple, data: np.ndarray) -> tuple:
        entries, cols, bounds = sweep
        values = data[entries].astype(np.float64).tolist()
        return tuple(tuple(zip(values[lo:hi], cols[lo:hi])) for lo, hi in bounds)


class _Pattern:
    """Immutable sparsity structure of a matrix, shared by its value-copies."""

    __slots__ = (
        "indptr", "indices", "shape",
        "nonempty_rows", "reduce_starts", "has_empty_rows",
        "slab_eligible", "_slabs", "_sweeps",
    )

    def __init__(self, indptr, indices, shape: Tuple[int, int]):
        indptr = np.asarray(indptr, dtype=np.int64)
        self.indptr = _read_only(indptr)
        self.indices = _read_only(np.asarray(indices, dtype=np.int64))
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if n_rows < 0 or n_cols < 0:
            raise ValueError("shape entries must be non-negative")
        self.shape = (n_rows, n_cols)
        if self.indptr.ndim != 1 or self.indptr.size != n_rows + 1:
            raise ValueError(
                f"indptr must have length n_rows+1={n_rows + 1}, got {self.indptr.size}"
            )
        if self.indptr[0] != 0:
            raise ValueError("indptr[0] must be 0")
        lengths = np.diff(self.indptr)
        if np.any(lengths < 0):
            raise ValueError("indptr must be non-decreasing")
        nnz = int(self.indptr[-1])
        if self.indices.size != nnz:
            raise ValueError(
                f"indices must have length indptr[-1]={nnz}, got {self.indices.size}"
            )
        if nnz and (self.indices.min() < 0 or self.indices.max() >= n_cols):
            raise ValueError("column indices out of range")
        # reduceat must only see strictly increasing indices -- repeated
        # indptr entries (empty rows) would make it return a neighbouring
        # segment's value instead of 0, so empty rows are masked out and
        # left at zero in the output.
        self.nonempty_rows = np.flatnonzero(lengths > 0)
        self.has_empty_rows = self.nonempty_rows.size != n_rows
        # Sliced from the writeable array: reduceat copies a read-only
        # index array on every call (+0.3 us, a tenth of a matvec at n=64).
        self.reduce_starts = (
            indptr[self.nonempty_rows] if self.has_empty_rows else indptr[:-1]
        )
        self.slab_eligible = bool(
            n_rows >= _SLAB_MIN_ROWS and lengths.max() <= _SLAB_MAX_ROW_LENGTH
        )
        self._slabs: Optional[_SlabLayout] = None
        self._sweeps: Optional[_RowSweeps] = None

    def row_ids(self) -> np.ndarray:
        """Row index of every stored entry, in CSR order."""
        return np.repeat(
            np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr)
        )

    def slabs(self) -> _SlabLayout:
        """The slab layout, built on first use.

        Rank threads of the sim backend may race here; each would build
        an equal layout and publication is one attribute assignment, so
        the race is harmless.
        """
        layout = self._slabs
        if layout is None:
            layout = self._slabs = _SlabLayout(
                self.indptr, self.indices,
                windows=self.shape[0] >= _WINDOW_MIN_ROWS,
            )
        return layout

    def sweeps(self) -> _RowSweeps:
        """SSOR's triangular sweeps (square patterns), built on first use.

        Racing rank threads publish equal sweeps with one attribute
        assignment each, as for :meth:`slabs`.
        """
        sweeps = self._sweeps
        if sweeps is None:
            sweeps = self._sweeps = _RowSweeps(self)
        return sweeps


def _check_compute_dtype(dtype) -> np.dtype:
    resolved = np.dtype(dtype)
    if resolved not in [np.dtype(d) for d in _COMPUTE_DTYPES]:
        raise ValueError(
            f"compute dtype must be float32 or float64, got {resolved}"
        )
    return resolved


def _check_storage_dtype(dtype) -> np.dtype:
    resolved = np.dtype(dtype)
    if resolved not in [np.dtype(d) for d in _STORAGE_DTYPES]:
        raise ValueError(
            f"storage dtype must be float16, float32 or float64, "
            f"got {resolved}"
        )
    return resolved


class CsrMatrix:
    """A real matrix in compressed-sparse-row format.

    Parameters
    ----------
    indptr:
        Row-pointer array of length ``n_rows + 1``.
    indices:
        Column indices of stored entries (length ``nnz``).
    data:
        Stored values (length ``nnz``), coerced to the storage dtype
        (float64 unless ``dtype``/``storage`` say otherwise).
    shape:
        ``(n_rows, n_cols)``.
    dtype:
        Compute dtype -- the dtype matvec coerces input vectors to and
        (together with the storage dtype) the dtype of its results.
        float64 (the default) or float32.
    storage:
        Dtype the ``data`` array is stored in; defaults to ``dtype``.
        May be float16 to halve matrix memory traffic again -- entries
        are widened by NumPy promotion during the multiply, so the
        accumulation still runs at the compute dtype.

    Notes
    -----
    The constructor validates structural invariants (monotone
    ``indptr``, in-range column indices).  Duplicate column indices in
    a row are allowed and are summed implicitly by matvec, matching
    conventional CSR semantics.
    """

    def __init__(
        self,
        indptr: Iterable[int],
        indices: Iterable[int],
        data: Iterable[float],
        shape: Tuple[int, int],
        *,
        dtype=np.float64,
        storage=None,
    ):
        self._set_values(
            _Pattern(indptr, indices, shape), data,
            _check_compute_dtype(dtype), storage,
        )
        if self.data.size != self.nnz:
            raise ValueError(
                f"data must have length indptr[-1]={self.nnz}, "
                f"got {self.data.size}"
            )

    def _set_values(self, pattern: _Pattern, data, dtype: np.dtype, storage) -> None:
        self._pattern = pattern
        self.indptr = pattern.indptr
        self.indices = pattern.indices
        self.shape = pattern.shape
        self.dtype = dtype
        storage_dtype = dtype if storage is None else _check_storage_dtype(storage)
        self.data = np.asarray(data, dtype=storage_dtype)
        # Dtype of matvec products: NumPy promotion of storage x compute
        # (float16 storage widens to the compute dtype, never narrows it).
        self._result_dtype = np.result_type(self.data.dtype, self.dtype)
        # ``data`` in slab order (gathered, window part), built by the
        # first slab matvec.
        self._slab_data: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _with_values(self, data: np.ndarray, *, dtype=None, storage=None) -> "CsrMatrix":
        """A matrix over the same (shared, already validated) pattern."""
        twin = object.__new__(CsrMatrix)
        twin._set_values(
            self._pattern,
            data,
            self.dtype if dtype is None else dtype,
            self.data.dtype if storage is None else storage,
        )
        return twin

    def __getstate__(self):
        # pickle and deepcopy hand back writeable arrays, so the twin
        # has to re-arm the stale-plan guard itself.
        return {**self.__dict__, "_slab_data": None}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(
        cls,
        rows: Iterable[int],
        cols: Iterable[int],
        values: Iterable[float],
        shape: Tuple[int, int],
        *,
        dtype=np.float64,
        storage=None,
    ) -> "CsrMatrix":
        """Build from coordinate (triplet) format; duplicates are summed."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not (rows.shape == cols.shape == values.shape):
            raise ValueError("rows, cols and values must have the same length")
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
            raise ValueError("row indices out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
            raise ValueError("column indices out of range")
        # Sum duplicates by sorting on (row, col).
        order = np.lexsort((cols, rows))
        rows, cols, values = rows[order], cols[order], values[order]
        if rows.size:
            keys = rows * n_cols + cols
            unique_mask = np.empty(rows.size, dtype=bool)
            unique_mask[0] = True
            unique_mask[1:] = keys[1:] != keys[:-1]
            group_ids = np.cumsum(unique_mask) - 1
            summed = np.zeros(int(group_ids[-1]) + 1, dtype=np.float64)
            np.add.at(summed, group_ids, values)
            rows = rows[unique_mask]
            cols = cols[unique_mask]
            values = summed
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        indptr = np.cumsum(indptr)
        return cls(
            indptr, cols, values, (n_rows, n_cols), dtype=dtype, storage=storage
        )

    @classmethod
    def identity(cls, n: int, *, dtype=np.float64, storage=None) -> "CsrMatrix":
        """The n-by-n identity matrix."""
        check_integer(n, "n")
        indptr = np.arange(n + 1, dtype=np.int64)
        indices = np.arange(n, dtype=np.int64)
        data = np.ones(n, dtype=np.float64)
        return cls(indptr, indices, data, (n, n), dtype=dtype, storage=storage)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indptr[-1])

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        """Number of columns."""
        return self.shape[1]

    @property
    def is_square(self) -> bool:
        """Whether the matrix is square."""
        return self.shape[0] == self.shape[1]

    def astype(self, dtype, *, storage=None) -> "CsrMatrix":
        """Return a copy with the given compute (and optional storage) dtype.

        The pattern is shared; only ``data`` is converted.
        ``astype(np.float64)`` on a float64 matrix is still a new object
        with its own data array, matching :meth:`copy`.
        """
        resolved = _check_compute_dtype(dtype)
        storage_dtype = (
            resolved if storage is None else _check_storage_dtype(storage)
        )
        return self._with_values(
            self.data.astype(storage_dtype), dtype=resolved, storage=storage_dtype
        )

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Return ``A @ x`` for a 1-D vector ``x``."""
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 1 or x.size != self.n_cols:
            raise ValueError(
                f"x must be a vector of length {self.n_cols}, got shape {x.shape}"
            )
        pattern = self._pattern
        if pattern.slab_eligible:
            layout = pattern.slabs()
            # A window also multiplies the zeros between its rows, which
            # on an inf would raise a warning the reference never does:
            # a non-finite ``x`` takes ``reduceat`` there, for equal bits.
            if not layout.windows or np.isfinite(x).all():
                return self._slab_matvec(layout, x)
        products = self.data * x[pattern.indices]
        if not pattern.has_empty_rows:
            if self.n_rows == 0:
                return np.zeros(0, dtype=self._result_dtype)
            return np.add.reduceat(products, pattern.reduce_starts)
        result = np.zeros(self.n_rows, dtype=self._result_dtype)
        if products.size:
            result[pattern.nonempty_rows] = np.add.reduceat(
                products, pattern.reduce_starts
            )
        return result

    def _slab_matvec(self, layout: _SlabLayout, x: np.ndarray) -> np.ndarray:
        values = self._slab_data
        if values is None:
            # The plan multiplies by its own permuted copy of ``data``;
            # freezing ``data`` first makes a later in-place write raise
            # instead of leaving that copy stale.  Racing rank threads
            # publish equal arrays with one assignment each.
            self.data.flags.writeable = False
            values = self._slab_data = layout.permute(self.data)
        # Gather into ONE fresh nnz-sized array and multiply in place: a
        # second nnz-sized temporary per call costs most of the gain
        # (glibc trims and re-faults the heap top every time), and a
        # buffer kept on the matrix would not be safe under rank threads.
        x = x.astype(self._result_dtype, copy=False)
        products = x.take(layout.indices)
        np.multiply(values[0], products, out=products)
        return layout.reduce(products, values[1], x)

    def matvec_block(self, X: np.ndarray) -> np.ndarray:
        """Return ``(A @ X.T).T`` for a stack of vectors ``X`` of shape ``(S, n)``.

        One gather and one ``reduceat`` over the whole stack: each row of
        the result is bit-identical to ``matvec(X[s])`` because
        ``np.add.reduceat`` reduces every row of the 2-D product array
        with the same segment sums the 1-D call uses.
        """
        X = np.asarray(X, dtype=self.dtype)
        if X.ndim != 2 or X.shape[1] != self.n_cols:
            raise ValueError(
                f"X must have shape (S, {self.n_cols}), got {X.shape}"
            )
        pattern = self._pattern
        products = self.data * X[:, pattern.indices]
        if not pattern.has_empty_rows:
            if self.n_rows == 0:
                return np.zeros((X.shape[0], 0), dtype=self._result_dtype)
            return np.add.reduceat(products, pattern.reduce_starts, axis=1)
        result = np.zeros((X.shape[0], self.n_rows), dtype=self._result_dtype)
        if products.size:
            result[:, pattern.nonempty_rows] = np.add.reduceat(
                products, pattern.reduce_starts, axis=1
            )
        return result

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Return ``A.T @ y``."""
        y = np.asarray(y, dtype=self.dtype)
        if y.ndim != 1 or y.size != self.n_rows:
            raise ValueError(
                f"y must be a vector of length {self.n_rows}, got shape {y.shape}"
            )
        result = np.zeros(self.n_cols, dtype=self._result_dtype)
        np.add.at(result, self.indices, self.data * y[self._pattern.row_ids()])
        return result

    def diagonal_values(self) -> np.ndarray:
        """Extract the main diagonal (zeros where no entry is stored)."""
        diag = np.zeros(min(self.shape), dtype=self.dtype)
        row_ids = self._pattern.row_ids()
        hits = np.flatnonzero(row_ids == self.indices)
        # add.at, not assignment: duplicate diagonal entries are summed.
        np.add.at(diag, row_ids[hits], self.data[hits])
        return diag

    def row_ids(self) -> np.ndarray:
        """Row index of every stored entry, in CSR order (COO-style rows)."""
        return self._pattern.row_ids()

    def sweep_schedule(self) -> _RowSweeps:
        """The schedule of the triangular sweeps (square matrices).

        Structure only: built once per pattern and shared by every
        value-copy, so asking again is free.
        """
        return self._pattern.sweeps()

    def row_slice(self, start: int, stop: int) -> "CsrMatrix":
        """Return rows ``start:stop`` as a new CSR matrix (same column space)."""
        check_integer(start, "start")
        check_integer(stop, "stop")
        if not 0 <= start <= stop <= self.n_rows:
            raise ValueError(f"invalid row slice [{start}, {stop})")
        lo, hi = int(self.indptr[start]), int(self.indptr[stop])
        indptr = self.indptr[start : stop + 1] - self.indptr[start]
        return CsrMatrix(
            indptr, self.indices[lo:hi].copy(), self.data[lo:hi].copy(),
            (stop - start, self.n_cols),
            dtype=self.dtype, storage=self.data.dtype,
        )

    def to_dense(self) -> np.ndarray:
        """Return the dense equivalent (use only for small matrices/tests)."""
        dense = np.zeros(self.shape, dtype=self.dtype)
        np.add.at(dense, (self._pattern.row_ids(), self.indices), self.data)
        return dense

    def copy(self) -> "CsrMatrix":
        """A matrix with its own ``data`` over the shared, immutable pattern."""
        return self._with_values(self.data.copy())

    def __add__(self, other: "CsrMatrix") -> "CsrMatrix":
        if not isinstance(other, CsrMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError("matrix shapes must match for addition")
        return CsrMatrix.from_coo(
            np.concatenate([self._pattern.row_ids(), other._pattern.row_ids()]),
            np.concatenate([self.indices, other.indices]),
            np.concatenate([self.data, other.data]),
            self.shape,
            dtype=np.result_type(self.dtype, other.dtype),
        )
