"""The bandwidth-bound CSR tier: slab reduce plan, vectorised diagonal,
shared matrix structure.

What the kernel tier must preserve:

* the slab path of ``CsrMatrix.matvec`` gives the same *bits* as the
  ``reduceat`` path it replaces at large sizes (the loop-free
  ``reduceat`` reference below is the parent implementation), for every
  dtype combination and for non-finite inputs,
* which path runs is decided by the matrix alone (row count, longest
  row), and ``matvec_block`` keeps agreeing with ``matvec`` row by row,
* ``diagonal_values`` equals the per-row loop it replaced,
* from ``_WINDOW_MIN_ROWS`` rows on, the buckets that read ``x`` at
  their rows plus one shift per slab (a chain's or a grid stencil's
  interior) read it through contiguous windows, with the same bits, and
  a non-finite ``x`` takes ``reduceat`` on such a matrix,
* value-copies share the immutable pattern and own their values, and a
  write to ``data`` after the plan froze it raises,
* iteration counts of a ``solves_large``-shaped run are unchanged.
"""

from __future__ import annotations

import copy
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.distributed import DistributedRowMatrix
from repro.comm.sim import run_spmd
from repro.krylov.registry import default_solver_registry
from repro.linalg import csr as csr_module
from repro.linalg.csr import CsrMatrix
from repro.linalg.matgen import (
    clear_matrix_cache,
    convection_diffusion_2d,
    poisson_1d,
    poisson_2d,
)

from conftest import csr_from_dense

MIN_ROWS = csr_module._SLAB_MIN_ROWS
MAX_LEN = csr_module._SLAB_MAX_ROW_LENGTH
WINDOW_ROWS = csr_module._WINDOW_MIN_ROWS


def reduceat_matvec(matrix: CsrMatrix, x: np.ndarray) -> np.ndarray:
    """The parent commit's matvec: gather, multiply, ``np.add.reduceat``."""
    x = np.asarray(x, dtype=matrix.dtype)
    products = matrix.data * x[matrix.indices]
    lengths = np.diff(matrix.indptr)
    nonempty = np.flatnonzero(lengths > 0)
    result = np.zeros(matrix.n_rows, dtype=np.result_type(matrix.data.dtype, matrix.dtype))
    if products.size:
        result[nonempty] = np.add.reduceat(products, matrix.indptr[nonempty])
    return result


def loop_diagonal(matrix: CsrMatrix) -> np.ndarray:
    """The per-row loop ``diagonal_values`` used to be."""
    diag = np.zeros(min(matrix.shape), dtype=matrix.dtype)
    for i in range(min(matrix.shape)):
        start, end = matrix.indptr[i], matrix.indptr[i + 1]
        cols, vals = matrix.indices[start:end], matrix.data[start:end]
        hits = np.nonzero(cols == i)[0]
        if hits.size:
            diag[i] = vals[hits].sum()
    return diag


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bit patterns -- signed zeros and infinities
    included.  A NaN must sit where a NaN sits, but its sign and payload
    are not compared: which operand's NaN an addition hands on is the
    compiler's choice inside NumPy's loops, and no caller can observe it."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    nan = np.isnan(a)
    if not np.array_equal(nan, np.isnan(b)):
        return False
    return np.where(nan, 0, a).tobytes() == np.where(nan, 0, b).tobytes()


def random_csr(rng, n_rows, n_cols, max_len, *, dtype=np.float64, storage=None):
    """Random rows of 0..max_len entries; columns unsorted, duplicates allowed."""
    lengths = rng.integers(0, max_len + 1, size=n_rows)
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    nnz = int(indptr[-1])
    indices = rng.integers(0, n_cols, size=nnz)
    data = rng.standard_normal(nnz) * 10.0 ** rng.integers(-3, 4, size=nnz)
    return CsrMatrix(indptr, indices, data, (n_rows, n_cols), dtype=dtype, storage=storage)


def forbid_slab_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the slab layout must not be built for this matrix")

    monkeypatch.setattr(csr_module, "_SlabLayout", refuse)


def forbid_window_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no bucket of this matrix may read x through a window")

    monkeypatch.setattr(csr_module, "_window_sums", refuse)


def window_lengths(matrix: CsrMatrix) -> list:
    """Row lengths of the buckets the plan reads through windows."""
    return [window[0] for window in matrix._pattern.slabs().windows]


def rebuilt(matrix: CsrMatrix) -> CsrMatrix:
    """The same matrix over a fresh pattern (no plan, not the matgen cache's)."""
    return CsrMatrix(
        np.array(matrix.indptr), np.array(matrix.indices), matrix.data.copy(),
        matrix.shape, dtype=matrix.dtype, storage=matrix.data.dtype,
    )


DTYPES = [
    (np.float64, None),
    (np.float32, None),
    (np.float32, np.float16),
    (np.float32, np.float64),  # storage wider than compute: products widen
]


class TestSlabMatvecBits:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        extra_rows=st.integers(0, 40),
        n_cols=st.integers(1, 300),
        max_len=st.integers(0, MAX_LEN),
        dtypes=st.sampled_from(DTYPES),
        specials=st.lists(
            st.sampled_from([np.inf, -np.inf, np.nan, -0.0, 0.0]), max_size=6
        ),
    )
    def test_slab_matvec_equals_reduceat_bit_for_bit(
        self, seed, extra_rows, n_cols, max_len, dtypes, specials
    ):
        rng = np.random.default_rng(seed)
        dtype, storage = dtypes
        matrix = random_csr(
            rng, MIN_ROWS + extra_rows, n_cols, max_len, dtype=dtype, storage=storage
        )
        assert matrix._pattern.slab_eligible
        x = rng.standard_normal(n_cols)
        for value in specials:
            x[rng.integers(0, n_cols)] = value
        with np.errstate(invalid="ignore", over="ignore"):
            assert same_bits(matrix.matvec(x), reduceat_matvec(matrix, x))

    @pytest.mark.parametrize("k", range(0, MAX_LEN + 1))
    def test_every_row_length_alone_and_signed_zeros(self, k):
        """One bucket per run (no row reordering), entries all ``-0.0``:
        the sign of a zero row sum is where a wrong start value shows."""
        n = MIN_ROWS
        indptr = np.arange(n + 1) * k
        rng = np.random.default_rng(k)
        indices = rng.integers(0, n, size=n * k)
        matrix = CsrMatrix(indptr, indices, np.ones(n * k), (n, n))
        for x in (np.full(n, -0.0), rng.standard_normal(n)):
            assert same_bits(matrix.matvec(x), reduceat_matvec(matrix, x))

    def test_model_problems_match_reduceat(self):
        rng = np.random.default_rng(7)
        for matrix in (poisson_2d(40), convection_diffusion_2d(40, peclet=10.0)):
            x = rng.standard_normal(matrix.n_cols)
            assert same_bits(matrix.matvec(x), reduceat_matvec(matrix, x))
            # the answer does not depend on when the plan was built
            assert same_bits(matrix.matvec(x), matrix.matvec(x))

    def test_matvec_still_validates_and_coerces(self):
        matrix = poisson_2d(32)
        with pytest.raises(ValueError):
            matrix.matvec(np.ones(matrix.n_cols + 1))
        with pytest.raises(ValueError):
            matrix.matvec(np.ones((matrix.n_cols, 1)))
        as_ints = matrix.matvec(np.arange(matrix.n_cols))
        assert same_bits(as_ints, matrix.matvec(np.arange(matrix.n_cols, dtype=np.float64)))


class TestWindowMatvecBits:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, MAX_LEN),
        grid=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        gap=st.floats(0.0, 1.0),
        extra_cols=st.integers(0, 30),
        dtypes=st.sampled_from(DTYPES),
        strided=st.booleans(),
        specials=st.lists(
            st.sampled_from([np.inf, -np.inf, np.nan, -0.0, 0.0]), max_size=6
        ),
    )
    def test_a_grid_block_among_random_rows_equals_reduceat(
        self, seed, k, grid, gap, extra_cols, dtypes, strided, specials
    ):
        """Rows ``row0 + s*r + c`` of length ``k``, slab ``j`` reading
        column ``row + shift_j``; every other row random (empty ones
        included).  Shorter rows sit after the block only, so no window
        taken before it can overlap it and the block is always one."""
        rng = np.random.default_rng(seed)
        (R, C), (dtype, storage) = grid, dtypes
        stride = C + int(gap * C)
        n = WINDOW_ROWS + int(rng.integers(0, 40))
        n_cols = n + extra_cols
        span = stride * (R - 1) + C
        row0 = int(rng.integers(0, n - span + 1))
        block = row0 + (stride * np.arange(R)[:, None] + np.arange(C)).ravel()
        longer = [0] + list(range(k + 1, MAX_LEN + 1))
        other = [length for length in range(MAX_LEN + 1) if length != k]
        lengths = np.where(
            np.arange(n) < row0 + span,
            rng.choice(longer, size=n),
            rng.choice(other, size=n),
        )
        lengths[block] = k
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        indices = rng.integers(0, n_cols, size=int(indptr[-1]))
        shifts = rng.integers(-row0, n_cols - (row0 + span) + 1, size=k)
        indices[indptr[block][:, None] + np.arange(k)] = block[:, None] + shifts
        data = rng.standard_normal(indices.size) * 10.0 ** rng.integers(-3, 4, size=indices.size)
        for value in specials[: len(specials) // 2]:
            data[rng.integers(0, data.size)] = value
        matrix = CsrMatrix(indptr, indices, data, (n, n_cols), dtype=dtype, storage=storage)
        assert k in window_lengths(matrix)
        x = rng.standard_normal(2 * n_cols)[:: 2 if strided else 1][:n_cols]
        for value in specials[len(specials) // 2 :]:
            x[rng.integers(0, n_cols)] = value
        with np.errstate(invalid="ignore", over="ignore"):
            assert same_bits(matrix.matvec(x), reduceat_matvec(matrix, x))

    @pytest.mark.parametrize("build", [
        lambda n: poisson_1d(n),
        lambda n: poisson_2d(int(round(n ** 0.5))),
        lambda n: convection_diffusion_2d(int(round(n ** 0.5)), peclet=10.0),
    ], ids=["poisson_1d", "poisson_2d", "convdiff"])
    @pytest.mark.parametrize("n", [WINDOW_ROWS - 127, WINDOW_ROWS])
    def test_model_problems_on_both_sides_of_the_constant(self, build, n):
        matrix = build(n)
        assert (matrix.n_rows >= WINDOW_ROWS) == bool(window_lengths(matrix))
        x = np.random.default_rng(n).standard_normal(matrix.n_cols)
        assert same_bits(matrix.matvec(x), reduceat_matvec(matrix, x))
        assert same_bits(matrix.matvec(x[::-1].copy()[::-1]), reduceat_matvec(matrix, x))

    def test_interleaved_buckets_keep_one_window(self):
        """Even rows of length 2 and odd rows of length 3, each with a
        shift per slab: both fill half their range, but the ranges meet,
        so only the first bucket may write its range of the result."""
        n = WINDOW_ROWS
        lengths = np.where(np.arange(n) % 2, 3, 2)
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        shifts = np.concatenate([[0, 1] if k == 2 else [0, -1, -1] for k in lengths])
        indices = np.repeat(np.arange(n), lengths) + shifts
        rng = np.random.default_rng(10)
        matrix = CsrMatrix(indptr, indices, rng.standard_normal(indices.size), (n, n))
        assert window_lengths(matrix) == [2]
        x = rng.standard_normal(n)
        assert same_bits(matrix.matvec(x), reduceat_matvec(matrix, x))

    @pytest.mark.parametrize("every, windows", [(2, [3]), (3, [])])
    def test_a_bucket_filling_less_than_half_its_range_stays_gathered(self, every, windows):
        """Every ``every``-th row reads ``x`` at ``row - 1, row, row + 1``;
        the rows between hold two random columns."""
        n = WINDOW_ROWS
        rng = np.random.default_rng(every)
        stencil = np.arange(n) % every == 1
        lengths = np.where(stencil, 3, 2)
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        indices = rng.integers(0, n + 1, size=int(indptr[-1]))
        rows = np.flatnonzero(stencil)
        indices[indptr[rows][:, None] + np.arange(3)] = rows[:, None] + np.arange(-1, 2)
        matrix = CsrMatrix(indptr, indices, rng.standard_normal(indices.size), (n, n + 1))
        assert window_lengths(matrix) == windows
        x = rng.standard_normal(n + 1)
        assert same_bits(matrix.matvec(x), reduceat_matvec(matrix, x))

    def test_row_blocks_of_the_distributed_matrix(self):
        """Three ranks cut a side-128 grid mid grid-row: each block's
        interior is still one window, starting and ending in a partial
        grid row."""
        matrix = poisson_2d(128)
        x = np.random.default_rng(3).standard_normal(matrix.n_cols)

        def program(comm):
            block = DistributedRowMatrix.from_global(comm, matrix).local_block
            return window_lengths(block), block.matvec(x)

        results = run_spmd(3, program)
        assert [lengths for lengths, _ in results] == [[5]] * 3
        got = np.concatenate([sums for _, sums in results])
        assert same_bits(got, reduceat_matvec(matrix, x))


class TestPathSelection:
    def test_long_row_takes_reduceat(self, monkeypatch):
        rng = np.random.default_rng(3)
        n = MIN_ROWS + 5
        lengths = np.full(n, 3)
        lengths[17] = MAX_LEN + 1
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        indices = rng.integers(0, n, size=int(indptr[-1]))
        matrix = CsrMatrix(indptr, indices, rng.standard_normal(indices.size), (n, n))
        assert not matrix._pattern.slab_eligible
        forbid_slab_path(monkeypatch)
        x = rng.standard_normal(n)
        assert same_bits(matrix.matvec(x), reduceat_matvec(matrix, x))
        assert matrix.data.flags.writeable

    def test_just_below_the_size_constant_takes_reduceat(self, monkeypatch):
        rng = np.random.default_rng(4)
        matrix = random_csr(rng, MIN_ROWS - 1, 50, 5)
        forbid_slab_path(monkeypatch)
        x = rng.standard_normal(50)
        assert same_bits(matrix.matvec(x), reduceat_matvec(matrix, x))
        assert matrix.data.flags.writeable

    def test_at_the_size_constant_takes_the_slab_path(self, monkeypatch):
        rng = np.random.default_rng(5)
        matrix = random_csr(rng, MIN_ROWS, 50, 5)
        calls = []
        reduce = csr_module._SlabLayout.reduce
        monkeypatch.setattr(
            csr_module._SlabLayout, "reduce",
            lambda self, *args: calls.append(1) or reduce(self, *args),
        )
        matrix.matvec(rng.standard_normal(50))
        assert calls == [1]

    def test_matvec_block_rows_equal_matvec_at_plan_size(self, monkeypatch):
        rng = np.random.default_rng(6)
        matrix = random_csr(rng, MIN_ROWS + 3, 80, MAX_LEN)
        X = rng.standard_normal((4, 80))
        rows = [matrix.matvec(x) for x in X]
        forbid_slab_path(monkeypatch)  # matvec_block stays on reduceat
        block = matrix.matvec_block(X)
        for s, row in enumerate(rows):
            assert same_bits(block[s], row)


    def test_each_side_of_the_window_constant_takes_its_own_path(self, monkeypatch):
        below, at = rebuilt(poisson_2d(63)), rebuilt(poisson_2d(64))
        assert below.n_rows < WINDOW_ROWS == at.n_rows
        calls = []
        window_sums = csr_module._window_sums
        monkeypatch.setattr(
            csr_module, "_window_sums",
            lambda *args: calls.append(1) or window_sums(*args),
        )
        x = np.random.default_rng(8).standard_normal(at.n_cols)
        assert same_bits(at.matvec(x), reduceat_matvec(at, x))
        assert calls == [1] and window_lengths(at) == [5]
        forbid_window_path(monkeypatch)
        x = x[: below.n_cols]
        assert same_bits(below.matvec(x), reduceat_matvec(below, x))
        assert window_lengths(below) == []

    def test_a_non_finite_x_skips_the_windows_and_warns_as_reduceat_does(self, monkeypatch):
        """x[127] is read at a boundary row inside the window range, where
        a window would multiply a zero by it."""
        matrix = rebuilt(poisson_2d(64))
        x = np.ones(matrix.n_cols)
        matrix.matvec(x)
        forbid_window_path(monkeypatch)
        for special in (np.inf, np.nan):
            x[127] = special
            with np.errstate(all="raise"):
                assert same_bits(matrix.matvec(x), reduceat_matvec(matrix, x))

    def test_solvers_return_the_same_bits_with_windows_forced_off(self, monkeypatch):
        """Grid 128: ``cg``/``jacobi`` and ``gmres``/``poly4`` as in
        ``solves_large`` (40 iterations: a differing matvec shows in the
        first), on the cached (window) matrices and on rebuilt twins
        whose plan was built with the window path off."""
        registry = default_solver_registry()
        cases = [
            ("cg", poisson_2d(128), dict(precond="jacobi")),
            ("gmres", convection_diffusion_2d(128, peclet=10.0),
             dict(precond="poly4", restart=40)),
        ]
        b = np.random.default_rng(2013).standard_normal(128 * 128)
        on = [registry.get(name).solve(m, b, tol=1e-8, maxiter=40, **kw)
              for name, m, kw in cases]
        monkeypatch.setattr(csr_module, "_WINDOW_MIN_ROWS", 2**62)
        off = [rebuilt(m) for _, m, _ in cases]
        for (name, m, kw), twin, result in zip(cases, off, on):
            again = registry.get(name).solve(twin, b, tol=1e-8, maxiter=40, **kw)
            assert window_lengths(m) == [5] and window_lengths(twin) == []
            assert same_bits(again.x, result.x), name
            assert again.residual_norms == result.residual_norms, name


class TestDiagonalValues:
    @pytest.mark.parametrize("shape", [(30, 30), (40, 25), (25, 40)])
    def test_matches_the_row_loop(self, shape):
        rng = np.random.default_rng(shape[0])
        dense = rng.standard_normal(shape)
        dense[rng.random(shape) < 0.6] = 0.0
        matrix = csr_from_dense(dense)
        got = matrix.diagonal_values()
        assert same_bits(got, loop_diagonal(matrix))
        np.testing.assert_array_equal(got, np.diag(dense))

    def test_missing_diagonal_entries_are_zero(self):
        matrix = CsrMatrix([0, 1, 1, 2], [1, 0], [5.0, 7.0], (3, 3))
        np.testing.assert_array_equal(matrix.diagonal_values(), [0.0, 0.0, 0.0])
        assert same_bits(matrix.diagonal_values(), loop_diagonal(matrix))

    def test_duplicate_diagonal_entries_are_summed(self):
        matrix = CsrMatrix(
            [0, 3, 5], [0, 1, 0, 1, 1], [1.5, 9.0, 2.25, 0.1, 0.2], (2, 2)
        )
        np.testing.assert_array_equal(matrix.diagonal_values(), [3.75, 0.1 + 0.2])
        assert same_bits(matrix.diagonal_values(), loop_diagonal(matrix))

    def test_compute_dtype_is_kept(self):
        matrix = poisson_2d(6).astype(np.float32, storage=np.float16)
        diag = matrix.diagonal_values()
        assert diag.dtype == np.float32
        assert same_bits(diag, loop_diagonal(matrix))


class TestSharedStructure:
    def test_value_copies_share_the_pattern_and_own_their_values(self):
        a = poisson_2d(9)
        twins = [a.copy(), a.astype(np.float32), a.astype(np.float64)]
        for b in twins:
            assert b is not a
            assert b.indices is a.indices and b.indptr is a.indptr
            assert b._pattern is a._pattern
            assert not np.shares_memory(b.data, a.data)
            assert b.shape == a.shape

    def test_lru_twins_share_structure(self):
        clear_matrix_cache()
        first = poisson_2d(11)
        second = poisson_2d(11)
        assert first.indices is second.indices and first.indptr is second.indptr
        assert not np.shares_memory(first.data, second.data)

    def test_structure_arrays_are_read_only_from_construction(self):
        matrix = CsrMatrix([0, 1, 2], [0, 1], [1.0, 2.0], (2, 2))
        with pytest.raises(ValueError):
            matrix.indices[0] = 1
        with pytest.raises(ValueError):
            matrix.indptr[1] = 2
        matrix.data[0] = 4.0  # values of a small matrix stay writeable
        np.testing.assert_array_equal(matrix.matvec(np.ones(2)), [4.0, 2.0])

    def test_writing_data_after_a_plan_sized_matvec_raises(self):
        matrix = poisson_2d(32)
        twin = matrix.copy()
        matrix.data[:] *= 2.0  # allowed: no plan yet
        x = np.ones(matrix.n_cols)
        doubled = matrix.matvec(x)
        with pytest.raises(ValueError, match="read-only"):
            matrix.data[0] = 0.0
        # the twin built no plan: still writeable, and unaffected
        twin.data[:] *= 1.0
        assert same_bits(2.0 * twin.matvec(x), doubled)

    def test_writing_data_after_a_window_matvec_raises(self):
        matrix = rebuilt(poisson_2d(64))
        x = np.random.default_rng(9).standard_normal(matrix.n_cols)
        before = matrix.matvec(x)
        assert window_lengths(matrix) == [5]
        with pytest.raises(ValueError, match="read-only"):
            matrix.data[0] = 0.0
        twin = pickle.loads(pickle.dumps(matrix))
        assert same_bits(twin.matvec(x), before)
        assert window_lengths(twin) == [5]

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))])
    def test_clones_re_arm_the_stale_plan_guard(self, clone):
        matrix = poisson_2d(32)
        x = np.random.default_rng(0).standard_normal(matrix.n_cols)
        before = matrix.matvec(x)
        twin = clone(matrix)
        twin.data[:] = 0.0  # the clone's arrays come back writeable ...
        assert not twin.matvec(x).any()  # ... so its plan must be rebuilt from them
        assert same_bits(matrix.matvec(x), before)

    def test_rank_threads_racing_to_build_the_plan_agree(self):
        """More threads than cores, all first-touching one shared pattern."""
        race_to_build_the_plan(48)

    def test_rank_threads_racing_to_build_a_window_plan_agree(self):
        race_to_build_the_plan(96)


def race_to_build_the_plan(grid: int) -> None:
    clear_matrix_cache()
    x = np.random.default_rng(1).standard_normal(grid * grid)
    expected = reduceat_matvec(poisson_2d(grid), x)
    twins = [poisson_2d(grid) for _ in range(8)]
    start = threading.Barrier(len(twins))
    results = [None] * len(twins)

    def work(i):
        start.wait(timeout=10)
        for _ in range(20):
            results[i] = twins[i].matvec(x)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(twins))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(same_bits(r, expected) for r in results)
    assert len({id(t._pattern._slabs) for t in twins}) == 1
    assert bool(window_lengths(twins[0])) == (grid * grid >= WINDOW_ROWS)


class TestNeumannApply:
    @pytest.mark.parametrize("precision", [np.float64, np.float32])
    def test_apply_matches_the_textbook_recurrence(self, precision):
        from repro.linalg.precond import NeumannPolynomialPreconditioner

        matrix = convection_diffusion_2d(34, peclet=10.0).astype(precision)
        precond = NeumannPolynomialPreconditioner(matrix, degree=4)
        v = np.random.default_rng(2).standard_normal(matrix.n_rows)
        inv_diag = 1.0 / matrix.diagonal_values()
        term = inv_diag * v
        expected = term.copy()
        for _ in range(4):
            term = term - inv_diag * matrix.matvec(term)
            expected += term
        assert same_bits(precond.apply(v), expected)
        with pytest.raises(ValueError):
            precond.apply(v[:-1])


def test_solves_large_shaped_iteration_counts_are_pinned():
    """Grid 64 (n = 4096, slab path) through all seven registered solvers
    with the ``solves_large`` parameters; counts recorded at the parent
    commit, where every matvec went through ``reduceat``."""
    grid, tol = 64, 1e-8
    matrices = {
        "poisson": poisson_2d(grid),
        "convdiff": convection_diffusion_2d(grid, peclet=10.0),
    }
    x_true = np.random.default_rng(2013).standard_normal(grid * grid)
    rhs = {key: m.matvec(x_true) for key, m in matrices.items()}
    spd = dict(tol=tol, maxiter=4000, precond="jacobi")
    arnoldi = dict(tol=tol, maxiter=4000, precond="poly4", restart=40)
    expected = [
        ("cg", "poisson", spd, 173),
        ("pipelined_cg", "poisson", spd, 173),
        ("gmres", "convdiff", arnoldi, 83),
        ("fgmres", "convdiff", arnoldi, 83),
        ("pipelined_gmres", "convdiff", arnoldi, 83),
        ("sdc_gmres", "convdiff", arnoldi, 83),
        ("ft_gmres", "convdiff", dict(tol=tol), 10),
    ]
    registry = default_solver_registry()
    for solver, key, kwargs, iterations in expected:
        result = registry.get(solver).solve(matrices[key], rhs[key], **kwargs)
        assert result.converged, solver
        assert result.iterations == iterations, solver
        residual = np.linalg.norm(rhs[key] - reduceat_matvec(matrices[key], result.x))
        assert residual <= 10 * tol * np.linalg.norm(rhs[key]), solver
