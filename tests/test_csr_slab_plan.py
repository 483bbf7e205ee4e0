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

from repro.krylov.registry import default_solver_registry
from repro.linalg import csr as csr_module
from repro.linalg.csr import CsrMatrix
from repro.linalg.matgen import (
    clear_matrix_cache,
    convection_diffusion_2d,
    poisson_2d,
)

MIN_ROWS = csr_module._SLAB_MIN_ROWS
MAX_LEN = csr_module._SLAB_MAX_ROW_LENGTH


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
        cols, vals = matrix.row(i)
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
            lambda self, products: calls.append(1) or reduce(self, products),
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


class TestDiagonalValues:
    @pytest.mark.parametrize("shape", [(30, 30), (40, 25), (25, 40)])
    def test_matches_the_row_loop(self, shape):
        rng = np.random.default_rng(shape[0])
        dense = rng.standard_normal(shape)
        dense[rng.random(shape) < 0.6] = 0.0
        matrix = CsrMatrix.from_dense(dense)
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
        twins = [
            a.copy(),
            a.astype(np.float32),
            a.astype(np.float64),
            a.scale_rows(np.arange(1.0, a.n_rows + 1)),
            a * 2.0,
            3 * a,
        ]
        for b in twins:
            assert b is not a
            assert b.indices is a.indices and b.indptr is a.indptr
            assert b._pattern is a._pattern
            assert not np.shares_memory(b.data, a.data)
            assert b.shape == a.shape
        np.testing.assert_array_equal(twins[3].to_dense()[4], 5.0 * a.to_dense()[4])
        np.testing.assert_array_equal((a * 2.0).data, 2.0 * a.data)

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
        clear_matrix_cache()
        x = np.random.default_rng(1).standard_normal(48 * 48)
        expected = reduceat_matvec(poisson_2d(48), x)
        twins = [poisson_2d(48) for _ in range(8)]
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
