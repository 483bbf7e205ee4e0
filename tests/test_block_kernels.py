"""Tests for the blocked Krylov kernels (ndarray basis + CGS2).

Covers the invariants the kernel refactor must preserve:

* CGS2 keeps the basis orthonormal to machine precision,
* happy breakdown is handled with the preallocated ndarray basis,
* the new CGS2 solver and the legacy MGS recurrence produce the same
  solution on a fixed seed,
* fault-injection hooks still mutate live solver state through basis
  views,
* the CSR ``reduceat`` matvec is exact for matrices with empty rows,
* the model-problem generator cache returns equal but independent
  matrices,
* the solvers surface per-kernel timing counters, and
* ``ndarray.dot``, ``@`` and the lanes of a stacked ``np.matmul`` give
  the same bits on the shapes the two Krylov engines reduce.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.krylov import allocate_basis, gmres
from repro.krylov.engine.orthogonalize import orthogonalize_many
from repro.krylov.ops import fused_dots
from repro.linalg.blas import back_substitution, back_substitution_many
from repro.linalg.csr import CsrMatrix
from repro.linalg.matgen import clear_matrix_cache, convection_diffusion_2d, poisson_2d

from conftest import csr_from_dense


class TestKrylovBasis:
    def test_cgs2_orthogonality_invariant(self, rng):
        """After m CGS2 Arnoldi steps, ``max |VᵀV - I|`` stays at machine level."""
        matrix = convection_diffusion_2d(8, peclet=25.0)
        n = matrix.n_rows
        m = 20
        basis = allocate_basis(np.zeros(n), m + 1)
        r = rng.standard_normal(n)
        basis.append(r, scale=1.0 / np.linalg.norm(r))
        for j in range(m):
            w = matrix.matvec(basis.column(j))
            w, _ = basis.orthogonalize(w, method="cgs2", k=j + 1)
            basis.append(w, scale=1.0 / np.linalg.norm(w))
        v = basis.matrix()
        assert v.shape == (n, m + 1)
        defect = np.max(np.abs(v.T @ v - np.eye(m + 1)))
        assert defect < 1e-12

    def test_single_pass_cgs_is_less_orthogonal_than_cgs2(self, rng):
        """CGS2 must beat one-pass CGS on an ill-conditioned set of vectors."""
        n, k = 60, 12
        # Nearly linearly dependent directions stress the orthogonalizer.
        base = rng.standard_normal(n)
        cols = np.column_stack(
            [base + 1e-9 * rng.standard_normal(n) for _ in range(k)]
        )
        q, _ = np.linalg.qr(cols)
        basis = allocate_basis(np.zeros(n), k + 1)
        for j in range(k):
            basis.append(q[:, j])
        w = base + 1e-8 * rng.standard_normal(n)
        w1 = basis.block_axpy(basis.block_dot(w, k), np.array(w), k)  # one pass
        w2, _ = basis.orthogonalize(np.array(w), method="cgs2", k=k)
        defect1 = np.max(np.abs(basis.matrix(k).T @ (w1 / np.linalg.norm(w1))))
        defect2 = np.max(np.abs(basis.matrix(k).T @ (w2 / np.linalg.norm(w2))))
        assert defect2 <= defect1
        assert defect2 < 1e-10

    def test_block_kernels_match_reference(self, rng):
        basis = allocate_basis(np.zeros(30), 6)
        q, _ = np.linalg.qr(rng.standard_normal((30, 5)))
        for j in range(5):
            basis.append(q[:, j])
        w = rng.standard_normal(30)
        np.testing.assert_allclose(basis.block_dot(w, 5), q.T @ w, atol=1e-14)
        coeffs = rng.standard_normal(5)
        np.testing.assert_allclose(
            basis.block_axpy(coeffs, np.array(w), 5), w - q @ coeffs, atol=1e-14
        )
        np.testing.assert_allclose(basis.lincomb(coeffs, 5), q @ coeffs, atol=1e-14)
        payload = basis.fused_projection(w, 5).wait()
        np.testing.assert_allclose(payload[:5], q.T @ w, atol=1e-14)
        assert payload[5] == pytest.approx(float(w @ w))

    def test_column_views_are_writable_solver_state(self):
        """basis[j] must alias the stored vector (fault-injection surface)."""
        basis = allocate_basis(np.zeros(4), 3)
        basis.append(np.array([1.0, 2.0, 3.0, 4.0]))
        view = basis[0]
        view[2] = 99.0
        assert basis.array[2, 0] == 99.0
        assert basis.matrix()[2, 0] == 99.0

    def test_append_scaling_and_len(self):
        basis = allocate_basis(np.zeros(3), 2)
        basis.append(np.array([2.0, 0.0, 0.0]), scale=0.5)
        assert len(basis) == 1
        np.testing.assert_allclose(basis.column(0), [1.0, 0.0, 0.0])
        basis.append_zero()
        assert len(basis) == 2
        np.testing.assert_allclose(basis.column(1), 0.0)

    def test_allocate_basis_validation(self):
        with pytest.raises(ValueError):
            allocate_basis(np.zeros(3), 0)
        with pytest.raises(ValueError):
            allocate_basis(np.zeros((2, 2)), 3)

    def test_fused_dots_sequential(self, rng):
        x, y, z = (rng.standard_normal(20) for _ in range(3))
        values = fused_dots(((x, y), (y, z), (x, x))).wait()
        np.testing.assert_allclose(
            values, [x @ y, y @ z, x @ x], rtol=1e-14
        )


class TestDispatchParity:
    """The sequential engine reduces with ``ndarray.dot`` (no ``@``
    dispatch cost at small n) and the lockstep engine with one stacked
    ``np.matmul`` per kernel; their bit parity rests on all three
    handing each lane to the same BLAS kernel on the same strides.  A
    NumPy or BLAS build that breaks that fails here, by name."""

    LANES = 3

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [36, 64, 100, 1024, 16384])
    def test_dot_matmul_and_stacked_lanes_agree(self, dtype, n):
        rng = np.random.default_rng(n)
        # Lane g's first k basis vectors are rows[g, :k], as in the cohort stack.
        stack = rng.standard_normal((self.LANES, 32, n)).astype(dtype)
        w = rng.standard_normal((self.LANES, n)).astype(dtype)
        for k in range(1, 32):
            rows = stack[:, :k, :]
            h = np.matmul(rows, w[:, :, None])[:, :, 0]
            back = np.matmul(h[:, None, :], rows)[:, 0, :]
            w_orth, coefficients = orthogonalize_many(rows, w.copy())
            for g in range(self.LANES):
                lane = rows[g]
                assert _same_bits(lane.dot(w[g]), lane @ w[g], h[g]), (k, g)
                assert _same_bits(h[g].dot(lane), h[g] @ lane, back[g]), (k, g)
                assert _same_bits(w[g].dot(w[g]), w[g] @ w[g]), (k, g)
                basis = allocate_basis(np.zeros(n, dtype=dtype), 32)
                for row in lane:
                    basis.append(row)
                one_w, one_coefficients = basis.orthogonalize(w[g].copy(), k=k)
                assert _same_bits(one_w, w_orth[g]), (k, g)
                assert _same_bits(one_coefficients, coefficients[g]), (k, g)

    @pytest.mark.parametrize("k", range(1, 32))
    def test_back_substitution_rows_agree(self, k):
        rng = np.random.default_rng(k)
        upper = np.triu(rng.uniform(-1.0, 1.0, (self.LANES, k, k)))
        upper[:, range(k), range(k)] += 2.0
        rhs = rng.standard_normal((self.LANES, k))
        many = back_substitution_many(upper, rhs)
        # Row i of the stacked solve: one (L, 1, k-i-1) @ (L, k-i-1, 1) matmul.
        stacked = [np.matmul(upper[:, i : i + 1, i + 1 :], many[:, i + 1 :, None])[:, 0, 0]
                   for i in range(k)]
        for g in range(self.LANES):
            y = back_substitution(upper[g], rhs[g])
            assert _same_bits(y, many[g]), g
            for i in range(k - 1):
                row, tail = upper[g, i, i + 1 :], y[i + 1 :]
                assert _same_bits(row.dot(tail), row @ tail, stacked[i][g]), (g, i)


def _same_bits(*values) -> bool:
    first = np.asarray(values[0])
    return all(
        np.asarray(v).dtype == first.dtype and np.asarray(v).tobytes() == first.tobytes()
        for v in values[1:]
    )


class TestGmresBlockKernels:
    def test_happy_breakdown_with_ndarray_basis(self):
        """Exact-solution-in-small-subspace must terminate cleanly."""
        # A has minimal polynomial of degree 2 on this b: the Krylov
        # space is exhausted after two vectors -> happy breakdown.
        matrix = np.diag([3.0, 3.0, 3.0, 5.0])
        b = np.array([1.0, 1.0, 1.0, 1.0])
        result = gmres(matrix, b, tol=1e-12, restart=10, maxiter=50)
        assert result.converged
        assert not result.breakdown
        assert result.iterations <= 2
        np.testing.assert_allclose(matrix @ np.asarray(result.x), b, atol=1e-10)

    def test_old_vs_new_gmres_equivalence(self, rng):
        """Blocked CGS2 GMRES must reach the direct solution on a fixed seed."""
        matrix = convection_diffusion_2d(10, peclet=10.0)
        b = np.random.default_rng(2013).standard_normal(matrix.n_rows)
        blocked = gmres(matrix, b, tol=1e-12, restart=40, maxiter=800)
        direct = np.linalg.solve(matrix.to_dense(), b)
        assert blocked.converged
        assert np.linalg.norm(np.asarray(blocked.x) - direct) <= 1e-10 * np.linalg.norm(direct)

    def test_hook_mutation_reaches_solver(self, rng):
        """Corrupting state.basis through the hook must derail the solve
        exactly as it did with the list-of-vectors basis."""
        matrix = poisson_2d(8)
        b = rng.standard_normal(matrix.n_rows)
        clean = gmres(matrix, b, tol=1e-10, restart=30, maxiter=300)

        def corrupt(state):
            if state.total_iteration == 3:
                np.asarray(state.basis[state.inner + 1])[:] = 0.0

        corrupted = gmres(matrix, b, tol=1e-10, restart=30, maxiter=300,
                          iteration_hook=corrupt)
        # The zeroed basis vector changes the Krylov space: iterates differ.
        assert corrupted.iterations != clean.iterations or not np.allclose(
            np.asarray(corrupted.x), np.asarray(clean.x)
        )

    def test_distributed_column_views_are_live_state(self):
        """Distributed basis columns must alias solver storage so hooks
        can inject faults in distributed runs too."""
        from repro.comm.distributed import DistributedRowMatrix, DistributedVector
        from repro.comm.sim import run_spmd

        matrix = poisson_2d(8)
        b = np.random.default_rng(11).standard_normal(matrix.n_rows)

        def program(comm):
            m = DistributedRowMatrix.from_global(comm, matrix)
            bd = DistributedVector.from_global(comm, b)
            clean = gmres(m, bd, tol=1e-9, restart=20, maxiter=300)

            def corrupt(state):
                if state.total_iteration == 3 and comm.rank == 0:
                    state.basis[state.inner + 1].local[:] = 0.0

            faulty = gmres(m, bd, tol=1e-9, restart=20, maxiter=300,
                           iteration_hook=corrupt)
            return clean.iterations, faulty.iterations

        for clean_iters, faulty_iters in run_spmd(2, program):
            assert faulty_iters != clean_iters

    def test_basis_array_exposed_to_hooks(self, rng):
        matrix = poisson_2d(6)
        b = rng.standard_normal(matrix.n_rows)
        seen = {}

        def hook(state):
            seen["shape"] = state.basis.array.shape
            seen["len"] = len(state.basis)
            seen["inner"] = state.inner

        gmres(matrix, b, tol=1e-10, restart=12, maxiter=12, iteration_hook=hook)
        assert seen["shape"][0] == matrix.n_rows
        assert seen["shape"][1] == 13  # restart + 1 preallocated columns
        assert seen["len"] == seen["inner"] + 2

    def test_kernel_counters_surfaced(self, rng):
        matrix = poisson_2d(8)
        b = rng.standard_normal(matrix.n_rows)
        result = gmres(matrix, b, tol=1e-10, restart=30, maxiter=300)
        kernels = result.info["kernels"]
        assert kernels["counts"]["matvec"] >= result.iterations
        assert kernels["seconds"]["orthogonalization"] >= 0.0
        assert kernels["seconds"]["matvec"] > 0.0

    def test_cgs2_step_reconstruction(self, rng):
        basis = allocate_basis(np.zeros(20), 5)
        for column in np.linalg.qr(rng.standard_normal((20, 5)))[0].T:
            basis.append(column)
        w = rng.standard_normal(20)
        w_orth, coeffs = basis.orthogonalize(w, "cgs2")
        np.testing.assert_allclose(basis.lincomb(coeffs) + w_orth, w, atol=1e-12)
        assert np.max(np.abs(basis.matrix().T @ w_orth)) < 1e-13


class TestCsrEmptyRows:
    """Regression tests for the ``np.add.reduceat`` matvec path."""

    def test_matvec_with_interior_empty_row(self):
        dense = np.array(
            [[1.0, 2.0, 0.0],
             [0.0, 0.0, 0.0],
             [0.0, 3.0, 4.0]]
        )
        matrix = csr_from_dense(dense)
        x = np.array([1.0, -1.0, 2.0])
        np.testing.assert_allclose(matrix.matvec(x), dense @ x)

    def test_matvec_with_leading_and_trailing_empty_rows(self):
        dense = np.zeros((5, 3))
        dense[1] = [1.0, 0.0, 2.0]
        dense[3] = [0.0, -4.0, 0.0]
        matrix = csr_from_dense(dense)
        x = np.array([2.0, 3.0, 5.0])
        result = matrix.matvec(x)
        np.testing.assert_allclose(result, dense @ x)
        assert result[0] == 0.0 and result[2] == 0.0 and result[4] == 0.0

    def test_matvec_consecutive_empty_rows_do_not_alias_neighbours(self):
        # Repeated indptr entries are exactly the case where a naive
        # reduceat call would replicate a neighbouring segment's sum.
        indptr = [0, 1, 1, 1, 2]
        indices = [0, 1]
        data = [7.0, 9.0]
        matrix = CsrMatrix(indptr, indices, data, (4, 2))
        result = matrix.matvec(np.array([1.0, 1.0]))
        np.testing.assert_allclose(result, [7.0, 0.0, 0.0, 9.0])

    def test_matvec_all_rows_empty(self):
        matrix = CsrMatrix([0, 0, 0], [], [], (2, 2))
        np.testing.assert_allclose(matrix.matvec(np.ones(2)), [0.0, 0.0])


class TestMatrixGeneratorCache:
    def test_cache_returns_equal_independent_matrices(self):
        clear_matrix_cache()
        first = poisson_2d(7)
        second = poisson_2d(7)
        assert first is not second
        assert first.data is not second.data
        np.testing.assert_array_equal(first.to_dense(), second.to_dense())
        # One cached build: both copies share its read-only pattern.
        assert first.indices is second.indices
        clear_matrix_cache()
        assert poisson_2d(7).indices is not first.indices

    def test_mutating_a_cached_copy_does_not_poison_the_cache(self):
        clear_matrix_cache()
        first = convection_diffusion_2d(5, peclet=7.0)
        first.data[:] = 0.0
        fresh = convection_diffusion_2d(5, peclet=7.0)
        assert np.any(fresh.data != 0.0)

    def test_distinct_parameters_are_distinct_entries(self):
        clear_matrix_cache()
        a = poisson_2d(4)
        b = poisson_2d(5)
        assert a.shape != b.shape
        assert poisson_2d(4).indices is a.indices
        assert poisson_2d(5).indices is b.indices
