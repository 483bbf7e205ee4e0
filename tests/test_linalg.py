"""Tests for repro.linalg (CSR, generators, BLAS kernels, preconditioners,
checksums, distributed objects), using SciPy/NumPy dense algebra as oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.distributed import DistributedRowMatrix, DistributedVector, block_ranges
from repro.linalg import (
    BlockJacobiPreconditioner,
    ChecksummedMatrix,
    CsrMatrix,
    JacobiPreconditioner,
    NeumannPolynomialPreconditioner,
    SsorPreconditioner,
    back_substitution,
    checked_matmul,
    checked_matvec,
    convection_diffusion_2d,
    givens_rotation,
    poisson_1d,
    poisson_2d,
    tridiagonal,
    verify_checksum,
)
from repro.reliability.bitflip import flip_bit_array
from repro.linalg.blas import rotate_hessenberg_column
from repro.krylov import ops
from repro.krylov.ops import allocate_basis
from repro.comm.sim import run_spmd

from conftest import csr_from_dense


def orthonormal_basis(rng, n, k):
    """A :class:`KrylovBasis` holding ``k`` random orthonormal vectors."""
    basis = allocate_basis(np.zeros(n), k)
    for column in np.linalg.qr(rng.standard_normal((n, k)))[0].T:
        basis.append(column)
    return basis


#: The public members of ``CsrMatrix`` -- those the program calls.  A new
#: member shows up as an edit of this set.
CSR_SURFACE = {
    "astype", "copy", "diagonal_values", "from_coo", "identity", "is_square",
    "matvec", "matvec_block", "n_cols", "n_rows", "nnz", "rmatvec", "row_ids",
    "row_slice", "sweep_schedule", "to_dense",
}


class TestCsrMatrix:
    def test_the_public_surface(self):
        assert {name for name in dir(CsrMatrix) if not name.startswith("_")} == CSR_SURFACE
        # ``+`` is the one operator; products are spelled matvec/matvec_block.
        operators = ("__add__", "__mul__", "__rmul__", "__matmul__", "__sub__")
        assert [op for op in operators if hasattr(CsrMatrix, op)] == ["__add__"]

    def test_to_dense_roundtrip(self, rng):
        dense = rng.standard_normal((6, 4))
        dense[dense < 0.3] = 0.0
        matrix = csr_from_dense(dense)
        assert np.allclose(matrix.to_dense(), dense)
        assert matrix.shape == (6, 4)

    def test_from_coo_sums_duplicates(self):
        matrix = CsrMatrix.from_coo([0, 0, 1], [1, 1, 0], [2.0, 3.0, 4.0], (2, 2))
        dense = matrix.to_dense()
        assert dense[0, 1] == 5.0 and dense[1, 0] == 4.0

    def test_matvec_matches_dense(self, rng):
        dense = rng.standard_normal((8, 8))
        matrix = csr_from_dense(dense)
        x = rng.standard_normal(8)
        assert np.allclose(matrix.matvec(x), dense @ x)

    def test_matvec_handles_empty_rows(self):
        dense = np.zeros((3, 3))
        dense[0, 0] = 2.0
        matrix = csr_from_dense(dense)
        assert np.allclose(matrix.matvec(np.ones(3)), [2.0, 0.0, 0.0])

    def test_rmatvec_matches_dense(self, rng):
        dense = rng.standard_normal((5, 7))
        matrix = csr_from_dense(dense)
        y = rng.standard_normal(5)
        assert np.allclose(matrix.rmatvec(y), dense.T @ y)

    def test_matvec_shape_validation(self):
        matrix = CsrMatrix.identity(4)
        with pytest.raises(ValueError):
            matrix.matvec(np.ones(5))

    def test_identity_and_diagonal(self):
        eye = CsrMatrix.identity(3)
        assert np.allclose(eye.to_dense(), np.eye(3))
        diag = csr_from_dense(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(diag.diagonal_values(), [1, 2, 3])

    def test_diagonal_values_with_missing_entries(self):
        dense = np.array([[0.0, 1.0], [2.0, 5.0]])
        matrix = csr_from_dense(dense)
        assert np.allclose(matrix.diagonal_values(), [0.0, 5.0])

    def test_row_slice(self):
        matrix = poisson_1d(6)
        sub = matrix.row_slice(2, 5)
        assert sub.shape == (3, 6)
        assert np.allclose(sub.to_dense(), matrix.to_dense()[2:5, :])

    def test_add(self):
        a = poisson_1d(4)
        twice = a + a
        assert np.allclose(twice.to_dense(), 2 * a.to_dense())

    def test_structural_validation(self):
        with pytest.raises(ValueError):
            CsrMatrix([0, 2], [0, 5], [1.0, 1.0], (1, 3))  # col out of range
        with pytest.raises(ValueError):
            CsrMatrix([0, 2, 1], [0, 1], [1.0, 1.0], (2, 2))  # decreasing indptr
        with pytest.raises(ValueError):
            CsrMatrix([1, 2], [0], [1.0], (1, 2))  # indptr[0] != 0

    def test_copy_independent(self):
        a = poisson_1d(3)
        b = a.copy()
        b.data[:] = 0.0
        assert a.data.sum() != 0.0

    def test_scipy_oracle(self, rng):
        scipy_sparse = pytest.importorskip("scipy.sparse")
        dense = rng.standard_normal((20, 20))
        dense[np.abs(dense) < 1.0] = 0.0
        ours = csr_from_dense(dense)
        theirs = scipy_sparse.csr_matrix(dense)
        x = rng.standard_normal(20)
        assert np.allclose(ours.matvec(x), theirs @ x)


class TestGenerators:
    def test_poisson_1d_structure(self):
        dense = poisson_1d(4).to_dense()
        assert np.allclose(np.diag(dense), 2.0)
        assert np.allclose(np.diag(dense, 1), -1.0)

    def test_poisson_2d_spd(self):
        dense = poisson_2d(4).to_dense()
        assert np.allclose(dense, dense.T)
        assert np.all(np.linalg.eigvalsh(dense) > 0)

    def test_poisson_row_sums_nonnegative(self):
        dense = poisson_2d(5).to_dense()
        assert np.all(dense.sum(axis=1) >= -1e-12)

    def test_convection_diffusion_nonsymmetric_and_nonsingular(self):
        dense = convection_diffusion_2d(5, peclet=20.0).to_dense()
        assert not np.allclose(dense, dense.T)
        assert abs(np.linalg.det(dense)) > 0

    def test_tridiagonal_values(self):
        dense = tridiagonal(4, -1.0, 5.0, 2.0).to_dense()
        assert np.allclose(np.diag(dense), 5.0)
        assert np.allclose(np.diag(dense, -1), -1.0)
        assert np.allclose(np.diag(dense, 1), 2.0)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            poisson_1d(0)
        with pytest.raises(ValueError):
            poisson_2d(-1)


class TestBlasKernels:
    def test_givens_rotation_zeroes_second_entry(self):
        for a, b in [(3.0, 4.0), (0.0, 2.0), (1.0, 0.0), (-5.0, 1e-8)]:
            c, s = givens_rotation(a, b)
            assert abs(c * b - s * a) < 1e-12 * max(abs(a), abs(b), 1.0)
            assert c * c + s * s == pytest.approx(1.0)

    def test_rotate_hessenberg_column_matches_two_read_loop(self, rng):
        # The reference reads and writes both entries of every rotation
        # through the list; the kernel carries the chained one in a
        # local.  Same operations in the same order: equal bits.
        def reference(col, g, givens, j):
            for i, (c, s) in enumerate(givens):
                a, b = col[i], col[i + 1]
                col[i] = c * a + s * b
                col[i + 1] = c * b - s * a
            c, s = givens_rotation(col[j], col[j + 1])
            givens.append((c, s))
            a, b = col[j], col[j + 1]
            col[j] = c * a + s * b
            col[j + 1] = c * b - s * a
            a, b = g[j], g[j + 1]
            g[j] = c * a + s * b
            g[j + 1] = c * b - s * a
            return abs(g[j + 1])

        m = 26
        states = [([1.5] + [0.0] * m, []), ([1.5] + [0.0] * m, [])]
        for j in range(m):
            column = rng.standard_normal(j + 2).tolist()
            outs = []
            for rotate, (g, givens) in zip((rotate_hessenberg_column, reference), states):
                col = list(column)
                outs.append((rotate(col, g, givens, j), col, list(g), list(givens)))
            assert outs[0] == outs[1]

    def test_back_substitution_matches_solve(self, rng):
        upper = np.triu(rng.standard_normal((6, 6))) + 3 * np.eye(6)
        rhs = rng.standard_normal(6)
        assert np.allclose(back_substitution(upper, rhs), np.linalg.solve(upper, rhs))

    def test_back_substitution_singular_raises(self):
        upper = np.triu(np.ones((3, 3)))
        upper[1, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            back_substitution(upper, np.ones(3))

    def test_gram_schmidt_orthogonalizes(self, rng):
        basis = orthonormal_basis(rng, 20, 5)
        w = rng.standard_normal(20)
        w_orth, coeffs = basis.orthogonalize(w, "cgs2")
        assert np.max(np.abs(basis.matrix().T @ w_orth)) < 1e-10
        assert coeffs.shape == (5,)

    @pytest.mark.parametrize("method", ["modified", "classical"])
    def test_gram_schmidt_refuses_other_kernels(self, rng, method):
        basis = orthonormal_basis(rng, 10, 3)
        with pytest.raises(ValueError):
            basis.orthogonalize(rng.standard_normal(10), method)

    def test_gram_schmidt_reconstruction(self, rng):
        basis = orthonormal_basis(rng, 10, 3)
        w = rng.standard_normal(10)
        w_orth, coeffs = basis.orthogonalize(w, "cgs2")
        assert np.allclose(basis.lincomb(coeffs) + w_orth, w)


class TestPreconditioners:
    def test_jacobi_matches_diagonal_solve(self):
        matrix = poisson_2d(5)
        precond = JacobiPreconditioner(matrix)
        v = np.ones(matrix.n_rows)
        assert np.allclose(precond.apply(v), v / matrix.diagonal_values())

    def test_jacobi_rejects_zero_diagonal(self):
        matrix = csr_from_dense(np.array([[0.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(ValueError):
            JacobiPreconditioner(matrix)

    def test_ssor_reduces_residual(self, poisson_small, rng):
        precond = SsorPreconditioner(poisson_small, omega=1.2)
        b = rng.standard_normal(poisson_small.n_rows)
        x = precond.apply(b)
        dense = poisson_small.to_dense()
        assert np.linalg.norm(b - dense @ x) < np.linalg.norm(b)

    def test_ssor_omega_validation(self, poisson_tiny):
        with pytest.raises(ValueError):
            SsorPreconditioner(poisson_tiny, omega=2.5)

    def test_polynomial_improves_with_degree(self, poisson_tiny, rng):
        b = rng.standard_normal(poisson_tiny.n_rows)
        dense = poisson_tiny.to_dense()
        errors = []
        for degree in (0, 2, 6):
            precond = NeumannPolynomialPreconditioner(poisson_tiny, degree=degree)
            x = precond.apply(b)
            errors.append(np.linalg.norm(b - dense @ x))
        assert errors[2] < errors[1] < errors[0]

    def test_block_jacobi_single_block_is_direct_solve(self, poisson_tiny, rng):
        precond = BlockJacobiPreconditioner(poisson_tiny, n_blocks=1)
        b = rng.standard_normal(poisson_tiny.n_rows)
        assert np.allclose(poisson_tiny.to_dense() @ precond.apply(b), b)

    def test_block_jacobi_ranges_cover(self, poisson_small):
        precond = BlockJacobiPreconditioner(poisson_small, n_blocks=4)
        ranges = precond._ranges
        assert ranges[0][0] == 0 and ranges[-1][1] == poisson_small.n_rows
        assert all(ranges[i][1] == ranges[i + 1][0] for i in range(3))

    def test_block_jacobi_validation(self, poisson_tiny):
        with pytest.raises(ValueError):
            BlockJacobiPreconditioner(poisson_tiny, n_blocks=0)


class TestChecksums:
    def test_vector_checksum_detects_flip(self, rng):
        matrix = poisson_2d(6)
        x = rng.standard_normal(matrix.n_rows)
        result, ok = checked_matvec(matrix, x)
        assert ok
        corrupted, bad = checked_matvec(
            matrix, x, corrupt=lambda y: flip_bit_array(y, 3, 60)
        )
        assert not bad

    def test_checksummed_matrix_expected_checksum(self, rng):
        dense = rng.standard_normal((5, 5))
        wrapped = ChecksummedMatrix(dense)
        x = rng.standard_normal(5)
        assert wrapped.expected_result_checksum(x) == pytest.approx(
            float((dense @ x).sum())
        )

    def test_verify_checksum_tolerances(self):
        v = np.ones(4)
        assert verify_checksum(v, 4.0)
        assert not verify_checksum(v, 5.0)
        assert not verify_checksum(np.array([np.inf, 1.0]), 4.0)

    def test_verify_checksum_tolerance_scales_with_the_one_norm(self):
        # 1e-12 absolute plus 1e-8 relative to the 1-norm (at least 1).
        big = np.full(1000, 1.0e6)  # sum and 1-norm 1e9: tolerance ~10
        assert verify_checksum(big, 1.0e9 + 5.0)
        assert not verify_checksum(big, 1.0e9 + 20.0)
        tiny = np.array([1.0e-9, -1.0e-9])  # 1-norm below 1: tolerance ~1e-8
        assert verify_checksum(tiny, 5.0e-9)
        assert not verify_checksum(tiny, 2.0e-8)

    def test_checked_matvec_flags_a_flip_above_rounding_only(self, rng):
        matrix = poisson_2d(6)
        x = rng.standard_normal(matrix.n_rows)
        # A flip in the lowest mantissa bit is rounding-sized: accepted.
        _, ok = checked_matvec(matrix, x, corrupt=lambda y: flip_bit_array(y, 3, 0))
        assert ok
        # A flip in the upper mantissa moves one entry by a visible
        # fraction: refused.
        _, ok = checked_matvec(matrix, x, corrupt=lambda y: flip_bit_array(y, 3, 50))
        assert not ok

    def test_matmul_detection_and_correction(self, rng):
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))

        def corrupt(c):
            c = c.copy()
            c[2, 5] += 10.0
            return c

        product, report = checked_matmul(a, b, corrupt=corrupt, correct=True)
        assert report.corrected and report.corrected_index == (2, 5)
        assert np.allclose(product, a @ b)

    def test_matmul_clean_passes(self, rng):
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((4, 7))
        product, report = checked_matmul(a, b)
        assert report.ok and not report.corrected
        assert np.allclose(product, a @ b)

    def test_matmul_double_error_detected_not_corrected(self, rng):
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))

        def corrupt(c):
            c = c.copy()
            c[0, 0] += 5.0
            c[3, 4] -= 7.0
            return c

        _, report = checked_matmul(a, b, corrupt=corrupt, correct=True)
        assert not report.ok and not report.corrected

    def test_matmul_nonfinite_corruption_corrected(self, rng):
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5))

        def corrupt(c):
            c = c.copy()
            c[1, 1] = np.inf
            return c

        product, report = checked_matmul(a, b, corrupt=corrupt, correct=True)
        assert report.corrected
        assert np.allclose(product, a @ b)

    def test_matmul_shape_validation(self):
        with pytest.raises(ValueError):
            checked_matmul(np.ones((2, 3)), np.ones((2, 3)))


class TestDistributed:
    def test_block_ranges_cover_and_balance(self):
        ranges = block_ranges(10, 3)
        assert ranges == [(0, 4), (4, 7), (7, 10)]
        assert block_ranges(4, 4) == [(0, 1), (1, 2), (2, 3), (3, 4)]
        with pytest.raises(ValueError):
            block_ranges(5, 0)

    def test_distributed_vector_dot_and_norm(self):
        global_vec = np.arange(10.0)

        def program(comm):
            vec = DistributedVector.from_global(comm, global_vec)
            other = DistributedVector.from_global(comm, np.ones(10))
            return vec.dot(other), ops.norm(vec)

        for dot_val, norm_val in run_spmd(3, program):
            assert dot_val == pytest.approx(global_vec.sum())
            assert norm_val == pytest.approx(np.linalg.norm(global_vec))

    def test_distributed_gather_roundtrip(self):
        def program(comm):
            return DistributedVector.from_global(comm, np.arange(8.0)).gather_global()

        for result in run_spmd(4, program):
            assert np.array_equal(result, np.arange(8.0))

    def test_distributed_matvec_matches_sequential(self, poisson_small, rng):
        x_global = rng.standard_normal(poisson_small.n_rows)
        expected = poisson_small.matvec(x_global)

        def program(comm):
            matrix = DistributedRowMatrix.from_global(comm, poisson_small)
            x = DistributedVector.from_global(comm, x_global)
            return matrix.matvec(x).gather_global()

        for result in run_spmd(4, program):
            assert np.allclose(result, expected)

    def test_distribution_mismatch_rejected(self):
        def program(comm):
            a = DistributedVector.from_global(comm, np.ones(8))
            b = DistributedVector.from_global(comm, np.ones(9))
            try:
                a.dot(b)
                return "ok"
            except ValueError:
                return "mismatch"

        assert set(run_spmd(2, program)) == {"mismatch"}

