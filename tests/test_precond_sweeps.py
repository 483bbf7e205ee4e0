"""The preconditioner tier: the SSOR row sweeps and the vectorised extractions.

What the SSOR row sweeps and the vectorised block extraction must
preserve:

* ``SsorPreconditioner.apply`` gives the same *bits* as the documented
  arithmetic spelled out over the raw CSR arrays (``reference_ssor``)
  on every matrix below (unsorted and repeated columns, long rows,
  triangular, diagonal, float32 and float16 storage) for non-finite,
  huge, tiny and signed-zero inputs, and agrees with a dense oracle to
  1e-12,
* the sweep schedule is structure: one object per pattern, shared by
  value-copies, never rebuilt by a second preconditioner,
* values are captured at construction (stale-values rule),
* block Jacobi sums duplicate entries at every size,
* the ``ssor`` cells of an E9 golden-shaped run are unchanged.
"""

from __future__ import annotations

import sys
import threading
import warnings

import numpy as np
import pytest

from repro.experiments import e9_precond
from repro.linalg import csr as csr_module
from repro.linalg.csr import CsrMatrix
from repro.linalg.matgen import (
    clear_matrix_cache,
    convection_diffusion_2d,
    poisson_1d,
    poisson_2d,
)
from repro.linalg.precond import BlockJacobiPreconditioner, SsorPreconditioner

from conftest import csr_from_dense


def reference_ssor(matrix: CsrMatrix, omega: float, vector: np.ndarray) -> np.ndarray:
    """The arithmetic ``SsorPreconditioner`` documents, straight off the
    CSR arrays: per row ``s = 0.0 + a_ij0*x_j0 + ...`` over the strictly
    lower (forward, rows ascending) or strictly upper (backward, rows
    descending) entries in CSR order, then ``((rhs - s) * omega) / d``,
    or ``(rhs * omega) / d`` for a row with no such entry; the backward
    right-hand side is ``(d * x) / omega``.  Python floats throughout."""
    indptr, indices = matrix.indptr.tolist(), matrix.indices.tolist()
    data = matrix.data.astype(np.float64).tolist()
    diag = matrix.diagonal_values().astype(np.float64).tolist()
    n = matrix.n_rows

    def sweep(rhs, rows, reads):
        x = [0.0] * n
        for i in rows:
            s, read = 0.0, False
            for k in range(indptr[i], indptr[i + 1]):
                if reads(indices[k], i):
                    s += data[k] * x[indices[k]]
                    read = True
            x[i] = (((rhs[i] - s) if read else rhs[i]) * omega) / diag[i]
        return x

    b = np.asarray(vector, dtype=np.float64).tolist()
    x = sweep(b, range(n), lambda j, i: j < i)
    rhs = [(d * v) / omega for d, v in zip(diag, x)]
    return np.array(sweep(rhs, range(n - 1, -1, -1), lambda j, i: j > i))


def dense_ssor(matrix: CsrMatrix, omega: float, vector: np.ndarray) -> np.ndarray:
    """``y`` with ``(D/omega + L) (D/omega)^-1 (D/omega + U) y = b``, densely.

    Off-diagonal duplicates are summed in float64, the diagonal at the
    matrix's compute dtype (what ``diagonal_values`` defines)."""
    dense = matrix.astype(np.float64).to_dense()
    scaled = np.diag(matrix.diagonal_values().astype(np.float64)) / omega
    lower, upper = np.tril(dense, -1), np.triu(dense, 1)
    m = (scaled + lower) @ np.linalg.inv(scaled) @ (scaled + upper)
    return np.linalg.solve(m, np.asarray(vector, dtype=np.float64))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bit patterns, signed zeros and infinities
    included; NaNs must sit in the same places, payloads not compared."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    nan = np.isnan(a)
    if not np.array_equal(nan, np.isnan(b)):
        return False
    return np.where(nan, 0, a).tobytes() == np.where(nan, 0, b).tobytes()


def relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def scrambled_dominant(rng, n, max_len, *, dtype=np.float64, storage=None) -> CsrMatrix:
    """Strictly diagonally dominant rows of 1..max_len+1 entries whose
    columns are unsorted and may repeat (also on the diagonal)."""
    cols, vals = [], []
    for i in range(n):
        k = int(rng.integers(0, max_len + 1))
        v = rng.standard_normal(k)
        at = int(rng.integers(0, k + 1))
        cols.append(np.insert(rng.integers(0, n, size=k), at, i))
        vals.append(np.insert(v, at, 2.0 + np.abs(v).sum()))
    indptr = np.concatenate([[0], np.cumsum([c.size for c in cols])])
    return CsrMatrix(
        indptr, np.concatenate(cols), np.concatenate(vals), (n, n),
        dtype=dtype, storage=storage,
    )


def count_schedule_builds(monkeypatch) -> list:
    """Records every sweep schedule built from a pattern."""
    built = []
    original = csr_module._RowSweeps.__init__

    def counting(self, pattern):
        built.append(pattern)
        original(self, pattern)

    monkeypatch.setattr(csr_module._RowSweeps, "__init__", counting)
    return built


#: The module's matrix list: name -> builder(rng).
MATRICES = {
    "poisson_1d(64)": lambda rng: poisson_1d(64),
    "poisson_2d(5)": lambda rng: poisson_2d(5),
    "poisson_2d(8)": lambda rng: poisson_2d(8),
    "poisson_2d(10)": lambda rng: poisson_2d(10),
    "poisson_2d(33)": lambda rng: poisson_2d(33),  # n = 1089: slab-plan sized
    "convection_diffusion": lambda rng: convection_diffusion_2d(8, peclet=10.0),
    # Upwinded against the generator's wind: convection on the upper side.
    "convection_upwind": lambda rng: csr_from_dense(
        convection_diffusion_2d(9, peclet=100.0).to_dense().T
    ),
    "scrambled": lambda rng: scrambled_dominant(rng, 70, 6),
    "scrambled_long_rows": lambda rng: scrambled_dominant(rng, 40, 30),
    "upper_triangular": lambda rng: csr_from_dense(
        np.triu(rng.standard_normal((30, 30))) + 40.0 * np.eye(30)
    ),
    "lower_triangular": lambda rng: csr_from_dense(
        np.tril(rng.standard_normal((30, 30))) + 40.0 * np.eye(30)
    ),
    "diagonal": lambda rng: csr_from_dense(np.diag(rng.uniform(1.0, 3.0, size=25))),
    "float32": lambda rng: scrambled_dominant(rng, 60, 5, dtype=np.float32),
    "float16_storage": lambda rng: scrambled_dominant(
        rng, 60, 5, dtype=np.float32, storage=np.float16
    ),
    "poisson_float16": lambda rng: poisson_2d(7).astype(
        np.float32, storage=np.float16
    ),
}


def special_inputs(rng, n):
    """Right-hand sides that exercise every non-generic float."""
    plain = rng.standard_normal(n)
    yield plain
    for values in (
        [0.0, -0.0, np.inf, -np.inf],
        [1e200, -1e200, 1e-200, -1e-200],
        [np.inf, 1e200, -0.0, 1e-200],
        [np.nan, -np.inf, 0.0, -1e200],
    ):
        for _ in range(4):
            v = rng.standard_normal(n)
            v[rng.choice(n, size=len(values), replace=False)] = values
            yield v
    yield np.where(rng.random(n) < 0.5, 0.0, -0.0)
    yield np.zeros(n)
    yield -np.zeros(n)
    zeros_and_one = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    zeros_and_one[n // 2] = -1e-200
    yield zeros_and_one


class TestSweepBits:
    @pytest.mark.parametrize("omega", [0.7, 1.0, 1.2])
    @pytest.mark.parametrize("name", sorted(MATRICES))
    def test_apply_equals_the_reference_bit_for_bit(self, name, omega):
        """Python float arithmetic raises no floating-point warning, so
        neither side needs ``np.errstate``."""
        rng = np.random.default_rng(2013)
        matrix = MATRICES[name](rng)
        precond = SsorPreconditioner(matrix, omega=omega)
        for vector in special_inputs(rng, matrix.n_rows):
            expected = reference_ssor(matrix, omega, vector)
            assert same_bits(precond.apply(vector), expected)

    def test_apply_keeps_its_input_checks_and_float64_coercion(self):
        precond = SsorPreconditioner(poisson_2d(4), omega=1.3)
        vector = np.arange(16, dtype=np.float32)
        result = precond.apply(list(vector))
        assert result.dtype == np.float64
        wide = vector.astype(np.float64)
        assert same_bits(result, precond.apply(wide))
        assert same_bits(wide, vector.astype(np.float64))  # never swept in place
        with pytest.raises(ValueError, match="length"):
            precond.apply(np.ones(15))

    def test_constructor_validation_is_unchanged(self):
        with pytest.raises(ValueError, match="square"):
            SsorPreconditioner(CsrMatrix([0, 1], [0], [1.0], (1, 2)))
        with pytest.raises(ValueError, match="omega"):
            SsorPreconditioner(poisson_1d(4), omega=2.0)
        with pytest.raises(ValueError):
            SsorPreconditioner(poisson_1d(4), omega=0.0)
        with pytest.raises(ValueError, match="nonzero diagonal"):
            SsorPreconditioner(CsrMatrix([0, 1, 2], [1, 0], [1.0, 1.0], (2, 2)))


class TestDenseOracle:
    @pytest.mark.parametrize("omega", [1.0, 0.7, 1.6])
    @pytest.mark.parametrize("name", sorted(set(MATRICES) - {"poisson_2d(33)"}))
    def test_apply_solves_the_ssor_system(self, name, omega):
        rng = np.random.default_rng(14)
        matrix = MATRICES[name](rng)
        precond = SsorPreconditioner(matrix, omega=omega)
        for _ in range(3):
            vector = rng.standard_normal(matrix.n_rows)
            result = precond.apply(vector)
            assert relative_gap(result, dense_ssor(matrix, omega, vector)) < 1e-12

    def test_a_diagonal_matrix_sweeps_no_entries(self):
        matrix = csr_from_dense(np.diag(np.arange(1.0, 9.0)))
        lower, upper = matrix.sweep_schedule().rows(matrix.data)
        assert lower == upper == ((),) * 8

    def test_a_chain_reads_one_entry_per_row_and_sweeps_back_reversed(self):
        """Backward rows are stored from row ``n - 1`` down, their columns
        renumbered to ``n - 1 - c``: both sweeps read the row before."""
        matrix = poisson_1d(4)
        lower, upper = matrix.sweep_schedule().rows(matrix.data)
        assert lower == ((), ((-1.0, 0),), ((-1.0, 1),), ((-1.0, 2),))
        assert upper == lower

    def test_the_empty_matrix(self):
        empty = CsrMatrix([0], [], [], (0, 0))
        assert SsorPreconditioner(empty).apply(np.zeros(0)).shape == (0,)


class TestSharedSchedule:
    def test_value_copies_share_one_schedule(self):
        matrix = convection_diffusion_2d(6, peclet=3.0)
        schedule = matrix.sweep_schedule()
        assert matrix.copy().sweep_schedule() is schedule
        assert matrix.astype(np.float32, storage=np.float16).sweep_schedule() is schedule

    def test_matgen_cache_copies_share_one_schedule(self):
        clear_matrix_cache()
        first, second = poisson_2d(9), poisson_2d(9)
        assert first is not second
        assert first.sweep_schedule() is second.sweep_schedule()

    def test_a_second_preconditioner_does_not_reschedule(self, monkeypatch):
        clear_matrix_cache()
        built = count_schedule_builds(monkeypatch)
        SsorPreconditioner(poisson_2d(9), omega=1.0)
        assert len(built) == 1
        SsorPreconditioner(poisson_2d(9), omega=1.2)
        SsorPreconditioner(poisson_2d(9).astype(np.float32))
        assert len(built) == 1
        assert poisson_2d(9).sweep_schedule() is built[0].sweeps()

    def test_racing_threads_publish_one_schedule(self):
        """Sim rank threads may all meet an unscheduled pattern at once:
        each builds an equal schedule and publication is one assignment."""
        clear_matrix_cache()
        vector = np.random.default_rng(3).standard_normal(144)
        expected = reference_ssor(poisson_2d(12), 1.2, vector)
        twins = [poisson_2d(12) for _ in range(8)]
        start = threading.Barrier(len(twins))
        results = [None] * len(twins)

        def work(i):
            start.wait(timeout=10)
            for _ in range(5):
                results[i] = SsorPreconditioner(twins[i], omega=1.2).apply(vector)

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
        assert len({id(t.sweep_schedule()) for t in twins}) == 1


class TestStaleValues:
    def test_writes_after_construction_do_not_change_apply(self):
        matrix = convection_diffusion_2d(7, peclet=5.0)
        vector = np.random.default_rng(4).standard_normal(49)
        precond = SsorPreconditioner(matrix, omega=1.1)
        before = precond.apply(vector)
        matrix.data[:] = 0.5 * matrix.data + 1.0
        assert same_bits(precond.apply(vector), before)
        rebuilt = SsorPreconditioner(matrix, omega=1.1).apply(vector)
        assert not np.allclose(rebuilt, before)
        assert relative_gap(rebuilt, dense_ssor(matrix, 1.1, vector)) < 1e-12

    def test_apply_does_not_write_to_the_captured_values(self):
        precond = SsorPreconditioner(poisson_2d(6), omega=1.2)
        vector = np.random.default_rng(5).standard_normal(36)
        first = precond.apply(vector)
        assert same_bits(precond.apply(vector), first)


class TestBlockJacobiDuplicates:
    @staticmethod
    def tridiagonal_with_duplicate(n):
        """2 on the diagonal, -0.5 beside it, and entry (0, 1) stored twice."""
        rows = [[(0, 2.0), (1, -0.5), (1, -0.25)]]
        for i in range(1, n):
            row = [(i - 1, -0.5), (i, 2.0)]
            if i + 1 < n:
                row.append((i + 1, -0.5))
            rows.append(row)
        indptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
        cols = [c for r in rows for c, _ in r]
        vals = [v for r in rows for _, v in r]
        return CsrMatrix(indptr, cols, vals, (n, n))

    @pytest.mark.parametrize("n", [64, 2048, 2049])
    def test_duplicates_are_summed_at_every_size(self, n):
        matrix = self.tridiagonal_with_duplicate(n)
        precond = BlockJacobiPreconditioner(matrix, n_blocks=n // 8)
        vector = np.random.default_rng(6).standard_normal(n)
        expected = np.zeros(n)
        for start, stop in precond._ranges:
            # The leading blocks are all that differ between sizes.
            block = matrix.row_slice(start, stop).to_dense()[:, start:stop]
            expected[start:stop] = np.linalg.inv(block) @ vector[start:stop]
        assert np.array_equal(precond.apply(vector), expected)
        first = matrix.row_slice(0, 2).to_dense()[:, :2]
        assert first[0, 1] == -0.75

    def test_uneven_blocks_and_reduced_precision(self):
        matrix = scrambled_dominant(
            np.random.default_rng(7), 37, 5, dtype=np.float32
        )
        precond = BlockJacobiPreconditioner(matrix, n_blocks=5)
        dense = matrix.to_dense()
        vector = np.random.default_rng(8).standard_normal(37)
        expected = np.zeros(37)
        for start, stop in precond._ranges:
            expected[start:stop] = (
                np.linalg.inv(dense[start:stop, start:stop]) @ vector[start:stop]
            )
        assert same_bits(precond.apply(vector), expected)


def test_e9_ssor_cells_are_pinned():
    """E9 at its golden parameters with both registered SSOR entries;
    cells recorded at the parent commit, where SSOR was the row loop
    (the golden file itself pins ``ssor`` only at omega = 1.0)."""
    params = dict(e9_precond.SPEC.golden, preconds=("ssor", "ssor_over"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        table = e9_precond.run(**params).table
    cells = {
        (row["solver"], row["precond"]): (
            row["iterations"], row["converged"], row["faults"], row["outcome"]
        )
        for row in (dict(zip(table.columns, cells)) for cells in table.rows)
    }
    assert cells == {
        ("gmres", "ssor:omega=1.0"): (26, True, 4, "benign"),
        ("gmres", "ssor:omega=1.2"): (12, True, 0, "benign"),
        ("fgmres", "ssor:omega=1.0"): (13, True, 0, "benign"),
        ("fgmres", "ssor:omega=1.2"): (13, True, 1, "benign"),
        ("pipelined_gmres", "ssor:omega=1.0"): (13, True, 0, "benign"),
        ("pipelined_gmres", "ssor:omega=1.2"): (22, True, 2, "benign"),
        ("cg", "ssor:omega=1.0"): (20, True, 1, "benign"),
        ("cg", "ssor:omega=1.2"): (12, True, 1, "benign"),
        ("pipelined_cg", "ssor:omega=1.0"): (162, False, 5, "crash"),
        ("pipelined_cg", "ssor:omega=1.2"): (12, True, 0, "benign"),
    }
