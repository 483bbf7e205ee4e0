"""Differential test: dense backend vs simulated-distributed backend.

For a fault-free solve the two backends run the *same* Krylov code
through the :mod:`repro.krylov.ops` dispatch layer; the only numerical
difference is the summation order inside distributed reductions.  The
residual histories must therefore agree to a pinned few-ulp tolerance
(scaled by ``||b||`` -- near convergence the raw values are ~1e-10, so
relative-to-self comparison would only measure noise), and the
iteration counts must match exactly.  A divergence here means one
backend's kernels drifted from the other's -- exactly the class of bug
a vectorization or communication-layer change can introduce.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.krylov.fgmres import fgmres
from repro.krylov.gmres import gmres
from repro.comm.distributed import DistributedRowMatrix, DistributedVector
from repro.linalg.matgen import poisson_2d
from repro.comm.sim import run_spmd
from repro.utils.rng import RngFactory

# Pinned tolerance: max elementwise |dense - distributed| residual
# difference, scaled by ||b||.  Measured headroom is ~500x (observed
# ~2e-16, i.e. machine epsilon from reduction reordering).
HISTORY_TOL = 1e-13

GRIDS = (6, 8, 10)  # 36, 64 and 100 unknowns
N_RANKS = 3  # deliberately does not divide the problem sizes evenly

_SOLVERS = {
    "gmres": lambda A, b: gmres(A, b, tol=1e-10, restart=25, maxiter=400),
    "fgmres": lambda A, b: fgmres(A, b, tol=1e-10, restart=25, maxiter=400),
}


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("solver_name", sorted(_SOLVERS))
def test_dense_and_distributed_histories_agree(grid, solver_name):
    solve = _SOLVERS[solver_name]
    matrix = poisson_2d(grid)
    b = RngFactory(42).spawn(f"rhs-{grid}").standard_normal(matrix.n_rows)
    b_norm = float(np.linalg.norm(b))

    dense = solve(matrix, b)
    assert dense.converged

    def program(comm):
        dist_matrix = DistributedRowMatrix.from_global(comm, matrix)
        dist_b = DistributedVector.from_global(comm, b)
        result = solve(dist_matrix, dist_b)
        return (
            result.converged,
            result.iterations,
            list(result.residual_norms),
            np.asarray(result.x.gather_global()),
        )

    for converged, iterations, history, x in run_spmd(N_RANKS, program):
        assert converged
        assert iterations == dense.iterations
        assert len(history) == len(dense.residual_norms)
        diff = np.max(
            np.abs(np.asarray(history) - np.asarray(dense.residual_norms))
        )
        assert diff <= HISTORY_TOL * b_norm, (
            f"{solver_name} grid={grid}: residual histories diverged "
            f"(max diff {diff:.3e} vs tol {HISTORY_TOL * b_norm:.3e})"
        )
        # The solutions themselves must agree to the same precision.
        assert np.allclose(x, np.asarray(dense.x), atol=HISTORY_TOL * b_norm)
