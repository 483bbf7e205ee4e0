"""Engine parity suite: the refactored solvers are bit-for-bit stable.

The fixture ``tests/data/engine_parity.json`` was captured from the
pre-refactor (hand-rolled loop) implementations of the six public
solvers, on both the dense and the distributed backend, including the
resilience compositions (FT-GMRES under injected faults, SDC-detecting
GMRES with a fault hook).  Every case records content hashes of the
solution vector and the full residual history plus the exact iteration
/ convergence / fault counters.

The suite asserts the current solvers reproduce those fixtures
*exactly* -- any reordering of floating-point operations inside the
:mod:`repro.krylov.engine` core loop or its strategy objects shows up
here as a hash mismatch, one solver at a time.

Regenerating after an *intentional* numerical change::

    PYTHONPATH=src python -m pytest tests/test_engine_parity.py --update-parity
    git diff tests/data/engine_parity.json   # review before committing
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.krylov.fgmres import ft_gmres
from repro.krylov import cg, fgmres, gmres, pipelined_cg, pipelined_gmres
from repro.comm.distributed import DistributedRowMatrix, DistributedVector
from repro.linalg import (
    JacobiPreconditioner,
    NeumannPolynomialPreconditioner,
    poisson_2d,
)
from repro.linalg.matgen import convection_diffusion_2d
from repro.comm.sim import run_spmd
from repro.reliability import resolve_faults
from repro.skeptical.gmres_sdc import sdc_detecting_gmres

DATA_PATH = pathlib.Path(__file__).parent / "data" / "engine_parity.json"


def _hash(array) -> str:
    data = np.ascontiguousarray(np.asarray(array, dtype=np.float64))
    return hashlib.sha256(data.tobytes()).hexdigest()[:24]


def _digest(result, x=None) -> dict:
    """Bitwise content digest of a SolveResult."""
    x = result.x if x is None else x
    return {
        "converged": bool(result.converged),
        "breakdown": bool(result.breakdown),
        "iterations": int(result.iterations),
        "detected_faults": int(result.detected_faults),
        "x_hash": _hash(x),
        "residual_hash": _hash(result.residual_norms),
        "final_residual": repr(float(result.residual_norms[-1])),
    }


def _problem(n_grid: int = 10, seed: int = 7):
    matrix = poisson_2d(n_grid)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(matrix.n_rows)
    return matrix, b


# ----------------------------------------------------------------------
# Dense-backend cases.
# ----------------------------------------------------------------------

def _case_gmres_restarted():
    matrix, b = _problem()
    return _digest(gmres(matrix, b, tol=1e-9, restart=12, maxiter=300))


def _case_gmres_preconditioned():
    matrix, b = _problem()
    M = NeumannPolynomialPreconditioner(matrix, degree=2)
    return _digest(gmres(matrix, b, tol=1e-9, restart=20, maxiter=300, preconditioner=M))


def _case_gmres_nonsymmetric():
    matrix = convection_diffusion_2d(8, peclet=8.0)
    rng = np.random.default_rng(11)
    b = rng.standard_normal(matrix.n_rows)
    return _digest(gmres(matrix, b, tol=1e-9, restart=18, maxiter=400))


def _case_fgmres_unpreconditioned():
    matrix, b = _problem()
    return _digest(fgmres(matrix, b, tol=1e-9, restart=15, maxiter=200))


def _case_fgmres_inner_gmres():
    matrix, b = _problem()

    def inner(v):
        return gmres(matrix, v, tol=1e-2, restart=6, maxiter=6).x

    return _digest(fgmres(matrix, b, tol=1e-9, restart=20, maxiter=120, inner_solve=inner))


def _case_fgmres_hostile_inner():
    # Inner solves that return garbage (non-finite / enormous) must be
    # discarded by the reliable outer iteration, deterministically.
    matrix, b = _problem(n_grid=8)
    calls = {"n": 0}

    def inner(v):
        calls["n"] += 1
        if calls["n"] % 3 == 0:
            return np.full_like(np.asarray(v), np.inf)
        if calls["n"] % 5 == 0:
            return np.asarray(v) * 1e140
        return np.asarray(v)

    return _digest(fgmres(matrix, b, tol=1e-8, restart=12, maxiter=120, inner_solve=inner))


def _case_pipelined_gmres_reorth():
    matrix, b = _problem()
    return _digest(pipelined_gmres(matrix, b, tol=1e-9, restart=14, maxiter=300))


def _case_cg_plain():
    matrix, b = _problem()
    return _digest(cg(matrix, b, tol=1e-10, maxiter=500))


def _case_cg_jacobi():
    matrix, b = _problem()
    return _digest(cg(matrix, b, tol=1e-10, maxiter=500, preconditioner=JacobiPreconditioner(matrix)))


def _case_pipelined_cg():
    matrix, b = _problem()
    return _digest(pipelined_cg(matrix, b, tol=1e-10, maxiter=500))


def _case_ft_gmres_faulty():
    matrix, b = _problem(n_grid=8)
    result = ft_gmres(
        matrix,
        b,
        tol=1e-8,
        outer_maxiter=30,
        outer_restart=30,
        inner_tol=1e-2,
        inner_maxiter=8,
        inner_restart=8,
        region=resolve_faults("bitflip:p=0.05").environment(seed=42),
    )
    digest = _digest(result)
    digest["faults_injected"] = int(result.info["srp_summary"]["faults_injected"])
    digest["z_norms_hash"] = _hash(result.info["z_norms"])
    return digest


def _case_sdc_gmres_detected_fault():
    matrix, b = _problem(n_grid=8)
    injected = {"done": False}

    def hook(state):
        if not injected["done"] and state.total_iteration == 5:
            injected["done"] = True
            # Corrupt the newest basis vector in place (exponent-scale hit).
            state.basis[state.inner + 1][3] += 1.0e6

    result = sdc_detecting_gmres(
        matrix, b, tol=1e-8, restart=20, maxiter=300, iteration_hook=hook
    )
    digest = _digest(result)
    digest["detection_restarts"] = int(result.info["detection_restarts"])
    digest["checks_run"] = int(result.info["checks_run"])
    return digest


# ----------------------------------------------------------------------
# Distributed-backend cases (simulated MPI runtime, 4 ranks).
# ----------------------------------------------------------------------

def _distributed_case(solver_name: str):
    matrix_global = poisson_2d(8)
    rng = np.random.default_rng(5)
    b_global = rng.standard_normal(matrix_global.n_rows)

    def program(comm):
        matrix = DistributedRowMatrix.from_global(comm, matrix_global)
        b = DistributedVector.from_global(comm, b_global)
        if solver_name == "gmres":
            result = gmres(matrix, b, tol=1e-9, restart=10, maxiter=200)
        elif solver_name == "fgmres":
            result = fgmres(matrix, b, tol=1e-9, restart=12, maxiter=200)
        elif solver_name == "pipelined_gmres":
            result = pipelined_gmres(matrix, b, tol=1e-9, restart=10, maxiter=200)
        elif solver_name == "cg":
            result = cg(matrix, b, tol=1e-10, maxiter=400)
        elif solver_name == "pipelined_cg":
            result = pipelined_cg(matrix, b, tol=1e-10, maxiter=400)
        else:  # pragma: no cover - defensive
            raise ValueError(solver_name)
        return _digest(result, x=result.x.gather_global())

    digests = run_spmd(4, program)
    # All ranks compute the same global answer; rank 0's digest is the case.
    assert all(d == digests[0] for d in digests[1:])
    return digests[0]


_CASES = {
    "gmres_restarted": _case_gmres_restarted,
    "gmres_preconditioned": _case_gmres_preconditioned,
    "gmres_nonsymmetric": _case_gmres_nonsymmetric,
    "fgmres_unpreconditioned": _case_fgmres_unpreconditioned,
    "fgmres_inner_gmres": _case_fgmres_inner_gmres,
    "fgmres_hostile_inner": _case_fgmres_hostile_inner,
    "pipelined_gmres_reorth": _case_pipelined_gmres_reorth,
    "cg_plain": _case_cg_plain,
    "cg_jacobi": _case_cg_jacobi,
    "pipelined_cg": _case_pipelined_cg,
    "ft_gmres_faulty": _case_ft_gmres_faulty,
    "sdc_gmres_detected_fault": _case_sdc_gmres_detected_fault,
    "distributed_gmres": lambda: _distributed_case("gmres"),
    "distributed_fgmres": lambda: _distributed_case("fgmres"),
    "distributed_pipelined_gmres": lambda: _distributed_case("pipelined_gmres"),
    "distributed_cg": lambda: _distributed_case("cg"),
    "distributed_pipelined_cg": lambda: _distributed_case("pipelined_cg"),
}


def _load_fixture() -> dict:
    assert DATA_PATH.exists(), (
        f"missing parity fixture {DATA_PATH}; generate it with "
        f"pytest tests/test_engine_parity.py --update-parity"
    )
    return json.loads(DATA_PATH.read_text(encoding="utf-8"))


def test_update_parity_fixture(update_parity):
    """Regenerates the fixture when ``--update-parity`` is passed."""
    if not update_parity:
        pytest.skip("pass --update-parity to regenerate the fixture")
    payload = {name: case() for name, case in sorted(_CASES.items())}
    DATA_PATH.parent.mkdir(exist_ok=True)
    DATA_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                         encoding="utf-8")


@pytest.mark.parametrize("name", sorted(_CASES))
def test_solver_matches_prerefactor_fixture(name, update_parity):
    if update_parity:
        pytest.skip("fixture being regenerated")
    expected = _load_fixture()[name]
    actual = _CASES[name]()
    assert actual == expected, (
        f"solver case {name!r} drifted from the pre-refactor fixture "
        f"(bitwise parity broken).\nexpected: {expected}\nactual:   {actual}"
    )
