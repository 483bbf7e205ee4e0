"""Preconditioner walkthrough: the declarative axis + selective reliability.

Three stops, mirroring the paper's argument (Heroux, HPDC'13):

1. *Sweepable preconditioners*: every registered solver accepts
   ``precond=`` by registry name or compact spec string
   (``"jacobi"``, ``"ssor:omega=1.2"``, ``"poly:k=4"``,
   ``"bjacobi:bs=8"``), resolved through ``repro.precond`` exactly
   like solvers and fault models are resolved through their
   registries.
2. *Selective reliability*: wrapping the preconditioner with
   ``reliability.unreliable(...).preconditioner(...)`` runs only
   ``M^{-1} v`` in the unreliable region.  FGMRES -- whose reliable
   outer iteration vets what the preconditioner returns -- keeps
   converging to the reliable answer while faults hit every apply.
3. *The control*: the same fault rate on the *operator* (data the
   solver must trust) degrades or destroys the solve.

Run with:  PYTHONPATH=src python examples/precond_selective_reliability.py
"""

import warnings

import numpy as np

from repro import precond, reliability
from repro.krylov.registry import default_solver_registry
from repro.linalg import poisson_2d
from repro.utils.tables import Table

if __name__ == "__main__":
    warnings.simplefilter("ignore", RuntimeWarning)
    matrix = poisson_2d(10)
    b = np.random.default_rng(7).standard_normal(matrix.n_rows)
    fgmres = default_solver_registry().get("fgmres")

    # -- 1. the declarative preconditioner axis ------------------------
    table = Table(["precond", "iterations", "converged", "true_residual"],
                  title="FGMRES, preconditioner resolved by spec (fault-free)")
    for spec in ("none", "jacobi", "ssor:omega=1.2", "poly:k=4", "bjacobi:bs=8"):
        result = fgmres.solve(matrix, b, precond=spec, tol=1e-8, maxiter=300)
        residual = float(
            np.linalg.norm(matrix.matvec(np.asarray(result.x)) - b)
            / np.linalg.norm(b)
        )
        table.add_row(spec, result.iterations, result.converged, f"{residual:.2e}")
    print(table.render())
    print()

    # -- 2. selective reliability: only M^{-1} v is unreliable ---------
    x_ref = np.asarray(
        fgmres.solve(matrix, b, precond="ssor:omega=1.2", tol=1e-10,
                     maxiter=300).x
    )
    table = Table(["fault_prob", "faults", "iterations", "converged",
                   "error_vs_reliable"],
                  title="FGMRES, SSOR preconditioner in the UNRELIABLE region "
                        "(outer iteration reliable)")
    ssor = precond.resolve_preconds("ssor:omega=1.2", matrix=matrix)
    for prob in (0.0, 0.05, 0.2, 0.5):
        with reliability.unreliable(f"bitflip:p={prob},bits=52..62",
                                    seed=11) as dom:
            unreliable_ssor = dom.preconditioner(ssor,
                                                 flops_per_call=matrix.nnz)
            result = fgmres.solve(matrix, b, precond=unreliable_ssor,
                                  tol=1e-8, maxiter=300)
        error = float(np.linalg.norm(np.asarray(result.x) - x_ref)
                      / np.linalg.norm(x_ref))
        table.add_row(prob, dom.faults_injected(), result.iterations,
                      result.converged, f"{error:.2e}")
    print(table.render())
    print()

    # -- 3. the control: the same faults on the trusted operator ------
    table = Table(["fault_prob", "faults", "iterations", "converged",
                   "error_vs_reliable"],
                  title="FGMRES, same fault rates on the OPERATOR "
                        "(reliable-path data)")
    for prob in (0.0, 0.05, 0.2, 0.5):
        with reliability.unreliable(f"bitflip:p={prob},bits=52..62",
                                    seed=11) as dom:
            operator = dom.operator(matrix.matvec,
                                    flops_per_call=2.0 * matrix.nnz)
            with np.errstate(over="ignore", invalid="ignore"):
                result = fgmres.solve(operator, b, precond=ssor,
                                      tol=1e-8, maxiter=300)
        x = np.asarray(result.x)
        error = (
            float(np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref))
            if np.all(np.isfinite(x)) else float("inf")
        )
        table.add_row(prob, dom.faults_injected(), result.iterations,
                      result.converged, f"{error:.2e}")
    print(table.render())
