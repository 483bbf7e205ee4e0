"""Backend-axis probes: a distributed Krylov anchor and collective timings.

* :func:`distributed_solve` -- the *numerical anchor*: the same Krylov
  solve a driver runs sequentially, executed as a genuine SPMD program
  over a backend's distributed objects.  Returns the residual-norm
  history, which is **bit-identical** across the backends (sim, shmem),
  since every backend folds reductions in rank order -- the conformance
  suite's differential gate pins exactly that.  E3 and E6 store it
  when given ``backend=``; it is a pure function of its arguments.
* :func:`measure_collectives` -- measured wall-clock seconds per
  collective call by kind and payload size, for the benchmark ledger.
  No experiment result holds a wall-clock number.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.comm.distributed import DistributedRowMatrix, DistributedVector
from repro.comm.ops import MAX
from repro.comm.registry import BoundBackend, resolve_backend
from repro.krylov.registry import default_solver_registry
from repro.linalg.matgen import poisson_2d
from repro.utils.rng import RngFactory

__all__ = ["distributed_solve", "measure_collectives"]


def _solve_program(
    comm,
    solver_name: str,
    grid: int,
    tol: float,
    maxiter: int,
    seed: int,
    solver_kwargs: Dict[str, Any],
):
    """SPMD body of the distributed numerical anchor (runs on a rank)."""
    matrix = poisson_2d(grid)
    b = RngFactory(seed).spawn("rhs").standard_normal(matrix.n_rows)
    operator = DistributedRowMatrix.from_global(comm, matrix)
    rhs = DistributedVector.from_global(comm, b)
    result = default_solver_registry().get(solver_name).solve(
        operator, rhs, tol=tol, maxiter=maxiter, **solver_kwargs
    )
    return {
        "iterations": result.iterations,
        "converged": bool(result.converged),
        "residual_norms": [float(r) for r in result.residual_norms],
    }


def distributed_solve(
    backend,
    solver_name: str,
    *,
    grid: int,
    tol: float = 1e-8,
    maxiter: int = 2000,
    seed: int = 2013,
    procs: Optional[int] = None,
    **solver_kwargs: Any,
) -> Dict[str, Any]:
    """Solve the standard Poisson anchor distributed over ``backend``.

    Every rank runs the identical registry-resolved solver on the
    row-distributed operator; rank 0's view of the solve (iteration
    count, convergence flag, residual history) is returned, after
    asserting all ranks agreed on it -- an SPMD solve that *disagrees*
    across ranks is a communicator bug, not a numerical result.
    """
    bound: BoundBackend = resolve_backend(backend)
    values = bound.launch(
        _solve_program,
        solver_name,
        grid,
        tol,
        maxiter,
        seed,
        solver_kwargs,
        n_ranks=procs,
    )
    reference = values[0]
    for rank, value in enumerate(values[1:], start=1):
        if value != reference:
            raise AssertionError(
                f"rank {rank} disagrees with rank 0 on the distributed "
                f"{solver_name} solve under backend {bound.name!r}"
            )
    return dict(reference, backend=bound.spec.to_string(), procs=len(values))


def _collective_program(comm, kinds: Sequence[str], nbytes_list: Sequence[int],
                        iterations: int):
    """Timing body for :func:`measure_collectives` (runs on a rank)."""
    timings: Dict[str, Dict[int, float]] = {}
    for kind in kinds:
        timings[kind] = {}
        for nbytes in nbytes_list:
            payload = np.zeros(max(1, nbytes // 8))
            comm.barrier()
            start = time.perf_counter()
            for _ in range(iterations):
                if kind == "allreduce":
                    comm.allreduce(payload)
                elif kind == "bcast":
                    comm.bcast(payload if comm.rank == 0 else None)
                elif kind == "barrier":
                    comm.barrier()
                else:  # pragma: no cover - caller passes known kinds
                    raise ValueError(f"unknown collective {kind!r}")
            elapsed = time.perf_counter() - start
            slowest = comm.allreduce(elapsed, op=MAX)
            timings[kind][nbytes] = slowest / iterations
    return timings


def measure_collectives(
    backend,
    *,
    kinds: Sequence[str] = ("barrier", "allreduce", "bcast"),
    nbytes_list: Sequence[int] = (1024, 65536, 1048576),
    iterations: int = 30,
    procs: Optional[int] = None,
) -> Dict[str, Dict[int, float]]:
    """Measured per-call collective times by kind and payload size."""
    bound = resolve_backend(backend)
    values = bound.launch(
        _collective_program, tuple(kinds), tuple(nbytes_list), iterations,
        n_ranks=procs,
    )
    return values[0]

