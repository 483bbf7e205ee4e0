"""Backend-axis probes shared by the E3/E6/E7 drivers.

When an experiment driver is given an explicit ``backend=`` spec, it
augments its (unchanged, golden-pinned) analytic results with measured
evidence from that communicator backend:

* :func:`distributed_solve` -- the *numerical anchor*: the same Krylov
  solve the driver runs sequentially, executed as a genuine SPMD
  program over the backend's distributed objects.  Returns the
  residual-norm history, which is **bit-identical** across the
  backends (sim, shmem), since every backend folds reductions in rank
  order -- the conformance suite's differential gate pins exactly that.
* :func:`measure_iteration` -- measured wall-clock per iteration of a
  pipelined-CG-shaped workload (local vector flops + one vector
  allreduce), on any backend.  The E3 driver compares sim-vs-shmem on
  the same job to quantify what running ranks as real processes with
  shared-memory payload transport buys over the simulator's
  thread-and-copy event machinery.
* :func:`measure_collectives` / :func:`alpha_beta_fit` -- measured
  collective latencies across payload sizes, and a least-squares
  alpha-beta fit; the E7 driver holds these against the machine
  model's analytic collective costs, validating that the model's
  *functional form* (latency term plus bandwidth term) describes a
  real transport, not only the simulated one.

Wall-clock numbers only ever enter result ``summary`` sections that
exist when ``backend=`` was explicitly requested, so default-backend
goldens stay byte-identical.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.distributed import DistributedRowMatrix, DistributedVector
from repro.comm.ops import MAX
from repro.comm.registry import BoundBackend, resolve_backend
from repro.krylov.registry import default_solver_registry
from repro.linalg.matgen import poisson_2d
from repro.utils.rng import RngFactory

__all__ = [
    "distributed_solve",
    "measure_iteration",
    "measure_stall_scaling",
    "measure_collectives",
    "alpha_beta_fit",
]


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


def _iteration_program(comm, n_local: int, iterations: int, warmup: int):
    """Pipelined-CG-shaped timing body: local flops + vector allreduce."""
    x = np.full(n_local, 1.0 + comm.rank)
    y = np.full(n_local, 0.5)
    best = None
    for _ in range(warmup):
        y = 0.999 * y + 0.001 * x
        comm.allreduce(y)
    start = time.perf_counter()
    for _ in range(iterations):
        y = 0.999 * y + 0.001 * x  # the overlappable local work
        comm.allreduce(y)          # the synchronization being measured
    elapsed = time.perf_counter() - start
    # The job finishes when its slowest rank does.
    slowest = comm.allreduce(elapsed, op=MAX)
    return slowest / iterations


def measure_iteration(
    backend,
    *,
    n_local: int = 100_000,
    iterations: int = 50,
    warmup: int = 5,
    procs: Optional[int] = None,
) -> float:
    """Measured seconds per pipelined-CG-shaped iteration on a backend."""
    bound = resolve_backend(backend)
    values = bound.launch(
        _iteration_program, n_local, iterations, warmup, n_ranks=procs
    )
    return float(values[0])


def _stall_program(
    comm,
    n_global: int,
    stall_events: int,
    stall_seconds: float,
    iterations: int,
):
    """Stall-bound SPMD timing body (runs on a rank).

    Each iteration interleaves this rank's share of the local vector
    work with its share of *real* stall events -- ``time.sleep`` calls
    standing in for the OS/device stalls E3's ``EccStallNoise`` models.
    A sleeping process genuinely yields the CPU, so on a real-process
    backend the stalls of one rank overlap the compute (and stalls) of
    the others -- the measurable core of the paper's latency-tolerance
    argument, and the one source of wall-clock speedup that does not
    require spare cores.
    """
    n_local = n_global // comm.size
    my_events = stall_events // comm.size
    x = np.full(n_local, 1.0 + comm.rank)
    y = np.full(n_local, 0.5)
    comm.barrier()
    start = time.perf_counter()
    for _ in range(iterations):
        for _ in range(my_events):
            y = 0.999 * y + 0.001 * x
            time.sleep(stall_seconds)
        comm.allreduce(float(y[0]))
    elapsed = time.perf_counter() - start
    slowest = comm.allreduce(elapsed, op=MAX)
    return slowest / iterations


def measure_stall_scaling(
    backend,
    *,
    procs_list: Sequence[int] = (1, 4),
    n_global: int = 400_000,
    stall_events: int = 32,
    stall_seconds: float = 500e-6,
    iterations: int = 20,
) -> Dict[int, float]:
    """Measured strong scaling of the stall-bound workload.

    Returns ``{procs: seconds_per_iteration}`` for the *same global
    job* (fixed total work and fixed total stall budget) run at each
    rank count on ``backend``.  ``T(1)/T(p) > 1`` demonstrates real
    overlap: distributed ranks hide each other's stall time.
    """
    bound = resolve_backend(backend)
    timings: Dict[int, float] = {}
    for procs in procs_list:
        values = bound.launch(
            _stall_program,
            n_global,
            stall_events,
            stall_seconds,
            iterations,
            n_ranks=procs,
        )
        timings[int(procs)] = float(values[0])
    return timings


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


def alpha_beta_fit(
    sizes: Sequence[int], times: Sequence[float]
) -> Tuple[float, float, float]:
    """Least-squares ``t = alpha + nbytes/bandwidth`` fit.

    Returns ``(alpha_seconds, bandwidth_bytes_per_s, r_squared)`` --
    the empirical counterparts of the machine model's ``latency`` and
    ``bandwidth`` parameters.  A high r-squared on measured collectives
    is the evidence that the model's alpha-beta functional form
    describes the real transport.
    """
    x = np.asarray(sizes, dtype=np.float64)
    y = np.asarray(times, dtype=np.float64)
    beta, alpha = np.polyfit(x, y, 1)
    predicted = alpha + beta * x
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    bandwidth = 1.0 / beta if beta > 0 else float("inf")
    return float(alpha), float(bandwidth), float(r_squared)
