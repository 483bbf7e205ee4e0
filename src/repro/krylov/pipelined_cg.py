"""Pipelined conjugate gradients (Ghysels & Vanroose).

Standard CG performs two *blocking* global reductions per iteration,
serialized with the matrix-vector product.  The pipelined variant
restructures the recurrences so that the two inner products of an
iteration fuse into one reduction that can be **overlapped with the
next matrix-vector product**: it is started as ONE ``iallreduce``
carrying both ``gamma = (r, u)`` and ``delta = (w, u)`` (via
:func:`repro.krylov.ops.fused_dots`), the operator application
``q = A w`` proceeds while the reduction is in flight, and only then is
the reduction waited on.  On the simulated runtime this uses the
MPI-3-style non-blocking collectives of :mod:`repro.comm.sim`, i.e. the
RBSP programming model of paper §II-B; sequentially it degenerates to
plain arithmetic with identical convergence behaviour (up to rounding).
It is not the only synchronization: a distributed iteration also runs a
blocking ``allreduce`` for ``||r||`` and the matvec's ``allgather``
(per iteration on two ranks: 1.0 ``iallreduce``, 1.02 ``allreduce``,
1.02 ``allgather``).

The price is one extra vector recurrence (and slightly worse rounding
behaviour), which is the trade-off the latency-tolerance literature
accepts.  Thin wrapper over the :mod:`repro.krylov.engine` running
:class:`~repro.krylov.engine.cg.PipelinedCgScheme`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.krylov.engine import ConvergenceTest, PipelinedCgScheme, SolverEngine
from repro.krylov.engine.resilience import IterationEvent, compose_policy
from repro.krylov.result import SolveResult

__all__ = ["pipelined_cg"]


def pipelined_cg(
    operator,
    b,
    x0=None,
    *,
    tol: float = 1e-8,
    atol: float = 0.0,
    maxiter: int = 1000,
    preconditioner=None,
    iteration_hook: Optional[Callable[[IterationEvent], None]] = None,
    policy=None,
) -> SolveResult:
    """Solve the SPD system ``A x = b`` with pipelined (overlapped) CG.

    Parameters and return value match :func:`repro.krylov.cg.cg`;
    ``info["overlapped_reductions"]`` counts how many reductions were
    overlapped with a matrix-vector product.
    """
    engine = SolverEngine(
        operator,
        PipelinedCgScheme(preconditioner, maxiter=maxiter),
        convergence=ConvergenceTest(tol=tol, atol=atol),
        policy=compose_policy(policy, iteration_hook),
    )
    return engine.solve(b, x0)
