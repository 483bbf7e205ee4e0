"""Latency-reduced (fused-reduction) GMRES.

Classic GMRES with modified Gram-Schmidt performs ``j + 2`` *separate,
serialized* global reductions in iteration ``j`` (one per projection
coefficient plus the norm).  The latency-tolerant reformulation cited
by the paper (p(l)-GMRES of Ghysels et al.) attacks exactly this: use
classical Gram-Schmidt so all projection coefficients come from **one**
fused reduction, and post that reduction as a non-blocking collective
so it can be overlapped with local work.

This configuration pairs the shared restarted-Arnoldi engine core with
:class:`~repro.krylov.engine.orthogonalize.PipelinedOrthogonalizer`:
each fused wave is ONE ``iallreduce`` of the stacked ``[V_jᵀ w, |w|²]``
payload (sequentially, one gemv), and the local orthogonalization
update is a single ``w -= V_j h`` gemv.  Two waves per step make the
CGS2 kernel of the baseline solver, so the numerics are the baseline's.
The *depth-l* pipelining of p(l)-GMRES -- overlapping the reduction with
the next matrix--vector product across iterations -- changes only the
timing, not the numerics; its timing effect is modeled analytically in
experiment E3 (:mod:`repro.rbsp.variability`), while this
implementation demonstrates the reduced synchronization count (two
fused waves per iteration versus ``j + 2``) on the simulated runtime.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.krylov.engine import (
    ArnoldiScheme,
    ConvergenceTest,
    GmresState,
    PipelinedOrthogonalizer,
    RightPreconditioner,
    SolverEngine,
)
from repro.krylov.engine.resilience import compose_policy
from repro.krylov.result import SolveResult

__all__ = ["pipelined_gmres"]


def pipelined_gmres(
    operator,
    b,
    x0=None,
    *,
    tol: float = 1e-8,
    atol: float = 0.0,
    restart: int = 30,
    maxiter: int = 1000,
    preconditioner=None,
    iteration_hook: Optional[Callable[[GmresState], None]] = None,
    policy=None,
) -> SolveResult:
    """Solve ``A x = b`` with single-reduction (latency-reduced) GMRES.

    Parameters match :func:`repro.krylov.gmres.gmres` (``iteration_hook``
    too: ``hook(state)`` with the :class:`GmresState` of every
    iteration).  Each step orthogonalizes in two fused passes, one
    reduction wave each -- together exactly the CGS2 kernel of the
    baseline solver, split so each wave can be posted non-blocking.

    Returns
    -------
    SolveResult
        ``info["reduction_waves"]`` counts fused reductions, for
        comparison against the ``sum_j (j + 2)`` serialized reductions
        classic MGS-GMRES would have required
        (``info["mgs_equivalent_reductions"]``); ``info["kernels"]``
        carries per-kernel counts and seconds.
    """
    engine = SolverEngine(
        operator,
        ArnoldiScheme(
            PipelinedOrthogonalizer(),
            RightPreconditioner(preconditioner),
            restart=restart,
            maxiter=maxiter,
        ),
        convergence=ConvergenceTest(tol=tol, atol=atol),
        policy=compose_policy(policy, iteration_hook),
    )
    return engine.solve(b, x0)
