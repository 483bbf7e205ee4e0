"""Flexible GMRES (FGMRES).

FGMRES allows the preconditioner to *change from iteration to
iteration* -- including being another iterative solver -- by storing
the preconditioned vectors ``z_j = M_j^{-1} v_j`` explicitly and
forming the solution update from them.  This is exactly the structure
the paper's "reliable outer iterations" (Section III-D) require: the
outer FGMRES runs in reliable mode and is provably tolerant of an
inner solver that returns *anything* (even garbage produced by faults),
because a bad ``z_j`` can at worst fail to reduce the residual -- the
outer least-squares problem never amplifies it.

This is now a thin wrapper over the :mod:`repro.krylov.engine`: the
restarted-Arnoldi core is shared with plain GMRES, and the flexible
behaviour (the ``Z`` block, the vetting of inner-solve outputs) lives
in :class:`~repro.krylov.engine.precondition.FlexiblePreconditioner`.

:func:`ft_gmres` is this configuration with the inner solve placed in
an unreliable :class:`~repro.reliability.region.Region`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from repro.krylov.engine import (
    ArnoldiScheme,
    BlockedOrthogonalizer,
    ConvergenceTest,
    FlexiblePreconditioner,
    GmresState,
    SolverEngine,
)
from repro.krylov.engine.resilience import compose_policy
from repro.krylov.gmres import gmres
from repro.krylov.result import SolveResult
from repro.linalg.csr import CsrMatrix
from repro.reliability.region import Region, reliable
from repro.reliability.registry import resolve_faults

__all__ = ["fgmres", "ft_gmres"]


def fgmres(
    operator,
    b,
    x0=None,
    *,
    tol: float = 1e-8,
    atol: float = 0.0,
    restart: int = 30,
    maxiter: int = 300,
    inner_solve: Optional[Callable[[Any], Any]] = None,
    iteration_hook: Optional[Callable[[GmresState], None]] = None,
    policy=None,
) -> SolveResult:
    """Solve ``A x = b`` with flexible (variable-preconditioner) GMRES.

    Parameters
    ----------
    operator:
        The matrix ``A`` (any type accepted by :mod:`repro.krylov.ops`).
    b, x0, tol, atol, restart, maxiter:
        As in :func:`repro.krylov.gmres.gmres`.
    inner_solve:
        Callable mapping a basis vector ``v_j`` to a preconditioned
        vector ``z_j`` (typically an approximate solve of
        ``A z = v_j``).  ``None`` means ``z_j = v_j`` (unpreconditioned,
        equivalent to plain GMRES).
    iteration_hook:
        Optional callback ``hook(state)``, called every inner iteration
        with the :class:`~repro.krylov.engine.core.GmresState`, as in
        :func:`repro.krylov.gmres.gmres`.
    policy:
        Optional :class:`~repro.krylov.engine.resilience.ResiliencePolicy`.

    Returns
    -------
    SolveResult
        ``info["z_norms"]`` records the norms of the inner-solve
        outputs, which the FT-GMRES experiments use to show that faulty
        inner solves were absorbed rather than amplified;
        ``info["kernels"]`` carries per-kernel counts and seconds.
    """
    engine = SolverEngine(
        operator,
        ArnoldiScheme(
            BlockedOrthogonalizer(),
            FlexiblePreconditioner(inner_solve),
            restart=restart,
            maxiter=maxiter,
        ),
        convergence=ConvergenceTest(tol=tol, atol=atol),
        policy=compose_policy(policy, iteration_hook),
    )
    return engine.solve(b, x0)


def ft_gmres(
    matrix,
    b,
    x0=None,
    *,
    tol: float = 1e-8,
    outer_maxiter: int = 50,
    outer_restart: int = 50,
    inner_tol: float = 1e-2,
    inner_maxiter: int = 20,
    inner_restart: int = 20,
    preconditioner=None,
    region: Optional[Region] = None,
) -> SolveResult:
    """Fault-tolerant GMRES (Bridges, Ferreira, Heroux, Hoemmen; §III-D).

    A reliable :func:`fgmres` outer iteration (``tol``, ``outer_*``)
    whose every inner solve is plain :func:`~repro.krylov.gmres.gmres`
    (``inner_*``, ``preconditioner``) over ``region.operator(A)``: only
    the inner operator applications can be corrupted, and the outer
    iteration vets each inner result before it touches its own state.

    ``region`` is the unreliable :class:`~repro.reliability.region.Region`
    and the one way to name the faults, e.g.
    ``resolve_faults("bitflip:p=0.1").environment(seed=3)``; the
    default is the fault-free ``resolve_faults("none").environment()``.

    ``info`` gains ``srp_summary`` and ``srp_cost`` (the region's
    accounting, with the outer matvecs as the reliable work) and
    ``unreliable_fraction_flops``; ``detected_faults`` is the number of
    faults the region injected.
    """
    if region is None:
        region = resolve_faults("none").environment()
    nnz = matrix.nnz if isinstance(matrix, CsrMatrix) else int(np.count_nonzero(matrix))
    inner_operator = region.operator(matrix, flops_per_call=2.0 * nnz)
    outer = reliable()

    def solve(v):
        inner = gmres(inner_operator, np.asarray(v, dtype=np.float64), tol=inner_tol,
                      restart=inner_restart, maxiter=inner_maxiter,
                      preconditioner=preconditioner)
        return np.asarray(inner.x, dtype=np.float64)

    result = fgmres(
        outer.operator(matrix, flops_per_call=2.0 * nnz), np.asarray(b, dtype=np.float64),
        x0=x0, tol=tol, restart=outer_restart, maxiter=outer_maxiter,
        inner_solve=region.inner_solve(solve),
    )
    summary = region.summary(reliable_flops=outer.flops)
    result.info.update(
        srp_summary=summary,
        srp_cost=region.cost_summary(reliable_flops=outer.flops),
        unreliable_fraction_flops=1.0 - summary["reliable_fraction_flops"],
    )
    result.detected_faults = int(summary["faults_injected"])
    return result
