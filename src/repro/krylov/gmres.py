"""Restarted GMRES with right preconditioning and iteration hooks.

This is the baseline nonsymmetric solver of the toolkit, now a thin
wrapper over the :mod:`repro.krylov.engine`: the restarted-Arnoldi
machinery lives in :class:`~repro.krylov.engine.core.ArnoldiScheme`,
and this configuration pairs it with the blocking
:class:`~repro.krylov.engine.orthogonalize.BlockedOrthogonalizer`
(classical Gram-Schmidt with reorthogonalization, CGS2) and
fixed right preconditioning.  The same code runs sequentially (NumPy
vectors) and on the simulated distributed runtime.

Two extension points matter for the resilience work:

* ``iteration_hook(state)`` is called once per inner iteration with a
  :class:`GmresState` view of the solver internals.  The resilience
  layers use it both to *inject* faults (writes into the basis or
  Hessenberg matrix) and to *check* invariants.  ``state.basis[i]``
  remains a writable view of basis vector ``i``, and ``state.basis``
  additionally exposes the whole block as an ndarray (``.array``).
* ``operator`` may be any callable, which is how the SRP layer slips an
  unreliable operator underneath the solver.

Named engine configurations (this one included) are exposed to the
campaign layer by :mod:`repro.krylov.registry`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.krylov.engine import (
    ArnoldiScheme,
    BlockedOrthogonalizer,
    ConvergenceTest,
    GmresState,
    RightPreconditioner,
    SolverEngine,
)
from repro.krylov.engine.resilience import compose_policy
from repro.krylov.result import SolveResult

__all__ = ["gmres", "gmres_engine", "GmresState"]


def gmres_engine(
    operator,
    *,
    tol: float = 1e-8,
    atol: float = 0.0,
    restart: int = 30,
    maxiter: int = 1000,
    preconditioner=None,
    iteration_hook: Optional[Callable[[GmresState], None]] = None,
    policy=None,
) -> SolverEngine:
    """The configured engine of one :func:`gmres` solve (its keywords,
    all of them, and their defaults).

    :func:`gmres` is this plus ``.solve(b, x0)``; a lockstep lane
    (:class:`repro.krylov.engine.batch.ArnoldiLane`) is built on the
    same engine and steps its attempt itself, so both accept and refuse
    the same arguments.
    """
    if restart <= 0:
        raise ValueError("restart must be positive")
    if maxiter <= 0:
        raise ValueError("maxiter must be positive")
    return SolverEngine(
        operator,
        ArnoldiScheme(
            BlockedOrthogonalizer(),
            RightPreconditioner(preconditioner),
            restart=restart,
            maxiter=maxiter,
            update_on_breakdown=True,
        ),
        convergence=ConvergenceTest(tol=tol, atol=atol),
        policy=compose_policy(policy, iteration_hook),
    )


def gmres(operator, b, x0=None, **options) -> SolveResult:
    """Solve ``A x = b`` with restarted, right-preconditioned GMRES.

    Parameters
    ----------
    operator:
        The matrix ``A`` (:class:`~repro.linalg.csr.CsrMatrix`, dense
        ndarray, callable, or
        :class:`~repro.comm.distributed.DistributedRowMatrix`).
    b:
        Right-hand side (NumPy vector or
        :class:`~repro.comm.distributed.DistributedVector`).
    x0:
        Initial guess (defaults to zero).

    The keywords, ``options``, are :func:`gmres_engine`'s (defaults
    there):

    tol, atol:
        Convergence when ``|r| <= max(tol * |b|, atol)``.
    restart:
        Maximum Krylov subspace dimension per cycle.
    maxiter:
        Maximum total inner iterations.
    preconditioner:
        Right preconditioner ``M`` applied as ``A M^{-1} y = b``.
    iteration_hook:
        Callback invoked after every inner iteration with a
        :class:`GmresState`; may mutate ``basis``/``hessenberg`` (that
        is how faults are injected for the SDC experiments).
    policy:
        Optional :class:`~repro.krylov.engine.resilience.ResiliencePolicy`
        observing every iteration; composed with ``iteration_hook``
        when both are given.

    Returns
    -------
    SolveResult
        ``info["kernels"]`` carries per-kernel call counts and
        wall-clock seconds (matvec, orthogonalization, preconditioner).
    """
    return gmres_engine(operator, **options).solve(b, x0)
