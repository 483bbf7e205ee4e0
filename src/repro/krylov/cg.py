"""Preconditioned conjugate gradients.

The symmetric-positive-definite workhorse, used by the implicit PDE
time stepper (backward Euler on the heat equation) and as the baseline
against which :mod:`repro.krylov.pipelined_cg` is compared.  Each
iteration performs blocking global reductions for the ``p^T A p`` and
``r^T z`` inner products and the convergence norm ``||r||`` -- the
synchronization pattern whose latency sensitivity motivates the RBSP
model.  Without a preconditioner ``z`` is ``r``, so ``r^T z`` is the
square of the norm and the iteration makes **two** reductions; with
one it makes three.

Thin wrapper over the :mod:`repro.krylov.engine` running
:class:`~repro.krylov.engine.cg.CgScheme`, so CG reports the same
kernel-counter schema and accepts the same resilience policies as the
GMRES family.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.krylov.engine import CgScheme, ConvergenceTest, SolverEngine
from repro.krylov.engine.resilience import IterationEvent, compose_policy
from repro.krylov.result import SolveResult

__all__ = ["cg", "cg_engine"]


def cg_engine(
    operator,
    *,
    tol: float = 1e-8,
    atol: float = 0.0,
    maxiter: int = 1000,
    preconditioner=None,
    iteration_hook: Optional[Callable[[IterationEvent], None]] = None,
    policy=None,
) -> SolverEngine:
    """The configured engine of one :func:`cg` solve (its keywords, all
    of them, and their defaults); see :func:`repro.krylov.gmres.gmres_engine`."""
    return SolverEngine(
        operator,
        CgScheme(preconditioner, maxiter=maxiter),
        convergence=ConvergenceTest(tol=tol, atol=atol),
        policy=compose_policy(policy, iteration_hook),
    )


def cg(operator, b, x0=None, **options) -> SolveResult:
    """Solve the SPD system ``A x = b`` with preconditioned CG.

    Parameters
    ----------
    operator, b, x0:
        As in :func:`repro.krylov.gmres.gmres`.

    The keywords, ``options``, are :func:`cg_engine`'s (defaults there):

    tol, atol, maxiter, preconditioner:
        As in :func:`repro.krylov.gmres.gmres` (the preconditioner is
        applied symmetrically through the standard PCG recurrence).
    iteration_hook:
        Optional callback ``hook(event)``, called every iteration with an
        :class:`~repro.krylov.engine.resilience.IterationEvent`
        (``total_iteration``, ``residual_norm``).
    policy:
        Optional :class:`~repro.krylov.engine.resilience.ResiliencePolicy`.

    Returns
    -------
    SolveResult
        ``info["alphas"]`` and ``info["betas"]`` record the CG
        coefficients; skeptical checks use their positivity as an SPD
        invariant.
    """
    return cg_engine(operator, **options).solve(b, x0)
