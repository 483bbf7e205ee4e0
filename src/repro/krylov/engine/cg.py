"""Conjugate-gradient iteration schemes for the solver engine.

The SPD recurrences do not build an Arnoldi basis, so they are their
own :class:`~repro.krylov.engine.core.IterationScheme` implementations
rather than strategy combinations of the Arnoldi scheme -- but they run
under the same engine: shared target resolution, the canonical kernel
counter schema, and the unified
:class:`~repro.krylov.engine.resilience.ResiliencePolicy` observation
protocol (policies receive scalar
:class:`~repro.krylov.engine.resilience.IterationEvent` objects).

* :class:`CgScheme` -- classic preconditioned CG: blocking global
  reductions for ``(p, Ap)``, ``(r, z)`` and the convergence norm per
  iteration.  Without a preconditioner ``z`` is ``r`` (an alias, its
  application counted at 0 s), and ``(r, z)`` and ``||r||`` come from
  one :func:`~repro.krylov.ops.squared_norm`: two reductions, with the
  same bits in every dtype.
* :class:`PipelinedCgScheme` -- Ghysels & Vanroose pipelined CG: ONE
  fused non-blocking reduction for the two inner products, overlapped
  with the next operator application, at the cost of three extra vector
  recurrences (the norm stays a blocking reduction, the distributed
  matvec an ``allgather``).
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.krylov import ops
from repro.krylov.engine.core import IterationScheme, SolverEngine
from repro.krylov.engine.resilience import IterationEvent
from repro.krylov.result import SolveResult

__all__ = ["CgAttempt", "CgScheme", "PipelinedCgScheme"]


class CgAttempt:
    """The state, preamble and result of one :meth:`CgScheme.run`.

    Shared with the lockstep engine
    (:func:`repro.krylov.engine.batch.run_cg_batch`), which stacks the
    vectors of its lanes' attempts and writes each lane's outcome back
    before asking for the result -- or, for its last few lanes, writes
    back their state (``x``, ``r``, ``p``, ``rz``, ``iteration``) and
    lets :meth:`CgScheme.run` finish them.
    """

    def __init__(self, engine: SolverEngine, scheme: "CgScheme", b, x, target: float):
        self.operator = engine.operator
        self.kernels = kernels = engine.kernels
        self.policy = engine.policy
        self.convergence = engine.convergence
        self.preconditioner = scheme.preconditioner
        self.maxiter = scheme.maxiter
        self.fire_at = getattr(engine.policy, "fire_at", None)  # None: observe every iteration
        self.target = target
        t0 = kernels.tick()
        r = ops.xpby(b, -1.0, ops.matvec(self.operator, x))
        kernels.charge("matvec", t0)
        if self.preconditioner is None:
            # z is r: (r, z) is the squared norm the convergence test
            # takes the root of, so one reduction serves both.
            kernels.add("preconditioner", 0.0)
            z = r
            sq = ops.squared_norm(r)
            self.rz = float(sq)
        else:
            t0 = kernels.tick()
            z = ops.apply_preconditioner(self.preconditioner, r)
            kernels.charge("preconditioner", t0)
            self.rz = ops.dot(r, z)
            sq = ops.squared_norm(r)
        residual = float(np.sqrt(sq))
        self.x = x
        self.r = r
        self.p = ops.copy_vector(z)
        self.residual_norms: List[float] = [residual]
        self.alphas: List[float] = []
        self.betas: List[float] = []
        self.converged = self.convergence.is_met(residual, target)
        self.breakdown = False
        self.iteration = 0

    def result(self) -> SolveResult:
        return SolveResult(
            x=self.x,
            converged=self.converged,
            iterations=self.iteration,
            residual_norms=self.residual_norms,
            breakdown=self.breakdown,
            info={
                "alphas": self.alphas,
                "betas": self.betas,
                "target": self.target,
                "kernels": self.kernels.as_dict(),
            },
        )


class CgScheme(IterationScheme):
    """Classic preconditioned conjugate gradients."""

    def __init__(self, preconditioner=None, *, maxiter: int):
        if maxiter <= 0:
            raise ValueError("maxiter must be positive")
        self.preconditioner = preconditioner
        self.maxiter = int(maxiter)

    def begin(self, engine: SolverEngine, b, x, target: float) -> CgAttempt:
        return CgAttempt(engine, self, b, x, target)

    def run(self, attempt: CgAttempt) -> SolveResult:
        operator = attempt.operator
        kernels = attempt.kernels
        policy = attempt.policy
        convergence = attempt.convergence
        target = attempt.target
        x, r, p, rz = attempt.x, attempt.r, attempt.p, attempt.rz
        residual_norms, alphas, betas = attempt.residual_norms, attempt.alphas, attempt.betas
        # From where the attempt stands: its start, or where the lockstep
        # engine handed it over.
        converged, breakdown, iteration = attempt.converged, attempt.breakdown, attempt.iteration
        fire_at = attempt.fire_at
        preconditioner = self.preconditioner

        while not converged and not breakdown and iteration < self.maxiter:
            t0 = kernels.tick()
            ap = ops.matvec(operator, p)
            kernels.charge("matvec", t0)
            p_ap = ops.dot(p, ap)
            if p_ap <= 0.0 or not math.isfinite(p_ap):
                # Loss of positive definiteness: either the operator is
                # not SPD or a fault corrupted the recurrence.
                breakdown = True
                break
            alpha = rz / p_ap
            alphas.append(float(alpha))
            x = ops.xpby(x, float(alpha), p)
            r = ops.xpby(r, -float(alpha), ap)
            sq = ops.squared_norm(r)
            residual = float(np.sqrt(sq))
            iteration += 1
            residual_norms.append(residual)
            if fire_at is None or fire_at == iteration:
                policy.observe(IterationEvent(total_iteration=iteration, residual_norm=residual))
            if not math.isfinite(residual):
                breakdown = True
                break
            if convergence.is_met(residual, target):
                converged = True
                break
            if preconditioner is None:
                kernels.add("preconditioner", 0.0)
                z, rz_next = r, float(sq)
            else:
                t0 = kernels.tick()
                z = ops.apply_preconditioner(preconditioner, r)
                kernels.charge("preconditioner", t0)
                rz_next = ops.dot(r, z)
            if not math.isfinite(rz_next):
                breakdown = True
                break
            beta = rz_next / rz
            betas.append(float(beta))
            rz = rz_next
            p = ops.xpby(z, float(beta), p)

        attempt.x = x
        attempt.converged, attempt.breakdown, attempt.iteration = converged, breakdown, iteration
        return attempt.result()


class PipelinedCgScheme(IterationScheme):
    """Pipelined (overlapped fused-reduction) conjugate gradients."""

    def __init__(self, preconditioner=None, *, maxiter: int):
        if maxiter <= 0:
            raise ValueError("maxiter must be positive")
        self.preconditioner = preconditioner
        self.maxiter = int(maxiter)

    def run(self, attempt) -> SolveResult:
        engine, b, x, target = attempt
        operator = engine.operator
        kernels = engine.kernels
        policy = engine.policy
        convergence = engine.convergence
        fire_at = getattr(policy, "fire_at", None)  # None: observe every iteration

        t0 = kernels.tick()
        r = ops.xpby(b, -1.0, ops.matvec(operator, x))
        kernels.charge("matvec", t0)
        t0 = kernels.tick()
        u = ops.apply_preconditioner(self.preconditioner, r)
        kernels.charge("preconditioner", t0)
        t0 = kernels.tick()
        w = ops.matvec(operator, u)
        kernels.charge("matvec", t0)

        residual = ops.norm(r)
        residual_norms: List[float] = [residual]
        converged = convergence.is_met(residual, target)
        breakdown = False
        iteration = 0
        overlapped = 0
        # gamma_old, alpha_old, z, q, s and p are first set by step 0.
        while not converged and not breakdown and iteration < self.maxiter:
            # Start the fused reduction for gamma = (r, u) and
            # delta = (w, u): one non-blocking allreduce carrying both
            # partial sums.
            fused = ops.fused_dots(((r, u), (w, u)))
            # Overlap: apply the preconditioner and the operator while
            # the reduction is in flight.
            t0 = kernels.tick()
            m_w = ops.apply_preconditioner(self.preconditioner, w)
            kernels.charge("preconditioner", t0)
            t0 = kernels.tick()
            n_w = ops.matvec(operator, m_w)
            kernels.charge("matvec", t0)
            overlapped += 1
            gamma, delta = (float(v) for v in fused.wait())

            if not math.isfinite(gamma) or not math.isfinite(delta):
                breakdown = True
                break

            if iteration > 0:
                if alpha_old == 0.0:  # gamma_old == 0 makes alpha_old 0 too
                    breakdown = True
                    break
                beta = gamma / gamma_old
                denom = delta - beta * gamma / alpha_old
            else:
                denom = delta
            if denom == 0.0 or not math.isfinite(denom):
                breakdown = True
                break
            alpha = gamma / denom

            if iteration == 0:
                z = ops.copy_vector(n_w)
                q = ops.copy_vector(m_w)
                s = ops.copy_vector(w)
                p = ops.copy_vector(u)
            else:
                z = ops.xpby(n_w, float(beta), z)
                q = ops.xpby(m_w, float(beta), q)
                s = ops.xpby(w, float(beta), s)
                p = ops.xpby(u, float(beta), p)

            x = ops.xpby(x, float(alpha), p)
            r = ops.xpby(r, -float(alpha), s)
            u = ops.xpby(u, -float(alpha), q)
            w = ops.xpby(w, -float(alpha), z)

            gamma_old = gamma
            alpha_old = alpha
            iteration += 1
            residual = ops.norm(r)
            residual_norms.append(residual)
            if fire_at is None or fire_at == iteration:
                policy.observe(IterationEvent(total_iteration=iteration, residual_norm=residual))
            if not math.isfinite(residual):
                breakdown = True
                break
            if convergence.is_met(residual, target):
                converged = True

        return SolveResult(
            x=x,
            converged=converged,
            iterations=iteration,
            residual_norms=residual_norms,
            breakdown=breakdown,
            info={
                "target": target,
                "overlapped_reductions": overlapped,
                "kernels": kernels.as_dict(),
            },
        )
