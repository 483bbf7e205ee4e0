"""The solver engine: one core loop, strategy objects around it.

Historically every Krylov driver in the toolkit (GMRES, FGMRES,
pipelined GMRES, the FT-GMRES outer loop) hand-rolled the same
restarted-Arnoldi machinery -- residual/restart bookkeeping, the
incremental Hessenberg QR, happy-breakdown handling, hook wiring --
and differed only in *how* it orthogonalized, preconditioned and
observed iterations.  :class:`SolverEngine` extracts that machinery
once and delegates the variation points to strategy objects:

* :class:`~repro.krylov.engine.orthogonalize.Orthogonalizer` -- the
  Gram-Schmidt kernel (blocking CGS2, or the fused single-reduction
  wave of the pipelined variants).
* :class:`~repro.krylov.engine.precondition.PreconditionerStrategy` --
  fixed right preconditioning vs flexible (per-iteration, possibly
  unreliable inner solves with the reliable-outer vetting of FT-GMRES).
* :class:`~repro.krylov.engine.convergence.ConvergenceTest` -- the
  stopping rule.
* :class:`~repro.krylov.engine.resilience.ResiliencePolicy` -- per
  iteration observation: user hooks, skeptical checks, fault
  injection, residual guards.

The public solver functions (:func:`repro.krylov.gmres.gmres` and
friends) are thin wrappers that pick a strategy combination; the
:mod:`repro.krylov.registry` exposes every named combination to the
campaign layer.  The engine reproduces the pre-refactor solvers
bit-for-bit (locked by ``tests/test_engine_parity.py`` and the golden
suite): every floating-point operation happens in the same order the
hand-rolled loops used.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.krylov import ops
from repro.krylov.engine.convergence import ConvergenceTest
from repro.krylov.engine.orthogonalize import Orthogonalizer
from repro.krylov.engine.precondition import PreconditionerStrategy
from repro.krylov.engine.resilience import (
    CycleAbandoned,
    IterationEvent,
    NullPolicy,
    ResiliencePolicy,
)
from repro.krylov.result import SolveResult
from repro.linalg.blas import HessenbergLsq
from repro.utils.timing import KernelCounters

__all__ = [
    "GmresState",
    "IterationScheme",
    "ArnoldiAttempt",
    "ArnoldiScheme",
    "SolverEngine",
    "cycle_dimension",
]

# Every engine-produced SolveResult carries these kernels (possibly at
# zero) so downstream consumers see one counter schema across solvers.
CANONICAL_KERNELS = ("matvec", "orthogonalization", "preconditioner", "basis_update")


def canonical_kernel_counters() -> KernelCounters:
    """A :class:`KernelCounters` pre-seeded with the canonical schema."""
    kernels = KernelCounters()
    for kernel in CANONICAL_KERNELS:
        kernels.add(kernel, 0.0, calls=0)
    return kernels


def cycle_dimension(restart: int, maxiter: int, total_iteration: int) -> int:
    """Krylov dimension of the next restart cycle.

    The cycle is capped both by the restart length and by the remaining
    iteration budget.  Shared by the sequential core loop and the
    batched lockstep path (:mod:`repro.krylov.engine.batch`), which
    groups lanes into cohorts by this value.
    """
    return min(int(restart), int(maxiter) - int(total_iteration))


@dataclass
class GmresState:
    """Mutable view of the Arnoldi internals passed to iteration hooks.

    Attributes
    ----------
    outer:
        Restart cycle number (0-based).
    inner:
        Inner iteration within the cycle (0-based).
    total_iteration:
        Global iteration counter across restarts.
    basis:
        The :class:`~repro.krylov.ops.KrylovBasis` of this cycle
        (``inner + 2`` stored vectors after the current step).
        ``basis[i]`` is a writable view of basis vector ``i``;
        ``basis.array`` is the whole block as an ndarray.
    hessenberg:
        The ``(m+1) x m`` Hessenberg array of this cycle.
    residual_norm:
        Current (recurrence-based) residual norm estimate.
    reconstruct_iterate:
        Optional zero-argument callable materializing the *current*
        least-squares iterate (cycle-start ``x`` plus the correction of
        the steps taken so far) -- one back-substitution plus one gemv.
        Resilience checks that need a trusted residual call it instead
        of trusting any recurrence quantity; ``None`` when the scheme
        cannot provide it.
    """

    outer: int
    inner: int
    total_iteration: int
    basis: ops.KrylovBasis
    hessenberg: np.ndarray
    residual_norm: float
    reconstruct_iterate: Optional[object] = None


class IterationScheme:
    """Strategy interface: the iteration recurrence the engine drives."""

    def begin(self, engine: "SolverEngine", b, x, target: float):
        """The attempt :meth:`run` works on (by default its arguments).

        A scheme the lockstep engine (:mod:`repro.krylov.engine.batch`)
        steps as well returns an object here -- the state, boundary and
        result of one solve -- that both inner loops share.
        """
        return engine, b, x, target

    def run(self, attempt) -> SolveResult:
        raise NotImplementedError


class ArnoldiAttempt:
    """The state and the cycle boundary of one :meth:`ArnoldiScheme.run`.

    Both engines drive this one object and differ only in the inner
    step between :meth:`start_cycle` and the cycle tail: the sequential
    loop of :meth:`ArnoldiScheme.run`, or the stacked cohort step of
    :mod:`repro.krylov.engine.batch` (whose basis and least-squares
    objects are views into the cohort arrays).  It is touched once per
    cycle and once per observer event, never per step: the inner steps
    keep their own counters and hand them over at the cycle end.

    The attempt carries ``operator`` and ``kernels``, which is all the
    strategy objects read of an engine, so it is what they are handed.
    """

    def __init__(self, engine: "SolverEngine", scheme: "ArnoldiScheme", b, x, target: float):
        self.operator = engine.operator
        self.kernels = engine.kernels
        self.policy = engine.policy
        self.convergence = engine.convergence
        self.scheme = scheme
        self.preconditioner = scheme.preconditioner
        self.b = b
        self.x = x
        self.target = target
        # The one iteration the policy can act at (None: any of them),
        # and whether it reads the Arnoldi internals of its events.
        self.fire_at = getattr(engine.policy, "fire_at", None)
        self._full_state = getattr(engine.policy, "needs_arnoldi_state", True)
        self.residual_norms: List[float] = []
        self.total_iteration = 0
        self.converged = False
        self.breakdown = False
        self.outer = 0
        self.basis = None
        self.lsq = None
        self.inner_used = 0
        self.cycle_residual = 0.0
        self._cycle_r = None

    def residual(self):
        """``b - A x`` of the current iterate (a charged matvec)."""
        kernels = self.kernels
        t0 = kernels.tick()
        r = ops.xpby(self.b, -1.0, ops.matvec(self.operator, self.x))
        kernels.charge("matvec", t0)
        return r

    @property
    def done(self) -> bool:
        """Whether the attempt is over (no cycle head forms a residual)."""
        return self.total_iteration >= self.scheme.maxiter or self.converged or self.breakdown

    def begin_cycle(self, r=None) -> Optional[int]:
        """The cycle head: the next cycle's dimension, ``None`` when done.

        Residual of the current iterate (a charged matvec, unless the
        caller formed ``r`` and charged it), the first residual record
        and the cycle-start convergence test.
        """
        if self.done:
            return None
        if r is None:
            r = self.residual()
        beta = ops.norm(r)
        if not self.residual_norms:
            self.residual_norms.append(beta)
        if self.convergence.is_met(beta, self.target):
            self.converged = True
            return None
        self._cycle_r = r
        self.cycle_residual = beta
        return cycle_dimension(self.scheme.restart, self.scheme.maxiter, self.total_iteration)

    def start_cycle(self, basis, lsq, m: int) -> None:
        """Seed the cycle's storage (the engine's own) with the head's residual."""
        basis.append(self._cycle_r, scale=1.0 / self.cycle_residual)
        self.preconditioner.start_cycle(self, self.b, m)
        self.basis = basis
        self.lsq = lsq
        self.inner_used = 0
        self._cycle_r = None

    def reconstruct_iterate(self, j: int):
        """The least-squares iterate after step ``j``: cycle-start ``x``
        plus the correction of the ``j + 1`` steps taken so far."""
        y = self.lsq.solve(j + 1)
        return self.preconditioner.apply_update(self, self.x, self.basis, y, j + 1)

    def observe(self, j: int, total_iteration: int, residual_norm: float) -> None:
        """Hand the policy its event for step ``j`` of this cycle.

        The one observation shape of both engines: a scalar
        :class:`IterationEvent` for a policy that does not read the
        Arnoldi internals, the full :class:`GmresState` with its
        reconstruct closure otherwise.  Callers skip the iterations
        :attr:`fire_at` rules out.
        """
        if self._full_state:
            event = GmresState(
                outer=self.outer,
                inner=j,
                total_iteration=total_iteration,
                basis=self.basis,
                hessenberg=self.lsq.hessenberg,
                residual_norm=residual_norm,
                reconstruct_iterate=functools.partial(self.reconstruct_iterate, j),
            )
        else:
            event = IterationEvent(
                total_iteration=total_iteration,
                residual_norm=residual_norm,
                inner=j,
                outer=self.outer,
            )
        self.policy.observe(event)

    def update_solution(self) -> None:
        """First half of the cycle tail: solve the small least-squares
        system and map it back through the preconditioner strategy."""
        if self.inner_used > 0 and (self.scheme.update_on_breakdown or not self.breakdown):
            try:
                y = self.lsq.solve(self.inner_used)
            except np.linalg.LinAlgError:
                self.breakdown = True
                y = None
            if y is not None and np.all(np.isfinite(y)):
                self.x = self.preconditioner.apply_update(
                    self, self.x, self.basis, y, self.inner_used
                )
            else:
                self.breakdown = True

    def close_cycle(self, true_residual: float) -> None:
        """Second half of the cycle tail: the true residual of the
        updated iterate replaces the cycle's last recurrence value.  The
        cycle's storage is dropped: in the lockstep engine it is a view
        of the cohort's stacks, which would outlive the cohort."""
        self.basis = self.lsq = None
        self.residual_norms[-1] = true_residual
        if self.convergence.is_met(true_residual, self.target):
            self.converged = True
        self.outer += 1

    def result(self) -> SolveResult:
        info = {"restarts": self.outer, "target": self.target}
        self.preconditioner.contribute_info(info)
        self.scheme.orthogonalizer.contribute_info(info)
        info["kernels"] = self.kernels.as_dict()
        return SolveResult(
            x=self.x,
            converged=self.converged,
            iterations=self.total_iteration,
            residual_norms=self.residual_norms,
            breakdown=self.breakdown,
            info=info,
        )


class ArnoldiScheme(IterationScheme):
    """Restarted Arnoldi (the GMRES family), strategies injected.

    Parameters
    ----------
    orthogonalizer, preconditioner:
        The strategy objects (see the module docstring).
    restart:
        Maximum Krylov subspace dimension per cycle.
    maxiter:
        Maximum total inner iterations.
    update_on_breakdown:
        Whether to still attempt the cycle's least-squares update after
        a mid-cycle breakdown (historical GMRES behaviour; FGMRES and
        the pipelined variant skip it).
    """

    def __init__(
        self,
        orthogonalizer: Orthogonalizer,
        preconditioner: PreconditionerStrategy,
        *,
        restart: int = 30,
        maxiter: int = 1000,
        update_on_breakdown: bool = False,
    ):
        if restart <= 0 or maxiter <= 0:
            raise ValueError("restart and maxiter must be positive")
        self.orthogonalizer = orthogonalizer
        self.preconditioner = preconditioner
        self.restart = int(restart)
        self.maxiter = int(maxiter)
        self.update_on_breakdown = bool(update_on_breakdown)

    def begin(self, engine: "SolverEngine", b, x, target: float) -> ArnoldiAttempt:
        return ArnoldiAttempt(engine, self, b, x, target)

    def run(self, attempt: ArnoldiAttempt) -> SolveResult:
        engine = attempt  # all the strategies read: .operator, .kernels
        convergence = attempt.convergence
        b, target = attempt.b, attempt.target
        maxiter = self.maxiter
        fire_at = attempt.fire_at
        residual_norms = attempt.residual_norms
        total_iteration = 0

        while (m := attempt.begin_cycle()) is not None:
            basis = ops.allocate_basis(b, m + 1)
            cycle_residual = attempt.cycle_residual
            lsq = HessenbergLsq(m, cycle_residual)
            attempt.start_cycle(basis, lsq, m)

            for j in range(m):
                # Arnoldi step: candidate direction, orthogonalize,
                # incremental QR of the Hessenberg matrix.
                w = self.preconditioner.candidate(engine, basis, j)
                coefficients, h_next, happy = self.orthogonalizer.step(
                    engine, basis, w, j, cycle_residual
                )
                cycle_residual = lsq.append_column(coefficients, h_next)

                total_iteration += 1
                residual_norms.append(cycle_residual)

                if fire_at is None or fire_at == total_iteration:
                    attempt.observe(j, total_iteration, cycle_residual)

                if not math.isfinite(cycle_residual):
                    attempt.breakdown = True
                    break
                if convergence.is_met(cycle_residual, target) or happy:
                    break
                if total_iteration >= maxiter:
                    break

            # Hand the steps over, then the cycle tail: the correction,
            # and the true residual check at the cycle boundary.
            attempt.inner_used = total_iteration - attempt.total_iteration
            attempt.total_iteration = total_iteration
            attempt.update_solution()
            attempt.close_cycle(ops.norm(attempt.residual()))

        return attempt.result()


class SolverEngine:
    """One configured solve: operator + scheme + convergence + policy.

    The engine owns the pieces every solver shares -- the kernel
    counters (pre-seeded with the canonical kernel names so all solvers
    report one schema), target resolution and initial-guess handling --
    and delegates the iteration recurrence to its
    :class:`IterationScheme`.

    Engines are single-shot: build one per solve (strategy objects
    carry per-solve state such as the flexible ``Z`` block or the
    pipelined reduction-wave counters).
    """

    def __init__(
        self,
        operator,
        scheme: IterationScheme,
        *,
        convergence: Optional[ConvergenceTest] = None,
        policy: Optional[ResiliencePolicy] = None,
    ):
        self.operator = operator
        self.scheme = scheme
        self.convergence = convergence if convergence is not None else ConvergenceTest()
        self.policy = policy if policy is not None else NullPolicy()
        self.kernels = canonical_kernel_counters()

    def begin(self, b, x0=None):
        """Start a solve: resolve the target, copy the initial guess, tell
        the policy, and return the scheme's attempt.  :meth:`solve` runs
        it; the lockstep engine steps it itself and hands the result to
        :meth:`finish`."""
        target = self.convergence.resolve_target(ops.norm(b))
        x = ops.copy_vector(x0) if x0 is not None else ops.zeros_like(b)
        self.policy.begin_attempt(x)
        return self.scheme.begin(self, b, x, target)

    def finish(self, result: SolveResult) -> SolveResult:
        """Fold the policy's bookkeeping into a finished attempt's result."""
        self.policy.contribute_result(result)
        return result

    def solve(self, b, x0=None) -> SolveResult:
        """Solve ``A x = b`` and return the scheme's :class:`SolveResult`."""
        attempt = self.begin(b, x0)
        try:
            result = self.scheme.run(attempt)
        except CycleAbandoned as abandoned:
            # The attempt's kernel work travels with the exception so
            # retrying callers can keep their accounting complete.
            abandoned.kernels = self.kernels.as_dict()
            raise
        return self.finish(result)
