"""Resilience-policy adapters of the solver engine.

The paper's thesis is that resilience is an *algorithmic layer*: the
same solver can run bare, with cheap skeptical checks, or inside a
selective-reliability harness, and the choice should be a composition,
not a fork of the solver source.  Before the engine existed, that
wiring was scattered -- GMRES took a ``GmresState`` hook, FGMRES/CG
took ``(iteration, residual)`` callbacks, the SDC solver hand-rolled a
monitor adapter, and the SRP layer wrapped operators ad hoc.

A :class:`ResiliencePolicy` unifies all of it behind one ``observe``
call per inner iteration.  The engine constructs an iteration event
(the full :class:`~repro.krylov.engine.core.GmresState` for an
Arnoldi-type scheme whose policy reads it, a scalar
:class:`IterationEvent` otherwise) and hands it to the policy.  An
``iteration_hook`` is a policy too (:class:`CallbackPolicy`) and gets
that same event on every solver.  A policy may

* record/report (detection-only policies such as
  :class:`ResidualGuardPolicy`),
* mutate the live solver state through the event's basis/Hessenberg
  views (fault-injection campaigns),
* raise :class:`CycleAbandoned` to discard the current Krylov cycle
  (the skeptical *restart* response), or
* raise :class:`~repro.skeptical.checks.SkepticalAbort` (the
  *abort* response).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.krylov import ops

__all__ = [
    "IterationEvent",
    "CycleAbandoned",
    "ResiliencePolicy",
    "NullPolicy",
    "CallbackPolicy",
    "CompositePolicy",
    "ResidualGuardPolicy",
    "compose_policy",
    "cycle_start_true_residual",
]


@dataclass
class IterationEvent:
    """Minimal per-iteration view for solvers without Arnoldi state."""

    total_iteration: int
    residual_norm: float
    inner: int = 0
    outer: int = 0
    basis: Optional[object] = None
    hessenberg: Optional[object] = None
    reconstruct_iterate: Optional[object] = None


class CycleAbandoned(Exception):
    """Raised by a policy to discard the current Krylov cycle.

    The current iterate is still valid (it was formed before the
    suspected corruption), so the caller restarts the solve from it --
    "rolling back to a previous valid state" at the cost of one wasted
    cycle.  The engine attaches the abandoned attempt's kernel-counter
    payload as :attr:`kernels` before re-raising, so retrying callers
    keep their work accounting complete.
    """

    kernels: Optional[dict] = None


class ResiliencePolicy:
    """Base policy: observes iteration events; default is inert."""

    name = "none"

    #: Whether :meth:`observe` reads the Arnoldi internals (basis,
    #: Hessenberg, reconstruct closure) of its events.  A policy that
    #: only looks at the scalar fields is handed an
    #: :class:`IterationEvent` instead of the full
    #: :class:`~repro.krylov.engine.core.GmresState`, by both engines --
    #: same observations, less per-iteration interpreter work.
    #: Conservative default: assume the state is needed.
    needs_arnoldi_state = True

    #: The one ``total_iteration`` (counted from 1) at which
    #: :meth:`observe` can act, or ``None`` when it may act at any.  Both
    #: engines skip building the event for an iteration a policy has
    #: ruled out, so a hook that fires once costs nothing elsewhere; a
    #: policy that does not say is observed at every iteration.
    fire_at: Optional[int] = None

    def begin_attempt(self, x) -> None:
        """Called when a (re)solve attempt starts from iterate ``x``."""

    def observe(self, event) -> None:
        """Called once per inner iteration with the iteration event."""

    def contribute_result(self, result) -> None:
        """Fold policy bookkeeping into a finished ``SolveResult``."""


class NullPolicy(ResiliencePolicy):
    """No resilience instrumentation (the bare solver)."""

    needs_arnoldi_state = False
    fire_at = 0  # iterations count from 1: never observed


class CallbackPolicy(ResiliencePolicy):
    """Adapts a user iteration hook to the policy protocol: ``callback(event)``
    with the iteration event of every solver."""

    name = "callback"

    def __init__(self, callback: Callable):
        self.callback = callback
        # A hook that can act at one iteration only says so (e.g.
        # BasisBitflipFaults.iteration_hook); anything else: every step.
        self.fire_at = getattr(callback, "fire_at", None)

    def observe(self, event) -> None:
        self.callback(event)


class CompositePolicy(ResiliencePolicy):
    """Run several policies in order (e.g. inject faults, then check)."""

    name = "composite"

    def __init__(self, policies: Sequence[ResiliencePolicy]):
        self.policies = list(policies)

    @property
    def needs_arnoldi_state(self) -> bool:
        return any(policy.needs_arnoldi_state for policy in self.policies)

    def begin_attempt(self, x) -> None:
        for policy in self.policies:
            policy.begin_attempt(x)

    def observe(self, event) -> None:
        for policy in self.policies:
            policy.observe(event)

    def contribute_result(self, result) -> None:
        for policy in self.policies:
            policy.contribute_result(result)


def compose_policy(
    policy: Optional[ResiliencePolicy], iteration_hook: Optional[Callable]
) -> ResiliencePolicy:
    """Merge an explicit policy with an iteration hook; with neither, the
    inert :class:`NullPolicy`.

    The hook (adapted through :class:`CallbackPolicy`) runs *before* the
    policy, preserving the inject-then-check ordering the fault
    campaigns rely on.
    """
    if iteration_hook is None:
        return policy if policy is not None else NullPolicy()
    hook_policy = CallbackPolicy(iteration_hook)
    return hook_policy if policy is None else CompositePolicy([hook_policy, policy])


class ResidualGuardPolicy(ResiliencePolicy):
    """Cheap solver-agnostic SDC detector on the residual recurrence.

    Watches the per-iteration (recurrence) residual norms and flags an
    iteration as suspicious when the value is non-finite or exceeds
    ``GROWTH_FACTOR`` (1e4) times the best residual seen so far -- the
    signature of a large corrupted coefficient.  O(1) per iteration, no
    access to solver internals, so it composes with *every* registered
    solver (the full Arnoldi-state checks of
    :class:`~repro.skeptical.gmres_sdc.SdcChecks` remain GMRES-only).

    Detection-only: the guard records and counts, it does not alter the
    iteration (pair it with a restart-capable solver for recovery).
    """

    name = "residual_guard"
    # Observes only the scalar residual/iteration fields.
    needs_arnoldi_state = False
    GROWTH_FACTOR = 1e4

    def __init__(self):
        self.detections = 0
        self.events: List[dict] = []
        self._best = math.inf

    def observe(self, event) -> None:
        residual = float(event.residual_norm)
        if not math.isfinite(residual) or (
            self._best < math.inf and residual > self.GROWTH_FACTOR * self._best
        ):
            self.detections += 1
            self.events.append(
                {"iteration": int(event.total_iteration), "residual": residual}
            )
            return
        if residual < self._best:
            self._best = residual

    def contribute_result(self, result) -> None:
        result.detected_faults += self.detections
        result.info["residual_guard"] = {
            "detections": self.detections,
            "growth_factor": self.GROWTH_FACTOR,
            "events": list(self.events),
        }


def cycle_start_true_residual(
    operator, b, inner: int, residual_norm: float, reconstruct_iterate
) -> float:
    """The lazy true residual behind the residual-consistency check.

    Reconstructs the current iterate's residual explicitly (one
    back-substitution + gemv + matvec, the matvec uncharged), so the
    check compares the recurrence against the truth of the SAME
    iterate.  Kept rare (cycle starts only): at other iterations it
    returns the recurrence value and the check degenerates to a trivial
    pass, matching the historical cost profile.  Both engines' skeptical
    paths call this one function.
    """
    if inner != 0 or reconstruct_iterate is None:
        return residual_norm
    try:
        x_now = reconstruct_iterate()
    except np.linalg.LinAlgError:
        return residual_norm
    return float(np.linalg.norm(b - np.asarray(ops.matvec(operator, x_now))))
