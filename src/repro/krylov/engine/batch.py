"""Batched lockstep execution of independent same-shaped solves.

Fault-injection campaigns run thousands of *independent* scenarios that
share one operator and vector length and differ only in right-hand
side, fault stream and policy knobs.  Solving them one at a time leaves
almost all of the wall-clock in Python interpreter overhead: at the
campaign's typical ``n`` (a few thousand), one Arnoldi iteration is a
handful of microsecond-scale BLAS calls wrapped in hundreds of
microseconds of bookkeeping.  This module advances ``S`` scenarios in
lockstep instead: the inner-loop kernels (operator application,
Gram-Schmidt, the Givens QR recurrence) run once per *step* on stacked
``(S, n)`` arrays, while everything observable stays per-lane.

Bit-parity contract
-------------------
A batched lane produces byte-identical results to the corresponding
sequential solve (``tests/test_batch_parity.py`` pins this across the
solver x fault x preconditioner x policy matrix).  The design rules
that make this hold:

* Only operations with verified batched bit-identity are vectorized:
  stacked ``np.matmul`` against the per-lane gemv (NOT ``np.einsum``),
  elementwise arithmetic, :meth:`~repro.linalg.csr.CsrMatrix.matvec_block`
  (``np.add.reduceat`` over gathered products), and the mask-chained
  :func:`~repro.linalg.blas.givens_rotation_many`.
* Cycle boundaries (cycle-start residual, least-squares solve, iterate
  update, true-residual check) and preconditioner applications run
  per-lane through the *same* sequential code paths, with the same
  kernel-counter charges.
* Lanes never join a cycle midway: a restart cycle is the lockstep
  unit.  Lanes are grouped into *cohorts* keyed by ``(m, method)`` --
  the cycle dimension from
  :func:`~repro.krylov.engine.core.cycle_dimension` and the
  Gram-Schmidt kernel -- and a lane that converges, breaks down, is
  abandoned by a skeptical detection or exhausts its budget simply
  leaves its cohort; the survivors keep going.
* Per-lane fault hooks and resilience policies observe exactly the
  sequential per-iteration events (a full
  :class:`~repro.krylov.engine.core.GmresState` only when the policy
  declares ``needs_arnoldi_state``), against live views of the stacked
  arrays, so injected faults land in the real solver state.  An
  observer that declares the one iteration it can act at
  (``ResiliencePolicy.fire_at``) is called at that iteration only.

Cost shape: a lockstep step is its stacked kernels plus array
bookkeeping.  Per-lane Python runs only on events -- an observer that
is due or watches every step, the skeptical sweep, a lane leaving, the
cycle boundary -- and a lane reads its step count, residual history and
kernel seconds back from the cohort arrays when it leaves.

Kernel counters: batched spans (the stacked matvec and the
orthogonalization block) are measured once per step and split evenly
across the active lanes; every lane enters a cycle at step 0, so what a
lane is charged when it leaves is the running sum of those shares with
its step count as the call count.  Call counts match the sequential
solver exactly and only the attributed seconds are approximate; parity
gates therefore compare everything except ``seconds``.

Skeptical (SDC-detecting) lanes replicate the
:func:`repro.skeptical.gmres_sdc.sdc_detecting_gmres` attempt loop per
lane, with the cheap checks (finiteness, Hessenberg bound) evaluated as
vectorized sweeps and the expensive ones (orthogonality,
residual-consistency) per lane through the real
:mod:`repro.skeptical.checks` functions.  Only the ``"restart"``
response is supported here (an ``"abort"`` would have to kill sibling
lanes); the registry routes ``skeptical_abort`` solves to the
sequential fallback.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.krylov import ops
from repro.krylov.engine.convergence import ConvergenceTest
from repro.krylov.engine.core import (
    GmresState,
    canonical_kernel_counters,
    cycle_dimension,
)
from repro.krylov.engine.orthogonalize import HAPPY_BREAKDOWN_TOL, orthogonalize_many
from repro.krylov.engine.precondition import RightPreconditioner
from repro.krylov.engine.resilience import IterationEvent, NullPolicy, compose_policy
from repro.krylov.result import SolveResult
from repro.linalg.blas import back_substitution, givens_rotation_many
from repro.linalg.csr import CsrMatrix
from repro.skeptical.checks import residual_consistency_check
from repro.utils.validation import check_integer, check_positive

__all__ = [
    "GmresLaneSpec",
    "SdcLaneSpec",
    "CgLaneSpec",
    "run_arnoldi_batch",
    "run_cg_batch",
    "batched_matvec",
    "BATCH_GRAM_SCHMIDT",
]

#: Gram-Schmidt kernels with a verified batched form ("modified" has an
#: inherently sequential per-vector recurrence; those lanes fall back).
BATCH_GRAM_SCHMIDT = ("cgs2", "classical")

# Sentinel returned by an attempt whose while-condition says "done".
_COMPLETE = object()


# ---------------------------------------------------------------------------
# Lane specifications (one per scenario)
# ---------------------------------------------------------------------------


@dataclass
class GmresLaneSpec:
    """One plain/guarded GMRES scenario, mirroring :func:`repro.krylov.gmres.gmres`.

    ``operator`` overrides the batch-level operator for this lane (e.g.
    a per-scenario fault-injecting wrapper); lanes with private
    operators advance in lockstep but apply their own operator, so
    per-lane fault streams stay draw-for-draw sequential.
    """

    b: np.ndarray
    x0: Optional[np.ndarray] = None
    tol: float = 1e-8
    atol: float = 0.0
    restart: int = 30
    maxiter: int = 1000
    preconditioner: Any = None
    gram_schmidt: str = "cgs2"
    policy: Any = None
    iteration_hook: Optional[Callable] = None
    operator: Any = None


@dataclass
class SdcLaneSpec:
    """One SDC-detecting GMRES scenario (``response="restart"`` only),
    mirroring :func:`repro.skeptical.gmres_sdc.sdc_detecting_gmres`."""

    b: np.ndarray
    x0: Optional[np.ndarray] = None
    tol: float = 1e-8
    atol: float = 0.0
    restart: int = 30
    maxiter: int = 1000
    preconditioner: Any = None
    check_period: int = 1
    orthogonality_period: int = 5
    residual_check_period: int = 10
    hessenberg_safety: float = 4.0
    orthogonality_tol: float = 1e-6
    max_restarts_on_detection: int = 5
    operator_norm: Optional[float] = None
    fault_hook: Optional[Callable] = None
    operator: Any = None


@dataclass
class CgLaneSpec:
    """One CG scenario, mirroring :func:`repro.krylov.cg.cg`."""

    b: np.ndarray
    x0: Optional[np.ndarray] = None
    tol: float = 1e-8
    atol: float = 0.0
    maxiter: int = 1000
    preconditioner: Any = None
    policy: Any = None
    iteration_hook: Optional[Callable] = None
    operator: Any = None


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


class _LaneEngine:
    """Duck-typed stand-in for :class:`~repro.krylov.engine.core.SolverEngine`.

    The preconditioner strategies only touch ``engine.operator`` and
    ``engine.kernels``; handing them this shim reuses their (charged)
    sequential code paths verbatim.
    """

    __slots__ = ("operator", "kernels")

    def __init__(self, operator, kernels):
        self.operator = operator
        self.kernels = kernels


def _basis_view(rows: np.ndarray):
    """A :class:`~repro.krylov.ops._DenseKrylovBasis` over lane storage.

    ``rows`` is the lane's ``(m+1, n)`` slice of the cohort's stacked
    basis array; the adapter makes it a real ``KrylovBasis`` so fault
    hooks, reconstruct closures and the orthogonality check operate on
    live solver state exactly as in the sequential path.
    """
    adapter = ops._DenseKrylovBasis.__new__(ops._DenseKrylovBasis)
    adapter._rows = rows
    adapter.n_columns = 0
    return adapter


class _LaneLsq:
    """View-backed stand-in for :class:`~repro.linalg.blas.HessenbergLsq`.

    The rotations run vectorized across the cohort; this object only
    exposes the per-lane ``hessenberg`` array and rotated right-hand
    side ``g`` (both views into the cohort stacks) with the ``solve``
    the reconstruct closures and cycle-end updates call.
    """

    __slots__ = ("hessenberg", "_g", "size")

    def __init__(self, hessenberg: np.ndarray, g: np.ndarray):
        self.hessenberg = hessenberg
        self._g = g
        self.size = 0

    def solve(self, k: Optional[int] = None) -> np.ndarray:
        k = self.size if k is None else int(k)
        return back_substitution(self.hessenberg[:k, :k], self._g[:k])


def batched_matvec(operator, X: np.ndarray) -> np.ndarray:
    """Apply ``operator`` to every row of ``X`` (shape ``(S, n)``).

    :class:`~repro.linalg.csr.CsrMatrix` operators use the bit-parity
    :meth:`~repro.linalg.csr.CsrMatrix.matvec_block` kernel; anything
    else (dense ndarray, callable) is applied per row through
    :func:`repro.krylov.ops.matvec` -- broadcast dense gemm is NOT
    bit-identical to per-vector gemv, so it is deliberately not used.
    """
    X = np.asarray(X, dtype=np.float64)
    if isinstance(operator, CsrMatrix):
        return operator.matvec_block(X)
    if X.shape[0] == 0:
        return np.zeros_like(X)
    return np.array(
        [np.asarray(ops.matvec(operator, x), dtype=np.float64) for x in X]
    )


def _matvec_rows(attempts, Z: np.ndarray, shared: bool) -> np.ndarray:
    """Operator application for one lockstep step.

    When every lane of the cohort shares one operator object
    (``shared``) the batched kernel runs; lanes with private operators
    (per-scenario fault-injecting wrappers) are applied row by row with
    their own operator, keeping each lane's fault stream draw-for-draw
    sequential.
    """
    if shared:
        return batched_matvec(attempts[0].operator, Z)
    return np.array(
        [
            np.asarray(ops.matvec(a.operator, Z[i]), dtype=np.float64)
            for i, a in enumerate(attempts)
        ]
    )


# ---------------------------------------------------------------------------
# The Arnoldi lockstep machinery
# ---------------------------------------------------------------------------


class _ArnoldiAttempt:
    """One engine-level GMRES solve of one lane (one ``gmres()`` call).

    Owns exactly the state of one :meth:`ArnoldiScheme.run` invocation;
    cycle boundaries run here per-lane with real charged ops, while the
    inner loop is advanced by :func:`_run_cohort` on the stacks.
    """

    __slots__ = (
        "lane",
        "operator",
        "b",
        "x",
        "kernels",
        "shim",
        "precond",
        "convergence",
        "target",
        "restart",
        "maxiter",
        "residual_norms",
        "total_iteration",
        "converged",
        "breakdown",
        "outer",
        "adapter",
        "lsq",
        "slot",
        "inner_used",
        "cycle_residual",
        "cycle_outcome",
        "_cycle_r",
        "_cycle_beta",
    )

    def __init__(self, lane, *, x, maxiter: int):
        self.lane = lane
        self.operator = lane.operator
        self.b = lane.b
        self.x = x
        self.kernels = canonical_kernel_counters()
        self.shim = _LaneEngine(lane.operator, self.kernels)
        self.precond = RightPreconditioner(lane.preconditioner)
        self.convergence = lane.convergence
        self.target = lane.convergence.resolve_target(ops.norm(lane.b))
        self.restart = lane.restart
        self.maxiter = int(maxiter)
        self.residual_norms: List[float] = []
        self.total_iteration = 0
        self.converged = False
        self.breakdown = False
        self.outer = 0
        self.adapter = None
        self.lsq = None
        self.slot = -1
        self.inner_used = 0
        self.cycle_residual = 0.0
        self.cycle_outcome = "end"
        self._cycle_r = None
        self._cycle_beta = 0.0

    def begin_cycle(self):
        """Run the cycle head; return the cycle dimension or ``_COMPLETE``.

        Mirrors the ``while`` head and pre-loop block of
        :meth:`ArnoldiScheme.run`: the residual of the current iterate
        (charged matvec), the first-cycle residual record and the
        cycle-start convergence test.
        """
        if (
            self.total_iteration >= self.maxiter
            or self.converged
            or self.breakdown
        ):
            return _COMPLETE
        kernels = self.kernels
        t0 = kernels.tick()
        r = ops.axpby(1.0, self.b, -1.0, ops.matvec(self.operator, self.x))
        kernels.charge("matvec", t0)
        beta = ops.norm(r)
        if not self.residual_norms:
            self.residual_norms.append(beta)
        if self.convergence.is_met(beta, self.target):
            self.converged = True
            return _COMPLETE
        self._cycle_r = r
        self._cycle_beta = beta
        return cycle_dimension(self.restart, self.maxiter, self.total_iteration)

    def attach(self, slot: int, rows: np.ndarray, hess: np.ndarray, g: np.ndarray, m: int):
        """Bind this attempt to its cohort slot and seed the cycle state."""
        self.slot = slot
        self.adapter = _basis_view(rows)
        self.adapter.append(self._cycle_r, scale=1.0 / self._cycle_beta)
        self.precond.start_cycle(self.shim, self.b, m)
        g[0] = self._cycle_beta
        self.lsq = _LaneLsq(hess, g)
        self.inner_used = 0
        self.cycle_residual = self._cycle_beta
        self.cycle_outcome = "end"
        self._cycle_r = None

    def advance(self, steps: int, res: np.ndarray):
        """Bring the lane-visible fields up to ``steps`` steps of this cycle.

        :func:`_run_cohort` keeps the step count and the residuals in
        cohort arrays (``res[j, slot]`` is the residual entering step
        ``j``); a lane reads them back here, when someone can see its
        fields -- before an observer is called and when it leaves.
        """
        self.residual_norms.extend(res[self.inner_used + 1 : steps + 1, self.slot].tolist())
        self.total_iteration += steps - self.inner_used
        self.inner_used = self.lsq.size = steps
        self.adapter.n_columns = steps + 1
        self.cycle_residual = self.residual_norms[-1]

    def update_solution(self):
        """First half of the cycle tail: the least-squares iterate update."""
        if self.inner_used > 0:  # update_on_breakdown=True for the GMRES family
            try:
                y = self.lsq.solve(self.inner_used)
            except np.linalg.LinAlgError:
                self.breakdown = True
                y = None
            if y is not None and np.all(np.isfinite(y)):
                self.x = self.precond.apply_update(
                    self.shim, self.x, self.adapter, y, self.inner_used
                )
            else:
                self.breakdown = True

    def finish_cycle(self, true_residual: float):
        """Second half of the cycle tail: record the true residual.

        ``true_residual`` is ``||b - A x||`` of the updated iterate,
        computed by :func:`_batched_cycle_tail` per lane or by one
        stacked block matvec (bit-identical per row, so the recorded
        history is the same either way).
        """
        self.residual_norms[-1] = true_residual
        if self.convergence.is_met(true_residual, self.target):
            self.converged = True
        self.outer += 1


class _PlainGmresLane:
    """Lane controller for a plain/guarded GMRES scenario (one attempt)."""

    is_sdc = False

    def __init__(self, operator, spec: GmresLaneSpec):
        if spec.restart <= 0:
            raise ValueError("restart must be positive")
        if spec.maxiter <= 0:
            raise ValueError("maxiter must be positive")
        if spec.gram_schmidt not in BATCH_GRAM_SCHMIDT:
            raise ValueError(
                f"no batched kernel for gram_schmidt={spec.gram_schmidt!r}; "
                "use the sequential solver for 'modified'"
            )
        self.operator = spec.operator if spec.operator is not None else operator
        self.b = np.asarray(spec.b, dtype=np.float64)
        self.x0 = spec.x0
        self.restart = int(spec.restart)
        self.maxiter = int(spec.maxiter)
        self.preconditioner = spec.preconditioner
        self.method = spec.gram_schmidt
        self.convergence = ConvergenceTest(tol=spec.tol, atol=spec.atol)
        self.policy = compose_policy(spec.policy, spec.iteration_hook, "state")
        self.fire_at = getattr(self.policy, "fire_at", None)
        self.result: Optional[SolveResult] = None
        self._attempt: Optional[_ArnoldiAttempt] = None

    def begin_cycle(self):
        """Advance to the next cycle head; return a cohort key or ``None``."""
        while True:
            if self.result is not None:
                return None
            if self._attempt is None:
                x = (
                    ops.copy_vector(self.x0)
                    if self.x0 is not None
                    else ops.zeros_like(self.b)
                )
                self._attempt = _ArnoldiAttempt(self, x=x, maxiter=self.maxiter)
                self.policy.begin_attempt(x)
            req = self._attempt.begin_cycle()
            if req is not _COMPLETE:
                return (req, self.method)
            self._finish()

    def tail_begin(self):
        """Run the x-update half of the cycle tail; return the attempt
        whose true-residual matvec remains (never ``None`` here)."""
        self._attempt.update_solution()
        return self._attempt

    def _finish(self):
        a = self._attempt
        info = {
            "restarts": a.outer,
            "target": a.target,
            "gram_schmidt": self.method,
            "kernels": a.kernels.as_dict(),
        }
        result = SolveResult(
            x=a.x,
            converged=a.converged,
            iterations=a.total_iteration,
            residual_norms=a.residual_norms,
            breakdown=a.breakdown,
            info=info,
        )
        self.policy.contribute_result(result)
        self.result = result


class _SdcGmresLane:
    """Lane controller replicating the ``sdc_detecting_gmres`` attempt loop.

    The monitor bookkeeping (observation counter, checks run, flops,
    detections) persists across attempts exactly as the sequential
    solver's shared :class:`~repro.skeptical.monitor.SkepticalMonitor`
    does, while the residual history clears per attempt
    (``SkepticalGmresPolicy.begin_attempt``).
    """

    is_sdc = True
    method = "cgs2"  # the skeptical solver pins CGS2

    def __init__(self, operator, spec: SdcLaneSpec):
        # Local import: the skeptical driver sits above the engine.
        from repro.skeptical.gmres_sdc import check_sdc_arguments, estimate_operator_norm

        check_sdc_arguments(
            spec.tol, spec.restart, spec.maxiter,
            (spec.check_period, spec.orthogonality_period, spec.residual_check_period),
            spec.hessenberg_safety, spec.orthogonality_tol, spec.operator_norm,
        )

        self.operator = spec.operator if spec.operator is not None else operator
        self.b = np.asarray(spec.b, dtype=np.float64)
        self.restart = int(spec.restart)
        self.maxiter = int(spec.maxiter)
        self.preconditioner = spec.preconditioner
        self.convergence = ConvergenceTest(tol=spec.tol, atol=spec.atol)
        self.check_period = int(spec.check_period)
        self.orthogonality_period = int(spec.orthogonality_period)
        self.residual_check_period = int(spec.residual_check_period)
        self.orthogonality_tol = float(spec.orthogonality_tol)
        self.max_restarts_on_detection = int(spec.max_restarts_on_detection)
        self.fault_hook = spec.fault_hook
        # The iteration the fault hook can act at (None: any; 0: never --
        # iterations count from 1), see ResiliencePolicy.fire_at.
        self.fire_at = 0 if spec.fault_hook is None else getattr(spec.fault_hook, "fire_at", None)
        self.norm_estimate = (
            float(spec.operator_norm)
            if spec.operator_norm is not None
            else estimate_operator_norm(self.operator, self.b)
        )
        self.hessenberg_threshold = float(spec.hessenberg_safety) * self.norm_estimate

        self.x_current = (
            np.array(spec.x0, dtype=np.float64, copy=True)
            if spec.x0 is not None
            else np.zeros_like(self.b)
        )
        self.total_iterations = 0
        self.all_residuals: List[float] = []
        self.converged = False
        self.breakdown = False
        self.kernels = canonical_kernel_counters()
        self.target_final = None
        self.attempts = 0
        # Monitor-equivalent bookkeeping (persists across attempts).
        self.obs = 0
        self.checks_run = 0
        self.check_flops = 0.0
        self.detections = 0
        self.detection_restarts = 0
        self.residual_history: List[float] = []
        self.result: Optional[SolveResult] = None
        self._attempt: Optional[_ArnoldiAttempt] = None
        self._finished = False

    def begin_cycle(self):
        while True:
            if self.result is not None:
                return None
            if self._attempt is None and not self._next_attempt():
                self._finalize()
                continue
            req = self._attempt.begin_cycle()
            if req is not _COMPLETE:
                return (req, self.method)
            self._complete_attempt()

    def tail_begin(self):
        """The x-update half of the cycle tail; ``None`` when the cycle
        was abandoned (no true-residual matvec remains for this lane)."""
        if self._tail_abandoned():
            return None
        self._attempt.update_solution()
        return self._attempt

    def _tail_abandoned(self) -> bool:
        a = self._attempt
        if a.cycle_outcome == "abandoned":
            # The corrupted cycle is discarded; its kernel work and one
            # iteration tick stay in the accounting, and the next
            # attempt restarts from the last valid iterate.
            self.kernels.merge_dict(a.kernels.as_dict())
            self.total_iterations += 1
            self._attempt = None
            return True
        return False

    def _next_attempt(self) -> bool:
        """The head of the ``while attempts <= max_restarts`` driver loop."""
        if self._finished or self.converged:
            return False
        if self.attempts > self.max_restarts_on_detection:
            return False
        self.attempts += 1
        remaining = self.maxiter - self.total_iterations
        if remaining <= 0:
            return False
        self._attempt = _ArnoldiAttempt(self, x=self.x_current, maxiter=remaining)
        # begin_attempt of the skeptical policy: clear the residual
        # history (the monitor counters persist).
        self.residual_history = []
        return True

    def _complete_attempt(self):
        a = self._attempt
        self._attempt = None
        self.total_iterations += a.total_iteration
        self.all_residuals.extend(a.residual_norms)
        self.kernels.merge_dict(a.kernels.as_dict())
        self.target_final = a.target
        self.x_current = np.asarray(a.x)
        self.converged = a.converged
        self.breakdown = a.breakdown
        if self.converged or self.breakdown:
            self._finished = True

    def _finalize(self):
        self.result = SolveResult(
            x=self.x_current,
            converged=self.converged,
            iterations=self.total_iterations,
            residual_norms=self.all_residuals,
            breakdown=self.breakdown,
            detected_faults=self.detections,
            info={
                "detection_restarts": self.detection_restarts,
                "checks_run": float(self.checks_run),
                "check_flops": float(self.check_flops),
                "policy": "restart",
                "operator_norm_estimate": self.norm_estimate,
                "target": self.target_final,
                "kernels": self.kernels.as_dict(),
            },
        )


def _observe(a: _ArnoldiAttempt, j: int) -> None:
    """Hand lane-attempt ``a``'s step-``j`` event to its hook or policy.

    Runs only for a lane whose observer can act at this iteration (see
    ``ResiliencePolicy.fire_at``); the full :class:`GmresState` with its
    reconstruct closure is built only for observers that read it.
    """
    lane = a.lane
    if lane.is_sdc:
        observer = lane.fault_hook
    else:
        observer = lane.policy.observe
        if not lane.policy.needs_arnoldi_state:
            observer(
                IterationEvent(
                    total_iteration=a.total_iteration,
                    residual_norm=a.cycle_residual,
                    inner=j,
                    outer=a.outer,
                )
            )
            return

    def reconstruct_iterate(j=j, a=a):
        y = a.lsq.solve(j + 1)
        return a.precond.apply_update(a.shim, a.x, a.adapter, y, j + 1)

    observer(
        GmresState(
            outer=a.outer,
            inner=j,
            total_iteration=a.total_iteration,
            basis=a.adapter,
            hessenberg=a.lsq.hessenberg,
            residual_norm=a.cycle_residual,
            reconstruct_iterate=reconstruct_iterate,
        )
    )


def _true_residual(a: _ArnoldiAttempt, j: int, residual: float) -> float:
    """The lazy true-residual of ``SkepticalGmresPolicy.observe``, per lane.

    Non-trivial only at cycle starts (``j == 0``); the reconstruct step
    charges ``basis_update`` (and ``preconditioner`` when present) to
    the attempt's counters exactly as the sequential closure does,
    while the residual matvec itself is uncharged.
    """
    if j != 0:
        return residual
    try:
        y = a.lsq.solve(j + 1)
        x_now = a.precond.apply_update(a.shim, a.x, a.adapter, y, j + 1)
    except np.linalg.LinAlgError:
        return residual
    return float(np.linalg.norm(a.b - np.asarray(ops.matvec(a.operator, x_now))))


def _slot_rows(pairs):
    """Index of the slots of ``pairs``: a slice when they are the leading
    slots in order (views, no gather copies -- the all-lanes-due common
    case), else an index array."""
    slots = [slot for _, slot in pairs]
    if slots[0] == 0 and slots[-1] == len(slots) - 1:
        return slice(0, len(slots))
    return np.asarray(slots, dtype=np.intp)


def _skeptical_checks(sdc, j: int, basis: np.ndarray, hess: np.ndarray, residuals):
    """One monitor observation for every active SDC lane of a cohort step.

    Replicates ``SkepticalMonitor.observe`` with the default check set
    in registration order -- finite basis, finite Hessenberg column,
    Hessenberg bound, residual monotonicity (all at ``check_period``),
    then orthogonality and residual consistency at their own periods --
    counting the failing check and skipping the rest, at most one
    detection per observation.  The three cheap array checks are
    evaluated as one vectorized sweep over the due lanes.  ``sdc`` holds
    the ``(lane, slot)`` pairs in slot order, ``residuals`` this step's
    residual per slot.  (``check_flops`` only ever adds integer-valued
    floats, so folding a lane's passed checks into one add is exact.)

    Returns the set of lanes whose abort policy fired (restart response:
    the cycle is abandoned).
    """
    abandoned = set()
    n = basis.shape[2]
    due, ortho, consistency = [], [], []
    for pair in sdc:
        lane, slot = pair
        lane.obs = obs = lane.obs + 1
        lane.residual_history.append(residuals[slot])
        if obs % lane.check_period == 0:
            due.append(pair)
        if obs % lane.orthogonality_period == 0:
            ortho.append(pair)
        if obs % lane.residual_check_period == 0:
            consistency.append(pair)
    if due:
        rows = _slot_rows(due)
        fb_pass = np.isfinite(basis[rows, j + 1, :]).all(axis=1).tolist()
        # NaN propagates through max and inf is the max, so the bound
        # test below also fails on any non-finite window entry.
        max_entry = np.abs(hess[rows, : j + 2, : j + 1]).max(axis=(1, 2)).tolist()
        # Cumulative cost of the array checks when 1, 2, 3 or all 4 ran.
        costs = (float(n), float(n + j + 2), float(n + (j + 2) + (j + 2) * (j + 1)))
        costs += costs[2:]
        for i, (lane, slot) in enumerate(due):
            me = max_entry[i]
            if not fb_pass[i]:
                ran = 1
            elif not (math.isfinite(me) and me <= lane.hessenberg_threshold):
                # The bound failed; the check before it (finite newest
                # column, part of the same window) may have failed first.
                ran = 3 if np.isfinite(hess[slot, : j + 2, j]).all() else 2
            else:
                # All three passed; the fourth is monotonicity_check
                # (history[-4:], default window/allowed_increase, zero
                # cost_flops), inlined.
                ran = 4
                recent = lane.residual_history[-4:]
                if len(recent) < 2:
                    mono_pass = True
                elif not all(map(math.isfinite, recent)):
                    mono_pass = False
                else:
                    reference = min(recent[:-1])
                    mono_pass = reference <= 0.0 or recent[-1] / reference <= 1.5
            lane.checks_run += ran
            lane.check_flops += costs[ran - 1]
            if ran < 4 or not mono_pass:
                lane.detections += 1
                lane.detection_restarts += 1
                abandoned.add(lane)
    # Orthogonality defect, vectorized: batched (D, k, n) @ (D, n, k)
    # Gram matrices are bit-identical to the per-lane ``v.T @ v`` of
    # orthogonality_check (pinned by the parity suite).
    if abandoned:
        ortho = [pair for pair in ortho if pair[0] not in abandoned]
    if ortho:
        k = j + 2
        V = basis[_slot_rows(ortho), :k, :]
        grams = np.matmul(V, V.transpose(0, 2, 1))
        # A non-finite Gram entry makes the defect inf or NaN: it fails.
        defect = np.abs(grams - np.eye(k)).max(axis=(1, 2)).tolist()
        cost = 2.0 * n * k * k
        for i, (lane, _slot) in enumerate(ortho):
            d = defect[i]
            lane.checks_run += 1
            lane.check_flops += cost
            if not (math.isfinite(d) and d <= lane.orthogonality_tol):
                lane.detections += 1
                lane.detection_restarts += 1
                abandoned.add(lane)
    for lane, slot in consistency:
        if lane in abandoned:
            continue
        residual = residuals[slot]
        check = residual_consistency_check(
            residual, _true_residual(lane._attempt, j, residual)
        )
        lane.checks_run += 1
        lane.check_flops += check.cost_flops
        if not check.passed:
            lane.detections += 1
            lane.detection_restarts += 1
            abandoned.add(lane)
    return abandoned


def _swap_slots(order, s: int, t: int, basis, hess, table, g) -> None:
    """Swap two lanes' slots in the cohort stacks.

    Both lanes keep their own data -- the rows (columns of the
    step-major ``table``) are exchanged and each attempt's views (basis
    adapter, least-squares Hessenberg and rotated right-hand side, a
    column of ``g``) are re-pointed at its new slot, so the cycle tail
    and the reconstruct closures keep seeing live state.
    """
    for stack in (basis, hess):
        tmp = stack[s].copy()
        stack[s] = stack[t]
        stack[t] = tmp
    table[:, [s, t]] = table[:, [t, s]]
    a, b = order[s], order[t]
    order[s], order[t] = b, a
    for attempt, slot in ((a, t), (b, s)):
        attempt.slot = slot
        attempt.adapter._rows = basis[slot]
        attempt.lsq.hessenberg = hess[slot]
        attempt.lsq._g = g[:, slot]


def _run_cohort(operator, lanes, m: int, method: str, n: int) -> None:
    """Advance one restart cycle of a cohort of lanes in lockstep.

    All lanes share the cycle dimension ``m`` and Gram-Schmidt
    ``method``; each occupies one slot of the stacked basis
    ``(G, m+1, n)`` and Hessenberg ``(G, m+1, m)`` arrays and one column
    of a step-major ``table`` holding everything a step reads as a
    ``(k,)`` vector (Givens rotations, rotated right-hand side,
    residuals, targets), so those operands are contiguous rows.  Lanes
    leave the active set on convergence, happy breakdown, non-finite
    residual or skeptical abandonment; survivors proceed.  (The budget
    needs no test: ``m`` never exceeds a lane's remaining iterations, so
    it can only run out at the last step, where the cycle ends anyway.)

    Per-lane Python runs only on events (module docstring, "Cost
    shape"); a lane reads its step count, residuals and kernel seconds
    back when it leaves -- every lane enters at step 0, so its seconds
    are the running even shares and its call count is its step count.
    """
    G = len(lanes)
    basis = np.zeros((G, m + 1, n), dtype=np.float64)
    hess = np.zeros((G, m + 1, m), dtype=np.float64)
    table = np.zeros((4 * m + 3, G), dtype=np.float64)
    giv_c, giv_s, g = table[:m], table[m : 2 * m], table[2 * m : 3 * m + 1]
    res = table[3 * m + 1 : 4 * m + 2]  # res[j]: the residual entering step j
    targets = table[4 * m + 2]
    col = np.empty((m + 1, G), dtype=np.float64)
    buf = np.empty((2 * m + 1, G), dtype=np.float64)

    order = []
    every = []  # attempts whose observer watches every step
    due = {}  # step -> attempts whose observer can act only there
    for slot, lane in enumerate(lanes):
        a = lane._attempt
        a.attach(slot, basis[slot], hess[slot], g[:, slot], m)
        res[0, slot] = a.cycle_residual
        targets[slot] = a.target
        order.append(a)
        if lane.fire_at is None:
            every.append(a)
        else:
            due.setdefault(lane.fire_at - a.total_iteration - 1, []).append(a)
    sdc = [(a.lane, a.slot) for a in order if a.lane.is_sdc]
    no_precond = all(a.precond.preconditioner is None for a in order)
    shared_operator = all(a.operator is order[0].operator for a in order)
    mv_sec = ortho_sec = 0.0
    steps = 0
    k = G

    def leave(a):
        a.advance(steps, res)
        a.kernels.add("matvec", mv_sec, calls=steps)
        a.kernels.add("orthogonalization", ortho_sec, calls=steps)

    for j in range(m):
        if k == 0:
            break
        steps = j + 1
        # Active lanes always occupy the leading slots (exited lanes
        # are swapped to the tail, see below), so every step indexes
        # the stacks with basic slices -- views, never gather/scatter
        # copies.  Values are identical either way.
        idx = slice(None) if k == G else slice(0, k)
        acts = order[:k] if k < G else order

        # Candidate directions: per-lane preconditioner (charged through
        # the sequential strategy), batched operator application.
        if no_precond:
            Z = basis[idx, j, :]
        else:
            Z = np.empty((k, n), dtype=np.float64)
            for i, a in enumerate(acts):
                Z[i] = a.precond.preconditioned_vector(a.shim, a.adapter, j)
        t0 = time.perf_counter()
        W = _matvec_rows(acts, Z, shared_operator)
        t1 = time.perf_counter()
        mv_sec += (t1 - t0) / k

        # Orthogonalization span (Gram-Schmidt, norm, happy test,
        # append), batched; one charged call per lane as sequentially.
        W1, coeffs = orthogonalize_many(basis[idx, : j + 1, :], W, method)
        h_next = np.sqrt(np.matmul(W1[:, None, :], W1[:, :, None])[:, 0, 0])
        happy = h_next <= HAPPY_BREAKDOWN_TOL * np.maximum(res[j, :k], 1.0)
        any_happy = happy.any()
        # Reciprocal-then-multiply, matching append(w, scale=1/h).
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if any_happy:
                not_happy = ~happy
                out = np.zeros_like(W1)
                out[not_happy] = (1.0 / h_next[not_happy])[:, None] * W1[not_happy]
                basis[idx, j + 1, :] = out
            else:
                np.multiply((1.0 / h_next)[:, None], W1, out=basis[idx, j + 1, :])
        ortho_sec += (time.perf_counter() - t1) / k

        # Incremental QR of the Hessenberg columns, vectorized over the
        # cohort (uncharged, as in the sequential loop).  The column is
        # held step-major: ``col[i, :k]`` is entry i of every lane.
        col[: j + 1, :k] = coeffs.T
        col[j + 1, :k] = h_next
        head, tail = col[:j, :k], col[1 : j + 1, :k]
        c_tail = np.multiply(giv_c[:j, :k], tail, out=buf[:j, :k])
        s_tail = np.multiply(giv_s[:j, :k], tail, out=buf[m : m + j, :k])
        # The earlier rotations, (a, b) <- (c*a + s*b, c*b - s*a) down
        # the column.  Only the b's chain -- entry i+1 becomes
        # c_i*h_{i+1} - s_i*(entry i) -- so the loop is two calls per
        # rotation and the a's follow in one sweep.
        top = col[0, :k]
        s_top = buf[2 * m, :k]
        for s_i, c_low, low in zip(giv_s[:j, :k], c_tail, tail):
            np.multiply(s_i, top, out=s_top)
            np.subtract(c_low, s_top, out=low)
            top = low
        np.multiply(giv_c[:j, :k], head, out=c_tail)
        np.add(c_tail, s_tail, out=head)
        low = col[j + 1, :k]
        c, s = givens_rotation_many(top, low)
        giv_c[j, :k] = c
        giv_s[j, :k] = s
        new_a = c * top + s * low
        np.subtract(c * low, s * top, out=low)
        top[:] = new_a
        ga, gb = g[j, :k], g[j + 1, :k]
        new_gj = c * ga + s * gb
        np.subtract(c * gb, s * ga, out=gb)
        ga[:] = new_gj
        hess[idx, : j + 2, j] = col[: j + 2, :k].T
        now = np.abs(gb, out=res[j + 1, :k])

        # Events: observers that can act at this step, the skeptical
        # sweep, lanes leaving (abandoned -> non-finite -> converged or
        # happy, the sequential loop's order of precedence).
        watchers = due[j] + every if j in due else every
        for a in watchers:
            if a.slot < k:  # still in the cohort
                a.advance(steps, res)
                _observe(a, j)
        abandoned = _skeptical_checks(sdc, j, basis, hess, now.tolist()) if sdc else ()
        stay = ~(now <= targets[:k]) & (now < np.inf)  # not met, and finite
        if any_happy:
            stay &= ~happy
        if abandoned or not stay.all():
            survive = stay.tolist()
            for lane in abandoned:
                lane._attempt.cycle_outcome = "abandoned"
                survive[lane._attempt.slot] = False
            for a, keep in zip(acts, survive):
                if not keep:
                    leave(a)
                    if a.cycle_outcome != "abandoned" and not math.isfinite(a.cycle_residual):
                        a.breakdown = True
            # Compact survivors into the leading slots: each exited lane
            # below the new watermark swaps stack rows (and re-points its
            # views) with a survivor above it.  One (m+1)-row copy per
            # exit event instead of per-step gather copies.
            new_k = sum(survive)
            lows = [i for i in range(new_k) if not survive[i]]
            highs = [i for i in range(new_k, k) if survive[i]]
            for s_low, t_high in zip(lows, highs):
                _swap_slots(order, s_low, t_high, basis, hess, table, g)
            k = new_k
            if sdc:
                sdc = [(a.lane, a.slot) for a in order[:k] if a.lane.is_sdc]
    for a in order[:k]:
        leave(a)


def run_arnoldi_batch(operator, specs: Sequence) -> List[SolveResult]:
    """Solve ``S`` independent GMRES-family scenarios in lockstep.

    ``specs`` mixes :class:`GmresLaneSpec` (plain/guarded GMRES) and
    :class:`SdcLaneSpec` (skeptical restart GMRES); all right-hand
    sides must share one length, and ``operator`` is shared.  Returns
    one :class:`~repro.krylov.result.SolveResult` per spec, in order,
    bit-identical to the sequential solver's.
    """
    lanes = []
    n = None
    for spec in specs:
        if isinstance(spec, SdcLaneSpec):
            lane = _SdcGmresLane(operator, spec)
        elif isinstance(spec, GmresLaneSpec):
            lane = _PlainGmresLane(operator, spec)
        else:
            raise TypeError(
                f"unsupported lane spec type {type(spec).__name__}"
            )
        if n is None:
            n = lane.b.size
        elif lane.b.size != n:
            raise ValueError("all lanes of a batch must share one vector length")
        lanes.append(lane)
    pool = list(lanes)
    while pool:
        cohorts = {}
        for lane in pool:
            key = lane.begin_cycle()
            if key is not None:
                cohorts.setdefault(key, []).append(lane)
        pool = []
        for (m, method), members in cohorts.items():
            _run_cohort(operator, members, m, method, n)
            _batched_cycle_tail(members)
            pool.extend(members)
    return [lane.result for lane in lanes]


#: Stack the cycle-tail residual matvecs only while the cohort's total
#: row count (``S * n`` = the number of ``reduceat`` segments) stays in
#: the interpreter-bound regime; above this the per-segment cost of the
#: axis-1 ``reduceat`` outweighs the saved per-lane dispatch (measured:
#: 2.6x faster at n=64/S=256, 3x *slower* at n=1024/S=64).
_TAIL_STACK_MAX_SEGMENTS = 16_384


def _batched_cycle_tail(members) -> None:
    """The cycle tail across one cohort, with the residual matvecs stacked.

    Every lane first runs its x-update (per lane, charged nothing, as
    sequentially); the per-lane true-residual matvecs that close each
    cycle are then stacked into one :meth:`CsrMatrix.matvec_block` call
    whenever every remaining lane shares one CsrMatrix operator.  The
    block kernel is bit-identical per row to the per-lane matvec, and
    each lane is charged one matvec call with an even share of the
    batched span -- exactly the accounting contract of the inner-loop
    spans, so batch/sequential parity (which excludes seconds only)
    holds.  Lanes with private operators (fault-injecting wrappers)
    keep their own sequential matvec, preserving fault streams
    draw for draw.

    The stacked path is gated on the block size: ``reduceat`` along
    axis 1 pays a per-segment cost that makes the block kernel *slower*
    than S well-vectorized 1-D matvecs once ``S * n`` leaves the
    interpreter-bound regime (measured crossover ~16k row segments), so
    large-n cohorts keep the per-lane tail.  Both residual forms are
    bit-identical (``b - Ax`` and ``1.0*b + (-1.0)*Ax`` are the same
    IEEE operation), so the gate is a pure time heuristic.
    """
    acts = [a for a in (lane.tail_begin() for lane in members) if a is not None]
    if not acts:
        return
    op0 = acts[0].operator
    if (
        len(acts) > 1
        and isinstance(op0, CsrMatrix)
        and len(acts) * op0.shape[0] <= _TAIL_STACK_MAX_SEGMENTS
        and all(a.operator is op0 for a in acts)
    ):
        t0 = time.perf_counter()
        X = np.array([a.x for a in acts], dtype=np.float64)
        AX = op0.matvec_block(X)
        R = np.array([a.b for a in acts], dtype=np.float64) - AX
        residuals = [float(np.sqrt(R[i] @ R[i])) for i in range(len(acts))]
        share = (time.perf_counter() - t0) / len(acts)
        for a, true_residual in zip(acts, residuals):
            a.kernels.add("matvec", share, calls=1)
            a.finish_cycle(true_residual)
        return
    for a in acts:
        kernels = a.kernels
        t0 = kernels.tick()
        true_residual = ops.norm(
            ops.axpby(1.0, a.b, -1.0, ops.matvec(a.operator, a.x))
        )
        kernels.charge("matvec", t0)
        a.finish_cycle(true_residual)


# ---------------------------------------------------------------------------
# Batched CG
# ---------------------------------------------------------------------------


class _CgLane:
    """Per-lane state of one CG scenario; init mirrors the sequential preamble."""

    def __init__(self, operator, spec: CgLaneSpec):
        if spec.maxiter <= 0:
            raise ValueError("maxiter must be positive")
        self.operator = spec.operator if spec.operator is not None else operator
        self.preconditioner = spec.preconditioner
        self.maxiter = int(spec.maxiter)
        self.policy = compose_policy(spec.policy, spec.iteration_hook, "scalar")
        self.fire_at = getattr(self.policy, "fire_at", None)
        self.kernels = canonical_kernel_counters()
        self.b = np.asarray(spec.b, dtype=np.float64)
        self.convergence = ConvergenceTest(tol=spec.tol, atol=spec.atol)
        self.target = self.convergence.resolve_target(ops.norm(self.b))
        x = ops.copy_vector(spec.x0) if spec.x0 is not None else ops.zeros_like(self.b)
        self.policy.begin_attempt(x)
        t0 = self.kernels.tick()
        r = ops.axpby(1.0, self.b, -1.0, ops.matvec(self.operator, x))
        self.kernels.charge("matvec", t0)
        t0 = self.kernels.tick()
        z = ops.apply_preconditioner(self.preconditioner, r)
        self.kernels.charge("preconditioner", t0)
        self.p = ops.copy_vector(z)
        self.rz = ops.dot(r, z)
        residual = ops.norm(r)
        self.residual_norms: List[float] = [residual]
        self.alphas: List[float] = []
        self.betas: List[float] = []
        self.converged = self.convergence.is_met(residual, self.target)
        self.breakdown = False
        self.iteration = 0
        self.x = x
        self.r = r


def run_cg_batch(operator, specs: Sequence[CgLaneSpec], *, trace=None) -> List[SolveResult]:
    """Solve ``S`` independent CG scenarios in lockstep.

    Per-scenario convergence masks freeze finished lanes: a converged
    (or broken-down, or budget-exhausted) lane's rows of the stacked
    iterate/residual arrays are never touched again, while active lanes
    continue -- :meth:`ConvergenceTest.is_met_many` drives the mask.

    A step is stacked kernels, masks over the active lane ids and one
    ``tolist`` per recorded quantity; a lane is visited when it leaves
    (every lane enters at step 0, so its matvec seconds are the running
    even shares and its counts follow from the step it left at), when
    it has a preconditioner to apply, or when its policy observes.

    ``trace(step, advanced_lane_ids, X, R)``, when given, is called
    after every lockstep step with the (read-only by convention)
    stacked iterate and residual arrays; the property-based freeze
    tests hook it.
    """
    lanes = [_CgLane(operator, spec) for spec in specs]
    if not lanes:
        return []
    n = lanes[0].b.size
    for lane in lanes:
        if lane.b.size != n:
            raise ValueError("all lanes of a batch must share one vector length")
    X = np.stack([lane.x for lane in lanes])
    R = np.stack([lane.r for lane in lanes])
    P = np.stack([lane.p for lane in lanes])
    rz = np.array([lane.rz for lane in lanes], dtype=np.float64)
    targets = np.array([lane.target for lane in lanes], dtype=np.float64)
    maxiters = np.array([lane.maxiter for lane in lanes], dtype=np.intp)
    tester = ConvergenceTest()
    shared_operator = all(lane.operator is lanes[0].operator for lane in lanes)
    preconditioned = any(lane.preconditioner is not None for lane in lanes)
    observed = any(lane.fire_at != 0 for lane in lanes)
    mv_sec = 0.0
    step = 0

    def leave(ids, iterations: int, applications: int):
        # The lanes left during step ``step``, ``iterations`` updates and
        # ``applications`` in-loop preconditioner applications done.
        for i in ids:
            lane = lanes[i]
            lane.iteration = iterations
            lane.kernels.add("matvec", mv_sec, calls=step + 1)
            if lane.preconditioner is None:  # applied as a plain alias, below
                lane.kernels.add("preconditioner", 0.0, calls=applications)

    gi = np.flatnonzero([not lane.converged for lane in lanes])
    while gi.size:
        Pg = P[gi]
        t0 = time.perf_counter()
        if shared_operator:
            AP = batched_matvec(lanes[0].operator, Pg)
        else:
            AP = np.array(
                [
                    np.asarray(ops.matvec(lanes[i].operator, p), dtype=np.float64)
                    for i, p in zip(gi.tolist(), Pg)
                ]
            )
        mv_sec += (time.perf_counter() - t0) / gi.size
        p_ap = np.matmul(Pg[:, None, :], AP[:, :, None])[:, 0, 0]
        # Loss of positive definiteness (p_ap <= 0 or not finite; a NaN
        # fails the first test): breakdown before any update.
        ok = (p_ap > 0.0) & (p_ap < np.inf)
        if not ok.all():
            out = gi[~ok].tolist()
            for i in out:
                lanes[i].breakdown = True
            leave(out, step, step)
            gi, Pg, AP, p_ap = gi[ok], Pg[ok], AP[ok], p_ap[ok]
        ids = gi.tolist()
        alpha = rz[gi] / p_ap
        X[gi] = X[gi] + alpha[:, None] * Pg
        Rg = R[gi] + (-alpha)[:, None] * AP
        R[gi] = Rg
        res = np.sqrt(np.matmul(Rg[:, None, :], Rg[:, :, None])[:, 0, 0])
        residuals = res.tolist()
        for i, value, residual in zip(ids, alpha.tolist(), residuals):
            lanes[i].alphas.append(value)
            lanes[i].residual_norms.append(residual)
        if observed:
            for i, residual in zip(ids, residuals):
                lane = lanes[i]
                if lane.fire_at is None or lane.fire_at == step + 1:
                    lane.policy.observe(
                        IterationEvent(total_iteration=step + 1, residual_norm=residual)
                    )
        finite = res < np.inf
        alive = finite & ~tester.is_met_many(res, targets[gi])
        if not alive.all():
            gone = ~alive
            out = gi[gone].tolist()
            for i, is_finite in zip(out, finite[gone].tolist()):
                if is_finite:
                    lanes[i].converged = True  # freeze: rows of X/R never touched again
                else:
                    lanes[i].breakdown = True
            leave(out, step + 1, step)
            gi, Rg = gi[alive], Rg[alive]
        # z = M^{-1} r: the residual rows themselves (nothing below
        # writes to them) except where a lane has a preconditioner.
        Z = Rg
        if preconditioned:
            Z = Rg.copy()
            for row, i in enumerate(gi.tolist()):
                lane = lanes[i]
                if lane.preconditioner is not None:
                    t0 = lane.kernels.tick()
                    Z[row] = ops.apply_preconditioner(lane.preconditioner, Rg[row])
                    lane.kernels.charge("preconditioner", t0)
        rz_next = np.matmul(Rg[:, None, :], Z[:, :, None])[:, 0, 0]
        good = np.isfinite(rz_next)
        if not good.all():
            out = gi[~good].tolist()
            for i in out:
                lanes[i].breakdown = True
            leave(out, step + 1, step + 1)
            gi, Z, rz_next = gi[good], Z[good], rz_next[good]
        beta = rz_next / rz[gi]
        for i, value in zip(gi.tolist(), beta.tolist()):
            lanes[i].betas.append(value)
        rz[gi] = rz_next
        P[gi] = Z + beta[:, None] * P[gi]
        spent = maxiters[gi] <= step + 1
        if spent.any():
            leave(gi[spent].tolist(), step + 1, step + 1)
            gi = gi[~spent]
        if trace is not None:
            trace(step, ids, X, R)
        step += 1

    results = []
    for i, lane in enumerate(lanes):
        result = SolveResult(
            x=np.array(X[i], dtype=np.float64, copy=True),
            converged=lane.converged,
            iterations=lane.iteration,
            residual_norms=lane.residual_norms,
            breakdown=lane.breakdown,
            info={
                "alphas": lane.alphas,
                "betas": lane.betas,
                "target": lane.target,
                "kernels": lane.kernels.as_dict(),
            },
        )
        lane.policy.contribute_result(result)
        results.append(result)
    return results
