"""SDC-detecting GMRES (skeptical GMRES).

The concrete algorithm the paper holds up as an SkP exemplar (§III-A)
is a GMRES "that detects and, optionally, corrects single bit flips
very inexpensively as part of the Arnoldi process" (Elliott & Hoemmen).
This module provides that solver: restarted GMRES whose resilience
policy runs a :class:`~repro.skeptical.monitor.SkepticalMonitor` with

* a finiteness check of the newest basis vector and Hessenberg column
  (O(n) -- catches exponent-bit flips),
* the Hessenberg-bound check ``|h_ij| <= safety * ||A||`` (O(j) --
  catches large mantissa/exponent flips in the projection
  coefficients),
* a periodic orthogonality check of the basis (O(n j^2) -- catches
  subtler corruption), and
* a periodic residual-consistency check (recurrence vs true residual,
  one extra matvec).

The monitor wiring is the engine's
:class:`~repro.krylov.engine.resilience.SkepticalGmresPolicy`: on
detection, the configured response applies -- the default ``restart``
response abandons the corrupted Krylov cycle
(:class:`~repro.krylov.engine.resilience.CycleAbandoned`) and this
driver restarts GMRES from the current iterate, which is cheap and
sufficient because GMRES restarts are already part of the algorithm
(the "rolling back to a previous valid state" response of §II-A).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.krylov import ops
from repro.krylov.engine.core import canonical_kernel_counters
from repro.krylov.engine.resilience import (
    CallbackPolicy,
    CompositePolicy,
    CycleAbandoned,
    SkepticalGmresPolicy,
)
from repro.krylov.gmres import GmresState, gmres_engine
from repro.krylov.result import SolveResult
from repro.skeptical.checks import (
    finite_check,
    hessenberg_bound_check,
    monotonicity_check,
    orthogonality_check,
    residual_consistency_check,
)
from repro.skeptical.monitor import SkepticalMonitor
from repro.utils.validation import check_integer, check_positive

__all__ = [
    "sdc_detecting_gmres",
    "SdcAttempts",
    "default_sdc_monitor",
    "estimate_operator_norm",
    "check_sdc_arguments",
]


def check_sdc_arguments(
    tol, restart, maxiter, periods, hessenberg_safety, orthogonality_tol, operator_norm
) -> None:
    """Validate the skeptical solver's arguments (``periods``: the check,
    orthogonality and residual-check periods, in that order).

    :class:`SdcAttempts` runs it before anything else, so both engines
    refuse the same input with the same message (names as in the checks
    that would fail later).
    """
    check_integer(periods[0], "check_period")
    check_positive(tol, "tol")
    for period in periods:
        check_integer(period, "period")
        if period <= 0:
            raise ValueError("period must be positive")
    if restart <= 0:
        raise ValueError("restart must be positive")
    if maxiter <= 0:
        raise ValueError("maxiter must be positive")
    check_positive(hessenberg_safety, "safety")
    check_positive(orthogonality_tol, "tol")
    if operator_norm is not None:
        check_positive(operator_norm, "operator_norm_estimate")


def estimate_operator_norm(operator, probe: np.ndarray, n_samples: int = 4) -> float:
    """Cheap randomized lower-bound estimate of ||A||_2.

    A few matvecs on random unit vectors give a (slight under-)estimate
    that the Hessenberg-bound check then loosens with its safety
    factor.
    """
    rng = np.random.default_rng(12345)
    estimate = 0.0
    size = probe.size
    for _ in range(max(1, n_samples)):
        v = rng.standard_normal(size)
        v /= np.linalg.norm(v)
        av = ops.matvec(operator, v)
        estimate = max(estimate, float(np.linalg.norm(av)))
    return max(estimate, np.finfo(float).tiny)


def default_sdc_monitor(
    norm_estimate: float,
    *,
    check_period: int = 1,
    orthogonality_period: int = 5,
    residual_check_period: int = 10,
    hessenberg_safety: float = 4.0,
    orthogonality_tol: float = 1e-6,
) -> SkepticalMonitor:
    """The standard SkP check set for GMRES, as a configured monitor."""
    monitor = SkepticalMonitor()
    monitor.add_check(
        "finite_basis",
        lambda state: finite_check(
            np.asarray(state["basis"][state["inner"] + 1]), name="finite_basis"
        ),
        period=check_period,
    )
    monitor.add_check(
        "finite_hessenberg",
        lambda state: finite_check(
            state["hessenberg"][: state["inner"] + 2, state["inner"]],
            name="finite_hessenberg",
        ),
        period=check_period,
    )
    monitor.add_check(
        "hessenberg_bound",
        lambda state: hessenberg_bound_check(
            state["hessenberg"],
            norm_estimate,
            n_columns=state["inner"] + 1,
            safety=hessenberg_safety,
        ),
        period=check_period,
    )
    monitor.add_check(
        "residual_monotone",
        lambda state: monotonicity_check(state["residual_history"]),
        period=check_period,
    )
    monitor.add_check(
        "orthogonality",
        # The basis block is already an ndarray (vectors as columns);
        # check the stored vectors in place, no column_stack copies.
        lambda state: orthogonality_check(
            state["basis"].matrix(),
            tol=orthogonality_tol,
        ),
        period=orthogonality_period,
    )
    monitor.add_check(
        "residual_consistency",
        lambda state: residual_consistency_check(
            state["residual_norm"], state["true_residual"]()
        ),
        period=residual_check_period,
    )
    return monitor


class SdcAttempts:
    """The attempt loop of :func:`sdc_detecting_gmres`, one decision at a time.

    Owns what surrounds the GMRES attempts of one skeptical solve: the
    argument check, the norm estimate, the budget (detection restarts
    and iterations left), what an abandoned cycle costs, what a
    completed attempt hands over, and the final result.  Both engines
    drive it -- :func:`sdc_detecting_gmres` with a ``try/except
    CycleAbandoned`` loop around ``engine.solve``, a lockstep lane of
    :mod:`repro.krylov.engine.batch` at its cycle boundaries -- and
    differ only in who steps the engine :meth:`next_engine` returns and
    in where the check counters passed to :meth:`result` come from.
    """

    def __init__(
        self, operator, b, x0, *, tol, atol, restart, maxiter, preconditioner,
        check_period, orthogonality_period, residual_check_period,
        hessenberg_safety, orthogonality_tol, max_restarts_on_detection, operator_norm,
    ):
        check_sdc_arguments(
            tol, restart, maxiter, (check_period, orthogonality_period, residual_check_period),
            hessenberg_safety, orthogonality_tol, operator_norm,
        )
        self.operator = operator
        self.b = np.asarray(b, dtype=np.float64)
        self.norm_estimate = (
            float(operator_norm) if operator_norm is not None
            else estimate_operator_norm(operator, self.b)
        )
        self.x = (
            np.array(x0, dtype=np.float64, copy=True) if x0 is not None
            else np.zeros_like(self.b)
        )
        self._gmres_options = dict(  # the skeptical solver pins CGS2
            tol=tol, atol=atol, restart=restart, preconditioner=preconditioner,
            gram_schmidt="cgs2", iteration_hook=None,
        )
        self.maxiter = maxiter
        self.max_restarts_on_detection = max_restarts_on_detection
        self.attempts = 0
        self.total_iterations = 0
        self.residual_norms: list = []
        self.converged = False
        self.breakdown = False
        self.kernels = canonical_kernel_counters()
        self.target = None

    def next_engine(self, policy):
        """The GMRES engine of the next attempt, restarting from the last
        valid iterate :attr:`x`; ``None`` when the solve is over."""
        remaining = self.maxiter - self.total_iterations
        if (
            self.converged
            or self.breakdown
            or self.attempts > self.max_restarts_on_detection
            or remaining <= 0
        ):
            return None
        self.attempts += 1
        return gmres_engine(
            self.operator, maxiter=remaining, policy=policy, **self._gmres_options
        )

    def abandon(self, kernels: Optional[dict]) -> None:
        """A detection discarded the attempt's cycle.  The iterate is
        still valid (it was formed before the corruption), so the next
        attempt simply starts from it; the abandoned attempt's kernel
        work and one iteration tick stay in the accounting."""
        if kernels:
            self.kernels.merge_dict(kernels)
        self.total_iterations += 1

    def complete(self, result: SolveResult) -> None:
        """An attempt ran to its end: take over its iterate and history."""
        self.total_iterations += result.iterations
        self.residual_norms.extend(result.residual_norms)
        self.kernels.merge_dict(result.info["kernels"])
        self.target = result.info["target"]
        self.x = np.asarray(result.x)
        self.converged = result.converged
        self.breakdown = result.breakdown

    def result(
        self, *, detected_faults: int, detection_restarts: int, checks_run, check_flops,
        policy: str,
    ) -> SolveResult:
        return SolveResult(
            x=self.x,
            converged=self.converged,
            iterations=self.total_iterations,
            residual_norms=self.residual_norms,
            breakdown=self.breakdown,
            detected_faults=detected_faults,
            info={
                "detection_restarts": detection_restarts,
                "checks_run": float(checks_run),
                "check_flops": float(check_flops),
                "policy": policy,
                "operator_norm_estimate": self.norm_estimate,
                "target": self.target,
                "kernels": self.kernels.as_dict(),
            },
        )


def sdc_detecting_gmres(
    operator,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    *,
    tol: float = 1e-8,
    atol: float = 0.0,
    restart: int = 30,
    maxiter: int = 1000,
    preconditioner=None,
    check_period: int = 1,
    orthogonality_period: int = 5,
    residual_check_period: int = 10,
    hessenberg_safety: float = 4.0,
    orthogonality_tol: float = 1e-6,
    policy: str = "restart",
    fault_hook: Optional[Callable[[GmresState], None]] = None,
    max_restarts_on_detection: int = 5,
    operator_norm: Optional[float] = None,
) -> SolveResult:
    """Restarted GMRES with skeptical SDC detection in the Arnoldi process.

    The check set is the standard one (:func:`default_sdc_monitor`); a
    custom set is a composition, not an option of this function:
    ``gmres(A, b, policy=SkepticalGmresPolicy(monitor, operator=A, b=b))``.

    Parameters
    ----------
    operator, b, x0, tol, atol, restart, maxiter, preconditioner:
        As for :func:`repro.krylov.gmres.gmres` (sequential NumPy
        vectors only -- the checks need the basis as a dense array).
    check_period:
        Run the cheap (finite / Hessenberg-bound / monotonicity) checks
        every ``check_period`` iterations.
    orthogonality_period, residual_check_period:
        Periods of the two more expensive checks.
    hessenberg_safety:
        Safety factor of the Hessenberg bound.
    orthogonality_tol:
        Tolerance of the basis-orthogonality check.
    policy:
        ``"restart"`` (default) -- on detection, abandon the current
        Krylov cycle and restart from the current iterate;
        ``"abort"`` -- raise
        :class:`~repro.skeptical.policies.SkepticalAbort`.
    fault_hook:
        Optional callable run *before* the checks each iteration with
        the :class:`~repro.krylov.gmres.GmresState`; fault-injection
        campaigns use it to corrupt the solver state exactly where a
        bit flip would land.
    max_restarts_on_detection:
        Upper bound on detection-triggered restarts before giving up.
    operator_norm:
        Trusted ``||A||`` estimate for the Hessenberg-bound check.  By
        default it is probed from ``operator`` with a few matvecs;
        supply it explicitly when the operator itself is unreliable
        (fault-injection campaigns), so the *setup* of the checks runs
        in reliable mode as the SkP model assumes.

    Returns
    -------
    SolveResult
        ``detected_faults`` counts failed checks;
        ``info["detection_restarts"]`` counts detection-triggered
        restarts, ``info["check_flops"]`` the total checking cost and
        ``info["checks_run"]`` how many check evaluations were made.
    """
    checks = dict(
        check_period=check_period,
        orthogonality_period=orthogonality_period,
        residual_check_period=residual_check_period,
        hessenberg_safety=hessenberg_safety,
        orthogonality_tol=orthogonality_tol,
    )
    attempts = SdcAttempts(
        operator, b, x0, tol=tol, atol=atol, restart=restart, maxiter=maxiter,
        preconditioner=preconditioner, max_restarts_on_detection=max_restarts_on_detection,
        operator_norm=operator_norm, **checks,
    )
    if policy not in ("restart", "abort"):
        raise ValueError("policy must be 'restart' or 'abort'")
    monitor = default_sdc_monitor(attempts.norm_estimate, **checks)
    skeptical = SkepticalGmresPolicy(monitor, operator=operator, b=attempts.b, response=policy)
    engine_policy = (
        skeptical
        if fault_hook is None
        else CompositePolicy([CallbackPolicy(fault_hook, "state"), skeptical])
    )

    while (engine := attempts.next_engine(engine_policy)) is not None:
        try:
            result = engine.solve(attempts.b, attempts.x)
        except CycleAbandoned as abandoned:
            attempts.abandon(abandoned.kernels)
        else:
            attempts.complete(result)

    summary = monitor.summary()
    return attempts.result(
        detected_faults=monitor.n_detections,
        detection_restarts=skeptical.detection_restarts,
        checks_run=summary["checks_run"],
        check_flops=summary["check_flops"],
        policy=policy,
    )
