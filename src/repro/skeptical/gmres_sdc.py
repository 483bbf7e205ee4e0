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
from repro.krylov.gmres import GmresState, gmres
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
    "default_sdc_monitor",
    "estimate_operator_norm",
    "check_sdc_arguments",
]


def check_sdc_arguments(
    tol, restart, maxiter, periods, hessenberg_safety, orthogonality_tol, operator_norm
) -> None:
    """Validate the skeptical solver's arguments (``periods``: the check,
    orthogonality and residual-check periods, in that order).

    The one validation of both engines -- :func:`sdc_detecting_gmres`
    and the lockstep lane of :mod:`repro.krylov.engine.batch` call it
    first -- so one lane and many lanes refuse the same input with the
    same message (names as in the checks that would fail later).
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
    monitor: Optional[SkepticalMonitor] = None,
    fault_hook: Optional[Callable[[GmresState], None]] = None,
    max_restarts_on_detection: int = 5,
    operator_norm: Optional[float] = None,
) -> SolveResult:
    """Restarted GMRES with skeptical SDC detection in the Arnoldi process.

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
    monitor:
        Optionally supply a pre-configured monitor (its checks are used
        instead of the defaults).
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
    check_sdc_arguments(
        tol, restart, maxiter, (check_period, orthogonality_period, residual_check_period),
        hessenberg_safety, orthogonality_tol, operator_norm,
    )
    if policy not in ("restart", "abort"):
        raise ValueError("policy must be 'restart' or 'abort'")

    b = np.asarray(b, dtype=np.float64)
    norm_estimate = (
        float(operator_norm) if operator_norm is not None
        else estimate_operator_norm(operator, b)
    )

    if monitor is None:
        monitor = default_sdc_monitor(
            norm_estimate,
            check_period=check_period,
            orthogonality_period=orthogonality_period,
            residual_check_period=residual_check_period,
            hessenberg_safety=hessenberg_safety,
            orthogonality_tol=orthogonality_tol,
        )

    skeptical = SkepticalGmresPolicy(monitor, operator=operator, b=b, response=policy)
    engine_policy = (
        skeptical
        if fault_hook is None
        else CompositePolicy([CallbackPolicy(fault_hook, "state"), skeptical])
    )

    x = np.array(x0, dtype=np.float64, copy=True) if x0 is not None else np.zeros_like(b)
    total_iterations = 0
    all_residuals = []
    converged = False
    breakdown = False
    kernels = canonical_kernel_counters()
    target = None

    attempts = 0
    while attempts <= max_restarts_on_detection and not converged:
        attempts += 1
        remaining = maxiter - total_iterations
        if remaining <= 0:
            break
        try:
            result = gmres(
                operator,
                b,
                x0=x,
                tol=tol,
                atol=atol,
                restart=restart,
                maxiter=remaining,
                preconditioner=preconditioner,
                policy=engine_policy,
            )
        except CycleAbandoned as abandoned:
            # The corrupted cycle is discarded; the current iterate x is
            # still valid (it was formed before the corruption), so we
            # simply try again from it -- keeping the abandoned
            # attempt's kernel work in the accounting.
            if abandoned.kernels:
                kernels.merge_dict(abandoned.kernels)
            total_iterations += 1
            continue
        total_iterations += result.iterations
        all_residuals.extend(result.residual_norms)
        kernels.merge_dict(result.info["kernels"])
        target = result.info["target"]
        x = np.asarray(result.x)
        converged = result.converged
        breakdown = result.breakdown
        if converged or breakdown:
            break

    summary = monitor.summary()
    return SolveResult(
        x=x,
        converged=converged,
        iterations=total_iterations,
        residual_norms=all_residuals,
        breakdown=breakdown,
        detected_faults=monitor.n_detections,
        info={
            "detection_restarts": skeptical.detection_restarts,
            "checks_run": summary["checks_run"],
            "check_flops": summary["check_flops"],
            "policy": policy,
            "operator_norm_estimate": norm_estimate,
            "target": target,
            "kernels": kernels.as_dict(),
        },
    )
