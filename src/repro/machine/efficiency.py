"""Analytic application-efficiency models (experiment E7).

The introduction and conclusion of the paper argue that preserving the
"reliable digital machine" illusion via global checkpoint/restart
becomes too costly as systems grow, and that resilient algorithms
(LFLR-style local recovery, selective reliability) both restore
efficiency and let us run on cheaper, less reliable systems.

These are statements about the classical first-order efficiency models,
which we implement here:

* :func:`daly_optimal_interval` -- Young/Daly optimal checkpoint
  interval ``tau_opt ~ sqrt(2 * delta * M)`` (refined Daly form).
* :func:`cpr_efficiency` -- fraction of machine time doing useful work
  under periodic global checkpointing, accounting for checkpoint
  overhead, re-computed (lost) work and restart time.
* :func:`lflr_efficiency` -- the same quantity when a failure only
  costs a (small) local recovery plus the redundant-store maintenance
  overhead, as in the LFLR model.
* :func:`efficiency_crossover_mtbf` -- the system MTBF below which
  LFLR beats CPR by a given factor; used to produce the "crossover"
  rows of experiment E7.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "daly_optimal_interval",
    "cpr_efficiency",
    "lflr_efficiency",
    "efficiency_crossover_mtbf",
]


def daly_optimal_interval(checkpoint_time: float, system_mtbf: float) -> float:
    """Young/Daly optimal checkpoint interval.

    Uses Daly's higher-order approximation
    ``tau = sqrt(2 delta M) * [1 + (1/3) sqrt(delta / (2M)) + (delta)/(9*2M)] - delta``
    truncated to the familiar leading term when the correction would be
    negligible, and never returns a negative interval.

    Parameters
    ----------
    checkpoint_time:
        Time ``delta`` to write one global checkpoint (seconds).
    system_mtbf:
        System mean time between failures ``M`` (seconds).
    """
    delta = check_positive(checkpoint_time, "checkpoint_time")
    mtbf = check_positive(system_mtbf, "system_mtbf")
    if delta >= 2.0 * mtbf:
        # Checkpointing takes longer than the expected failure-free
        # window: the model degenerates; checkpoint continuously.
        return delta
    tau = math.sqrt(2.0 * delta * mtbf)
    correction = 1.0 + (1.0 / 3.0) * math.sqrt(delta / (2.0 * mtbf)) + delta / (
        9.0 * 2.0 * mtbf
    )
    return max(tau * correction - delta, delta)


def cpr_efficiency(
    checkpoint_time: float,
    system_mtbf: float,
    restart_time: float = 0.0,
    interval: Optional[float] = None,
) -> float:
    """Efficiency of periodic global checkpoint/restart.

    The standard first-order model: with checkpoint interval ``tau``
    (defaults to the Daly optimum) the fraction of time spent on useful
    work is::

        E = (tau / (tau + delta)) * exp(-(tau + delta + R) / (2 M)) ... (approx)

    We use the widely quoted waste decomposition instead of the exact
    renewal-theory expression: waste = checkpoint overhead + expected
    rework + restart cost per failure period::

        waste_fraction = delta / (tau + delta)
                         + (tau + delta) / (2 M)
                         + R / M
        E = max(0, 1 - waste_fraction)

    which is accurate for ``tau + delta << M`` and degrades gracefully
    (to zero efficiency) outside that regime -- exactly the behaviour
    the paper appeals to when it calls CPR "too costly or infeasible".
    """
    delta = check_positive(checkpoint_time, "checkpoint_time")
    mtbf = check_positive(system_mtbf, "system_mtbf")
    restart = check_non_negative(restart_time, "restart_time")
    tau = interval if interval is not None else daly_optimal_interval(delta, mtbf)
    tau = check_positive(tau, "interval")
    waste = delta / (tau + delta) + (tau + delta) / (2.0 * mtbf) + restart / mtbf
    return max(0.0, 1.0 - waste)


def lflr_efficiency(
    recovery_time: float,
    system_mtbf: float,
    redundancy_overhead: float = 0.02,
) -> float:
    """Efficiency of local-failure/local-recovery execution.

    Under LFLR a failure costs only the local recovery time ``r`` (the
    other ranks idle, at worst, for that long), and the application pays
    a constant throughput tax ``redundancy_overhead`` for maintaining
    the neighbour-redundant persistent store::

        E = (1 - redundancy_overhead) * max(0, 1 - r / M)

    The key qualitative property reproduced from the paper: ``r`` does
    not grow with the machine size (it depends only on one rank's
    state), whereas the CPR waste grows because the system MTBF shrinks
    like 1/P -- so LFLR's efficiency stays high where CPR's collapses.
    """
    recovery = check_non_negative(recovery_time, "recovery_time")
    mtbf = check_positive(system_mtbf, "system_mtbf")
    overhead = check_non_negative(redundancy_overhead, "redundancy_overhead")
    if overhead >= 1.0:
        raise ValueError("redundancy_overhead must be < 1")
    return (1.0 - overhead) * max(0.0, 1.0 - recovery / mtbf)


def efficiency_crossover_mtbf(
    checkpoint_time: float,
    recovery_time: float,
    restart_time: float = 0.0,
    redundancy_overhead: float = 0.02,
) -> float:
    """System MTBF at which CPR efficiency equals LFLR efficiency.

    Below the returned MTBF, LFLR is strictly more efficient; above it,
    the constant redundancy overhead of LFLR can make CPR (with very
    rare failures) slightly better.  Found by bisection in log space on
    the difference of the two efficiency models, over ``[1, 1e9]``
    seconds, to a relative width of ``1e-3``.
    """
    lo, hi = 1.0, 1.0e9

    def diff(mtbf: float) -> float:
        return cpr_efficiency(checkpoint_time, mtbf, restart_time) - lflr_efficiency(
            recovery_time, mtbf, redundancy_overhead
        )

    f_lo, f_hi = diff(lo), diff(hi)
    if f_lo > 0 and f_hi > 0:
        return lo  # CPR always at least as good in range (tiny checkpoints).
    if f_lo < 0 and f_hi < 0:
        return hi  # LFLR always better in range.
    a, b = lo, hi
    while b - a > 1e-3 * max(1.0, a):
        mid = math.sqrt(a * b)  # bisection in log space
        if (diff(a) <= 0) == (diff(mid) <= 0):
            a = mid
        else:
            b = mid
    return math.sqrt(a * b)
