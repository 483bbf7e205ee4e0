"""Common solver result type."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

__all__ = ["SolveResult"]


@dataclass
class SolveResult:
    """Outcome of an iterative solve.

    Attributes
    ----------
    x:
        The computed solution (NumPy array or
        :class:`~repro.comm.distributed.DistributedVector`, matching
        the input type).
    converged:
        Whether the requested tolerance was reached.
    iterations:
        Number of iterations performed (total inner iterations for
        restarted / outer-inner methods).
    residual_norms:
        History of (preconditioned) residual norms, starting with the
        initial residual.
    breakdown:
        Set when the method terminated because of a numerical breakdown
        (e.g. a zero pivot or a non-finite value) rather than
        convergence or iteration exhaustion.
    detected_faults:
        Number of faults flagged by resilience checks during the solve
        (zero for the plain solvers).
    info:
        Free-form extra information (per-solver counters, restart
        history, fault logs...).
    """

    x: Any
    converged: bool
    iterations: int
    residual_norms: List[float] = field(default_factory=list)
    breakdown: bool = False
    detected_faults: int = 0
    info: Dict[str, Any] = field(default_factory=dict)
