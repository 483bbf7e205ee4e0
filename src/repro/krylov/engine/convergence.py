"""Convergence-test strategy of the solver engine.

Every solver in the toolkit uses the same stopping rule -- converge
when ``|r| <= max(tol * |b|, atol)`` with a fallback to ``tol`` for a
zero right-hand side.  :class:`ConvergenceTest` is that one rule,
written once for both engines instead of inlined per solver.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_non_negative

__all__ = ["ConvergenceTest"]


class ConvergenceTest:
    """Relative residual test with an absolute floor.

    Parameters
    ----------
    tol:
        Relative tolerance (against ``|b|``).
    atol:
        Absolute tolerance; the effective target is
        ``max(tol * |b|, atol)``, falling back to ``tol`` when both
        terms vanish (zero right-hand side).
    """

    def __init__(self, tol: float = 1e-8, atol: float = 0.0):
        # One rule for both engines: tol = 0.0 is legal (run to maxiter),
        # a negative or non-finite tolerance is refused.
        self.tol = check_non_negative(tol, "tol")
        self.atol = check_non_negative(atol, "atol")

    def resolve_target(self, b_norm: float) -> float:
        """The absolute residual target for a right-hand side of norm ``b_norm``."""
        target = max(self.tol * b_norm, self.atol)
        if target == 0.0:
            target = self.tol
        return target

    def is_met(self, residual_norm: float, target: float) -> bool:
        """Whether ``residual_norm`` satisfies the resolved target."""
        return residual_norm <= target

    def is_met_many(self, residual_norms, targets) -> np.ndarray:
        """Vectorized :meth:`is_met` over a batch of lockstep solves.

        ``residual_norms`` and ``targets`` are broadcastable arrays (one
        entry per scenario lane); the comparison is the same ``<=`` as
        the scalar rule, so a lane's batched convergence decision is
        bit-for-bit the sequential one.
        """
        return np.asarray(residual_norms, dtype=np.float64) <= np.asarray(
            targets, dtype=np.float64
        )
