"""Response policies for failed skeptical checks.

The paper (§II-A) lists the possible responses to a detected silent
error: "Recovery may be as simple as aborting, or may involve rolling
back to a previous valid state, or even continuing execution if the
error will be damped by subsequent computations."  A
:class:`ResponsePolicy` is what the
:class:`~repro.skeptical.monitor.SkepticalMonitor` invokes when a check
fails; :class:`AbortPolicy` is the fail-stop response.  The roll-back
response of the SDC-detecting GMRES is its cycle restart
(:mod:`repro.skeptical.gmres_sdc`).
"""

from __future__ import annotations

from typing import Optional

from repro.skeptical.checks import CheckResult

__all__ = [
    "SkepticalAbort",
    "ResponsePolicy",
    "AbortPolicy",
]


class SkepticalAbort(RuntimeError):
    """Raised on a failed check by :class:`AbortPolicy` and by the
    skeptical GMRES's ``"abort"`` response."""

    def __init__(self, check: CheckResult):
        super().__init__(
            f"skeptical check '{check.name}' failed: measure {check.measure:.3e} "
            f"exceeds threshold {check.threshold:.3e}"
        )
        self.check = check


class ResponsePolicy:
    """Base class: decides what happens after a failed check.

    ``handle`` returns one of the action strings ``"abort"``,
    ``"rollback"`` or ``"continue"``; the monitor acts on it (and the
    abort policy raises directly).
    """

    def handle(self, check: CheckResult, context: Optional[dict] = None) -> str:
        """Handle a failed check; return the action taken."""
        raise NotImplementedError


class AbortPolicy(ResponsePolicy):
    """Terminate the computation (fail-stop on detection)."""

    def handle(self, check: CheckResult, context: Optional[dict] = None) -> str:
        raise SkepticalAbort(check)
