"""The skeptical monitor.

:class:`SkepticalMonitor` is the glue of the SkP model: it holds a set
of named checks, a check period, and a response policy, and exposes an
``observe`` method that iterative computations call with whatever state
they want validated.  It keeps a ledger of all check results so the
experiments can report detection latency, overhead and false-positive
rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.skeptical.checks import CheckResult
from repro.skeptical.policies import AbortPolicy, ResponsePolicy
from repro.utils.logging import EventLog
from repro.utils.validation import check_integer

__all__ = ["SkepticalMonitor"]


@dataclass
class _CheckEntry:
    name: str
    func: Callable[..., CheckResult]
    period: int


class SkepticalMonitor:
    """Periodic invariant checking with a configurable response policy.

    Parameters
    ----------
    policy:
        The :class:`~repro.skeptical.policies.ResponsePolicy` invoked on
        the first failed check of an observation (default: abort).
    log:
        Optional shared event log.

    Examples
    --------
    >>> from repro.skeptical.checks import finite_check
    >>> monitor = SkepticalMonitor()
    >>> monitor.add_check("finite", lambda state: finite_check(state["x"]))
    >>> import numpy as np
    >>> outcome = monitor.observe({"x": np.ones(4)})
    >>> outcome is None   # all checks passed
    True
    """

    def __init__(self, policy: Optional[ResponsePolicy] = None, log: Optional[EventLog] = None):
        self.policy = policy if policy is not None else AbortPolicy()
        self.log = log if log is not None else EventLog()
        self._checks: List[_CheckEntry] = []
        self._observation_count = 0
        self.results: List[CheckResult] = []
        self.detections: List[CheckResult] = []
        self.actions: List[str] = []
        self.total_check_flops = 0.0

    # ------------------------------------------------------------------
    def add_check(
        self,
        name: str,
        func: Callable[[dict], CheckResult],
        *,
        period: int = 1,
    ) -> None:
        """Register a check.

        Parameters
        ----------
        name:
            Identifier used in reports.
        func:
            Callable receiving the observation's state dictionary and
            returning a :class:`CheckResult`.
        period:
            Run the check only every ``period`` observations -- the
            knob that trades detection latency against overhead (the
            E1 ablation sweeps it).
        """
        check_integer(period, "period")
        if period <= 0:
            raise ValueError("period must be positive")
        self._checks.append(_CheckEntry(name=name, func=func, period=period))

    @property
    def n_checks(self) -> int:
        """Number of registered checks."""
        return len(self._checks)

    @property
    def n_detections(self) -> int:
        """Number of failed check evaluations so far."""
        return len(self.detections)

    @property
    def detected(self) -> bool:
        """Whether any check has failed so far."""
        return bool(self.detections)

    # ------------------------------------------------------------------
    def observe(self, state: dict) -> Optional[str]:
        """Run the due checks against ``state``.

        Returns ``None`` when everything passed, otherwise the action
        string returned by the policy (``"rollback"`` / ``"continue"``).
        The abort policy raises
        :class:`~repro.skeptical.policies.SkepticalAbort` instead of
        returning.
        """
        self._observation_count += 1
        count = self._observation_count
        action: Optional[str] = None
        results = self.results
        for entry in self._checks:
            if count % entry.period:
                continue
            result = entry.func(state)
            if not isinstance(result, CheckResult):
                raise TypeError(f"check '{entry.name}' must return a CheckResult")
            results.append(result)
            self.total_check_flops += result.cost_flops
            if result.passed:
                continue
            self.detections.append(result)
            self.log.record(
                "check_failed",
                check=result.name,
                measure=result.measure,
                threshold=result.threshold,
                observation=count,
            )
            if action is None:
                action = self.policy.handle(result, context=state)
                self.actions.append(action)
        return action

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Aggregate statistics for experiment tables."""
        return {
            "observations": float(self._observation_count),
            "checks_run": float(len(self.results)),
            "detections": float(len(self.detections)),
            "check_flops": float(self.total_check_flops),
        }

    def reset(self) -> None:
        """Clear all recorded results (checks stay registered)."""
        self._observation_count = 0
        self.results.clear()
        self.detections.clear()
        self.actions.clear()
        self.total_check_flops = 0.0
