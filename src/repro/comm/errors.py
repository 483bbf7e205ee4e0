"""Communicator errors, one hierarchy for every backend.

The failure-notification design follows ULFM: a process failure is not
delivered asynchronously; instead, any communication operation that
*depends on* a failed process raises :class:`RankFailedError` in the
surviving callers.  Every backend reports the same conditions through
the same types, so recovery layers and the conformance suite are
backend-agnostic:

* :class:`ProcFailure` -- an operation depended on a rank that is gone.
  It *is* :class:`RankFailedError`: survivors of a simulated hard fault
  and survivors of a SIGKILLed shmem rank catch exactly this type.
* :class:`SimDeadlockError` -- the simulator saw every live rank
  blocked with none able to proceed.
* :class:`CommTimeoutError` -- a bounded wait expired with no progress.
  It subclasses :class:`SimDeadlockError`, so "deadlock-freedom" is one
  assertion on every backend: the operation raises, it never hangs.
* :class:`ProcessDeathError` -- raised *inside* a simulated rank when
  its scheduled hard fault strikes; the runtime wrapper catches it to
  mark the rank dead (application code normally never sees it).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional

__all__ = [
    "CommTimeoutError",
    "InvalidRankError",
    "ProcFailure",
    "ProcessDeathError",
    "RankFailedError",
    "SimDeadlockError",
    "SimMpiError",
]


class SimMpiError(RuntimeError):
    """Base class of all communicator errors."""


class InvalidRankError(SimMpiError, ValueError):
    """A rank argument is outside ``[0, size)`` or otherwise invalid."""


class ProcessDeathError(SimMpiError):
    """Raised *inside* a simulated rank when its scheduled hard fault strikes.

    Application code should not catch this: the runtime wrapper uses it
    to terminate the rank's thread and mark the rank dead.  Catching it
    would amount to a process surviving its own crash.
    """

    def __init__(self, rank: int, time: float):
        super().__init__(f"rank {rank} suffered a hard fault at t={time:.6g}s")
        self.rank = rank
        self.time = time


class RankFailedError(SimMpiError):
    """Raised in survivors when communication involves failed rank(s).

    Mirrors ULFM's ``MPI_ERR_PROC_FAILED``: the operation did not
    complete, and the set of ranks known to have failed is attached so
    the recovery layer (e.g. :class:`repro.lflr.manager.LFLRManager`)
    can decide what to do.
    """

    def __init__(self, failed_ranks: Iterable[int], operation: str = "communication",
                 detected_at: Optional[float] = None):
        failed = frozenset(int(r) for r in failed_ranks)
        ranks_str = ", ".join(str(r) for r in sorted(failed))
        super().__init__(
            f"{operation} failed because rank(s) {{{ranks_str}}} are dead"
        )
        self.failed_ranks: FrozenSet[int] = failed
        self.operation = operation
        self.detected_at = detected_at

    def __reduce__(self):
        # BaseException pickles via self.args (the formatted message),
        # which does not match this constructor; rebuild from the real
        # fields so the error survives a process boundary (the shmem
        # backend ships rank outcomes through its channels).
        return (
            type(self),
            (sorted(self.failed_ranks), self.operation, self.detected_at),
        )


#: The backend-neutral name for "a rank this operation depends on is
#: dead".
ProcFailure = RankFailedError


class SimDeadlockError(SimMpiError):
    """Every live rank is blocked and none can proceed: a deadlock.

    Raised by the simulator in each blocked rank; ``blocked`` maps every
    blocked rank to its operation.  A bug in the simulated program
    (mismatched sends/receives or collectives), not a modeled fault.
    """

    def __init__(self, rank: int, operation: str, blocked: Mapping[int, str]):
        self.rank, self.operation, self.blocked = rank, operation, dict(blocked)
        waits = "; ".join(f"rank {r} in {op}" for r, op in sorted(self.blocked.items()))
        super().__init__(
            f"rank {rank} deadlocked in {operation}: every live rank is blocked "
            f"({waits}); mismatched communication in the simulated program"
        )

    def __reduce__(self):
        # See RankFailedError.__reduce__.
        return (type(self), (self.rank, self.operation, self.blocked))


class CommTimeoutError(SimDeadlockError):
    """A bounded communicator wait expired without completing.

    Raised by the shared-memory backend when a blocking receive or a
    collective exceeds its deadline (mismatched communication in the
    program, or a peer wedged without dying).  ``blocked`` holds the one
    wait this rank knows of.
    """

    def __init__(self, rank: int, operation: str, waited: float):
        self.rank, self.operation, self.waited = rank, operation, waited
        self.blocked = {rank: operation}
        SimMpiError.__init__(
            self,
            f"rank {rank} waited {waited:.1f}s of wall-clock time in {operation}; "
            "likely mismatched communication in the program",
        )

    def __reduce__(self):
        return (type(self), (self.rank, self.operation, self.waited))
