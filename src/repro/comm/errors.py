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
* :class:`CommTimeoutError` -- a bounded wait expired with no progress.
  It subclasses :class:`SimDeadlockError` (the simulator's watchdog
  verdict), so "deadlock-freedom under timeout" is one assertion on
  every backend: the operation raises, it never hangs.
* :class:`ProcessDeathError` -- raised *inside* a simulated rank when
  its scheduled hard fault strikes; the runtime wrapper catches it to
  mark the rank dead (application code normally never sees it).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional

__all__ = [
    "BackendUnavailableError",
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
    """The runtime's wall-clock watchdog expired while a rank was waiting.

    Indicates a bug in the simulated program (mismatched sends/receives
    or collectives) rather than a modeled fault; raised so the test
    suite fails fast instead of hanging.
    """

    def __init__(self, rank: int, operation: str, waited: float):
        super().__init__(
            f"rank {rank} waited {waited:.1f}s of wall-clock time in {operation}; "
            "likely mismatched communication in the simulated program"
        )
        self.rank = rank
        self.operation = operation
        self.waited = waited

    def __reduce__(self):
        # See RankFailedError.__reduce__; type(self) keeps subclasses
        # (CommTimeoutError) pickling as themselves.
        return (type(self), (self.rank, self.operation, self.waited))


class CommTimeoutError(SimDeadlockError):
    """A bounded communicator wait expired without completing.

    Raised by the shared-memory backend when a blocking receive or a
    collective exceeds its deadline (mismatched communication in the
    program, or a peer wedged without dying).
    """


class BackendUnavailableError(SimMpiError):
    """A registered backend cannot run in this environment.

    The registry keeps the entry visible (so listings and specs stay
    stable across machines) but :meth:`launch` fails loudly, e.g. the
    ``mpi4py`` backend on a machine without the package installed.
    """

    def __init__(self, name: str, reason: str):
        super().__init__(f"communicator backend {name!r} unavailable: {reason}")
        self.name = name
        self.reason = reason
