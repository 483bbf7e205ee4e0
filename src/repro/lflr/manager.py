"""The LFLR recovery manager.

:class:`LFLRManager` implements, on top of the simulated runtime's
ULFM-style primitives, the protocol a real LFLR library would run when
a process failure is detected:

1. every survivor that sees a
   :class:`~repro.comm.errors.RankFailedError` calls
   :meth:`LFLRManager.recover`;
2. survivors advance to a new communication epoch (the analogue of
   ULFM's revoke + shrink + spawn + merge sequence);
3. the *designated* survivor (lowest alive rank) respawns every dead
   rank, running the registered recovery function in the replacement;
4. the designated survivor notifies the other survivors point-to-point
   (so nobody races ahead of the respawn), after which all ranks --
   survivors and replacements -- meet in a barrier in the new epoch;
5. the application then agrees on a resume point (for the PDE drivers:
   an allreduce of the minimum persisted step) and continues.

Only steps 1-4 live here; step 5 is application logic (see
:mod:`repro.lflr.explicit`) because what "resume" means depends on the
algorithm -- exactly the division of labour the paper's LFLR model
prescribes (the system restores the process and its persistent data,
the application restores its own semantics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.comm.errors import RankFailedError
from repro.comm.sim import Comm, SimRuntime
from repro.utils.logging import EventLog

__all__ = ["RecoveryOutcome", "LFLRManager"]

_RECOVERY_NOTIFY_TAG = 250


@dataclass
class RecoveryOutcome:
    """What a call to :meth:`LFLRManager.recover` accomplished.

    Attributes
    ----------
    failed_ranks:
        The ranks that were found dead and respawned.
    new_epoch:
        The communication epoch in effect after recovery.
    recovery_start / recovery_end:
        Virtual times bracketing this rank's participation in the
        recovery protocol (their difference is the recovery overhead
        reported by experiment E4).
    """

    failed_ranks: List[int]
    new_epoch: int
    recovery_start: float
    recovery_end: float

    @property
    def recovery_time(self) -> float:
        """Virtual seconds this rank spent in recovery."""
        return max(self.recovery_end - self.recovery_start, 0.0)


class LFLRManager:
    """Per-rank LFLR coordination object.

    Parameters
    ----------
    comm:
        This rank's communicator.
    runtime:
        The owning :class:`~repro.comm.sim.SimRuntime` (needed to
        respawn replacement ranks).
    recovery_entry:
        Callable run *as* the replacement rank:
        ``recovery_entry(comm, context)`` where ``context`` is the
        dictionary passed to :meth:`recover` (the application places
        whatever the replacement needs in it -- problem parameters,
        the failure plan, etc.).  It must begin by calling
        :meth:`join_as_replacement` so the replacement synchronizes
        with the survivors.
    log:
        Shared event log.
    """

    def __init__(
        self,
        comm: Comm,
        runtime: SimRuntime,
        recovery_entry: Optional[Callable[..., Any]] = None,
        log: Optional[EventLog] = None,
    ):
        self.comm = comm
        self.runtime = runtime
        self.recovery_entry = recovery_entry
        self.log = log if log is not None else comm.log
        self.recoveries: List[RecoveryOutcome] = []

    # ------------------------------------------------------------------
    def register_recovery(self, recovery_entry: Callable[..., Any]) -> None:
        """Register (or replace) the recovery function."""
        self.recovery_entry = recovery_entry

    @property
    def n_recoveries(self) -> int:
        """Number of recoveries this rank has participated in."""
        return len(self.recoveries)

    # ------------------------------------------------------------------
    def recover(
        self,
        error: RankFailedError,
        context: Optional[Dict[str, Any]] = None,
    ) -> RecoveryOutcome:
        """Survivor-side recovery protocol.

        Must be called by every surviving rank after catching a
        :class:`~repro.comm.errors.RankFailedError`; returns once the
        replacement ranks are alive and reachable in the new epoch.
        """
        if self.recovery_entry is None:
            raise RuntimeError("no recovery function registered")
        start = self.comm.now()
        # Revoke the failed epoch first so survivors still blocked in
        # pre-failure communication are interrupted rather than deadlocked.
        self.comm.revoke()
        new_epoch = self.comm.epoch + 1
        self.comm.advance_epoch(new_epoch)
        # The authoritative dead set is the runtime's, which may exceed
        # what this particular error reported.
        dead = sorted(set(self.comm.dead_ranks()) | set(error.failed_ranks))
        # The designated survivor must be computed identically by every
        # survivor even though they reach this point at different wall
        # times (a late survivor may already see the replacements alive):
        # use "lowest rank that has never died", falling back to the
        # lowest current survivor.
        ever_failed = set(self.runtime.state.death_times)
        candidates = [r for r in range(self.comm.size) if r not in ever_failed]
        survivors = [r for r in range(self.comm.size) if r not in dead]
        designated = min(candidates) if candidates else min(survivors)
        if self.comm.rank == designated:
            # Born-at is the designated survivor's own (virtual)
            # detection time plus the respawn latency -- a deterministic
            # quantity, unlike the live clocks of the other survivors,
            # which depend on wall-clock thread interleaving.
            born_at = start + self.comm.machine.local_recovery_overhead
            for rank in dead:
                self.runtime.respawn(
                    rank,
                    self._replacement_main,
                    new_epoch,
                    dict(context or {}),
                    born_at=born_at,
                )
            for rank in survivors:
                if rank != designated:
                    self.comm.send(
                        {"failed": dead, "epoch": new_epoch},
                        dest=rank,
                        tag=_RECOVERY_NOTIFY_TAG,
                    )
        else:
            notice = self.comm.recv(source=designated, tag=_RECOVERY_NOTIFY_TAG)
            dead = list(notice["failed"])
        # Model the respawn/connection-re-establishment latency.
        self.comm.advance(self.comm.machine.local_recovery_overhead)
        self.comm.barrier()
        end = self.comm.now()
        outcome = RecoveryOutcome(
            failed_ranks=list(dead),
            new_epoch=new_epoch,
            recovery_start=start,
            recovery_end=end,
        )
        self.recoveries.append(outcome)
        self.log.record(
            "lflr_recovery",
            time=end,
            rank=self.comm.rank,
            failed=list(dead),
            epoch=new_epoch,
        )
        return outcome

    # ------------------------------------------------------------------
    def _replacement_main(self, comm: Comm, new_epoch: int, context: Dict[str, Any]):
        """Entry point of a respawned rank (runs in the new thread)."""
        if self.recovery_entry is None:  # pragma: no cover - guarded in recover()
            raise RuntimeError("no recovery function registered")
        return self.recovery_entry(comm, new_epoch, context)

    @staticmethod
    def join_as_replacement(comm: Comm, new_epoch: int) -> None:
        """First call a replacement rank must make.

        Advances the replacement to the recovery epoch and joins the
        post-recovery barrier so it is synchronized with the survivors.
        """
        comm.advance_epoch(new_epoch)
        comm.barrier()
