"""Shared state and virtual clocks of the simulated runtime (internal).

One :class:`RuntimeState` instance is shared by all rank threads of a
:class:`~repro.comm.sim.SimRuntime`.  It owns the single lock /
condition variable protecting mailboxes, collective slots and the
alive/dead sets.  All blocking waits go through
:meth:`RuntimeState.wait_for`, which decides deadlock from that state:
once every live rank is blocked and none can proceed, every blocked
rank raises, so a mismatched simulated program fails at once instead
of hanging.

Every simulated rank owns a :class:`VirtualClock`.  Compute intervals
and message/collective costs advance it; synchronizing operations set
it to the maximum over the participants.  All performance results of
the toolkit are read off these clocks (never the wall clock), which is
what makes the experiments deterministic and machine-parameterized.
"""

from __future__ import annotations

import math
import threading
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.comm.base import operation_label
from repro.comm.errors import SimDeadlockError
from repro.utils.logging import EventLog
from repro.utils.validation import check_non_negative

__all__ = ["RuntimeState", "CollectiveSlot", "VirtualClock"]

MailboxKey = Tuple[int, int, int, int]  # (epoch, src, dest, tag)
CollectiveKey = Tuple[int, int]  # (epoch, sequence)


@dataclass
class CollectiveSlot:
    """Book-keeping for one collective operation instance."""

    kind: str
    key: CollectiveKey
    n_expected: int
    contributions: Dict[int, Any] = field(default_factory=dict)
    arrival_times: Dict[int, float] = field(default_factory=dict)
    done: bool = False
    failed: bool = False
    failed_ranks: Set[int] = field(default_factory=set)
    #: What completing the collective raised, if it did (a poisoned slot).
    error: Optional[BaseException] = None
    #: Per-rank results, ``{rank: result}``, once the collective is done.
    results: Optional[Dict[int, Any]] = None
    completion_time: float = 0.0

    def missing(self) -> List[int]:
        """Ranks expected but not yet arrived."""
        return [r for r in range(self.n_expected) if r not in self.contributions]


class RuntimeState:
    """All mutable state shared between simulated ranks."""

    def __init__(self, n_ranks: int):
        self.n_ranks = int(n_ranks)
        self.condition = threading.Condition()
        self.alive: Set[int] = set(range(n_ranks))
        self.dead: Set[int] = set()
        self.mailboxes: Dict[MailboxKey, deque] = defaultdict(deque)
        self.collectives: Dict[CollectiveKey, CollectiveSlot] = {}
        self.consumed_failures: Set[Tuple[int, float]] = set()
        self.death_times: Dict[int, float] = {}
        self.revoked_epochs: Set[int] = set()
        # Ranks whose thread has returned (this incarnation will never
        # communicate again) and the highest epoch each rank has
        # entered.  Together with the dead set these define
        # may_still_operate(), the *deterministic* liveness predicate
        # blocked operations resolve against.
        self.terminated: Set[int] = set()
        self.rank_epochs: Dict[int, int] = {}
        # Deadlock (see wait_for): ranks alive and not terminated, each
        # blocked rank's (predicate, operation key), and verdicts not yet raised.
        self.live = self.n_ranks
        self.blocked: Dict[int, Tuple[Callable[[], bool], Tuple]] = {}
        self.deadlocked: Dict[int, Dict[int, str]] = {}
        self.log = EventLog()

    def revoke_epoch(self, epoch: int, *, rank: int, time: float) -> None:
        """Record an ULFM-style revoke of ``epoch``, once per epoch.

        Revocation is an *event marker*, not an abort trigger: blocked
        operations are failed by the deterministic liveness predicate
        (:meth:`may_still_operate`) -- a rank is gone for an epoch once
        it has died, returned, or advanced to a newer epoch, all of
        which are facts of virtual program order.  Aborting on the
        revoked flag itself would race against messages and collective
        contributions the revoked epoch is still (virtually) owed:
        whether a peer's thread had wall-clock-executed a pre-failure
        send when the flag went up must never change an outcome.
        """
        with self.condition:
            if epoch not in self.revoked_epochs:
                self.revoked_epochs.add(int(epoch))
                self.log.record("epoch_revoked", time=time, rank=rank, epoch=int(epoch))

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------
    def mark_dead(self, rank: int, time: float) -> None:
        """Record the death of a (running, so live) rank and wake all waiters."""
        with self.condition:
            self.live -= 1
            self.alive.discard(rank)
            self.dead.add(rank)
            self.death_times[rank] = time
            self.log.record("rank_death", time=time, rank=rank)
            self._prune_collectives()
            self.condition.notify_all()

    def mark_alive(self, rank: int, time: float) -> None:
        """Record that a (replacement) rank has joined."""
        with self.condition:
            self.live += 1
            self.dead.discard(rank)
            self.terminated.discard(rank)
            self.alive.add(rank)
            self.log.record("rank_respawn", time=time, rank=rank)
            self.condition.notify_all()

    def mark_terminated(self, rank: int) -> None:
        """Record that a rank's thread returned (no further communication)."""
        with self.condition:
            self.live -= rank in self.alive  # a dead rank already left the count
            self.terminated.add(rank)
            self._prune_collectives()
            self.condition.notify_all()

    def enter_epoch(self, rank: int, epoch: int) -> None:
        """Record that ``rank`` advanced to ``epoch``.

        Operations of older epochs blocked on this rank resolve as
        failed: the rank will never again send or contribute there.
        """
        with self.condition:
            if epoch > self.rank_epochs.get(rank, 0):
                self.rank_epochs[rank] = int(epoch)
            self._prune_collectives()
            self.condition.notify_all()

    def may_still_operate(self, rank: int, epoch: int) -> bool:
        """Whether ``rank`` may still send/contribute in ``epoch``.

        False once the rank has died, returned from its program, or
        advanced past ``epoch``.  All three are facts of virtual
        program order, so operations that block until this predicate
        flips (or until the awaited message/contribution arrives) have
        outcomes independent of wall-clock thread interleaving -- the
        property the golden regression tests pin.  Caller must hold the
        lock (or tolerate a stale read inside a wait loop).
        """
        return (
            rank not in self.dead
            and rank not in self.terminated
            and self.rank_epochs.get(rank, 0) <= epoch
        )

    # ------------------------------------------------------------------
    # Blocking helper
    # ------------------------------------------------------------------
    def wait_for(
        self,
        predicate: Callable[[], bool],
        *,
        rank: int,
        operation: Tuple,
    ) -> None:
        """Block until ``predicate()`` is true (caller must hold the lock).

        A rank that cannot proceed registers ``predicate`` (evaluated
        with the lock held) and ``operation``, the arguments of
        :func:`~repro.comm.base.operation_label`.  Only live ranks change
        this state, and each change notifies, so once every live rank is
        blocked and no blocked predicate holds, none ever will: each
        blocked rank then raises :class:`SimDeadlockError` naming every
        blocked operation.  The verdict is read before the predicate: the
        first rank to raise leaves the job, which would otherwise resolve
        its peers' waits as a failed rank.
        """
        if predicate():
            return
        blocked = self.blocked
        blocked[rank] = (predicate, operation)
        try:
            while True:
                if len(blocked) == self.live and not any(
                    waiting() for waiting, _ in blocked.values()
                ):
                    cycle = {r: operation_label(*op) for r, (_, op) in blocked.items()}
                    self.deadlocked.update(dict.fromkeys(cycle, cycle))
                    self.condition.notify_all()
                else:
                    self.condition.wait()
                if rank in self.deadlocked:
                    cycle = self.deadlocked.pop(rank)
                    raise SimDeadlockError(rank, cycle[rank], cycle)
                if predicate():
                    return
        finally:
            del blocked[rank]

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def collective_slot(self, key: CollectiveKey, kind: str) -> CollectiveSlot:
        """Return (creating if needed) the slot for collective ``key``.

        Slots are looked up by *arriving* ranks only (a rank that has
        posted holds its slot), so the last arrival drops the entry and
        :meth:`_prune_collectives` drops the ones that will never see it.
        Every rank of the communicator is expected to participate
        (MPI semantics: membership is fixed at communicator creation),
        so a collective involving a dead member fails for the survivors
        rather than silently completing without it.  Caller must hold
        the lock.
        """
        slot = self.collectives.get(key)
        if slot is None:
            slot = CollectiveSlot(kind, key, self.n_ranks)
            self.collectives[key] = slot
        else:
            if slot.kind != kind:
                raise RuntimeError(
                    f"collective mismatch at {key}: {slot.kind} vs {kind} "
                    "(ranks called different collectives in the same order slot)"
                )
        return slot

    def _prune_collectives(self) -> None:
        """Drop the slots no missing rank can still arrive at (lock held).

        Runs on every liveness change (a rank died, returned or left the
        epoch); only collectives in flight are listed, so the scan is short.
        """
        for key, slot in list(self.collectives.items()):
            if not any(self.may_still_operate(r, key[0]) for r in slot.missing()):
                del self.collectives[key]


class VirtualClock:
    """A monotonically non-decreasing virtual clock (seconds)."""

    def __init__(self, start: float = 0.0):
        check_non_negative(start, "start")
        self._now = float(start)
        self._busy = 0.0
        self._idle = 0.0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def busy_time(self) -> float:
        """Accumulated time attributed to useful work (``advance``)."""
        return self._busy

    @property
    def idle_time(self) -> float:
        """Accumulated time spent waiting for others (``wait_until``)."""
        return self._idle

    def advance(self, seconds: float) -> float:
        """Advance the clock by a busy interval and return the new time."""
        if not 0.0 <= seconds < math.inf:  # NaN fails it too; the helper raises
            check_non_negative(seconds, "seconds")
        self._now += seconds
        self._busy += seconds
        return self._now

    def wait_until(self, time: float) -> None:
        """Advance the clock to ``time`` if that is in the future.

        The skipped interval is attributed to idle (synchronization)
        time.
        """
        if time > self._now:
            self._idle += time - self._now
            self._now = time
