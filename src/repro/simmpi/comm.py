"""The simulated communicator.

Each rank thread is handed one :class:`Comm` instance; all interaction
between ranks goes through it.  It is a
:class:`~repro.comm.base.BaseCommunicator`: the collective forms, the
rank checks, the completion rule and the cost rule are the front end's,
and this module supplies the simulated transport:

* virtual time (:meth:`Comm.advance`, and ``compute`` through it)
  driven by the machine model;
* MPI-3 style non-blocking collectives whose latency overlapped work
  hides, used by the RBSP / pipelined-Krylov algorithms;
* ULFM-style failure reporting: any operation that depends on a dead
  rank raises :class:`~repro.comm.errors.RankFailedError`;
* :meth:`Comm.advance_epoch`, the communicator-repair step executed by
  every participant after a recovery so that subsequent collectives
  match again (ULFM ``shrink``/agree analogue).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from repro.comm.base import (
    BaseCommunicator,
    complete_collective,
    copy_payload,
    payload_nbytes,
    portable_error,
)
from repro.comm.errors import ProcessDeathError, RankFailedError
from repro.comm.ops import ReduceOp
from repro.comm.requests import Request
from repro.machine.model import MachineModel
from repro.simmpi.clock import VirtualClock
from repro.simmpi.state import CollectiveSlot, RuntimeState

__all__ = ["Comm"]


class Comm(BaseCommunicator):
    """Simulated communicator bound to one rank.

    Instances are created by :class:`~repro.simmpi.runtime.SimRuntime`;
    user code receives them as the first argument of the SPMD function.

    Parameters
    ----------
    state:
        Shared runtime state.
    rank:
        This rank's id in ``[0, size)``.
    machine:
        Machine model used for virtual-time accounting.
    failure_times:
        Sorted virtual times at which this rank is scheduled to die.
    born_at:
        Virtual time at which this incarnation of the rank started
        (non-zero for respawned ranks).
    message_corruptor:
        Optional callable ``(payload, dest, tag) -> payload`` applied
        to the already-copied payload of every point-to-point send --
        the runtime's hook for declarative message-corruption fault
        models (``"msg_corrupt:p=..."``).  It runs in the sender's
        thread in program order, so corruption stays a deterministic
        function of the per-rank fault stream.
    """

    def __init__(
        self,
        state: RuntimeState,
        rank: int,
        machine: MachineModel,
        failure_times: Sequence[float] = (),
        born_at: float = 0.0,
        message_corruptor: Optional[Callable[[Any, int, int], Any]] = None,
    ):
        self._state = state
        self._rank = int(rank)
        self._machine = machine
        # Only the failures this incarnation can still meet: a respawned
        # rank is past everything scheduled before its birth.
        self._failure_times = sorted(
            float(t) for t in failure_times if float(t) >= born_at
        )
        self._message_corruptor = message_corruptor
        self.clock = VirtualClock(born_at)
        self._epoch = 0
        self._seq = 0

    def _outgoing_payload(self, obj: Any, dest: int, tag: int) -> Any:
        """Copy (and possibly corrupt) a payload entering the network."""
        payload = copy_payload(obj)
        if self._message_corruptor is not None:
            payload = self._message_corruptor(payload, dest, tag)
        return payload

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """This process's rank."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks the communicator was created with."""
        return self._state.n_ranks

    @property
    def epoch(self) -> int:
        """Current communication epoch (bumped by recovery)."""
        return self._epoch

    @property
    def log(self):
        """The shared runtime event log."""
        return self._state.log

    def alive_ranks(self) -> List[int]:
        """Sorted list of ranks currently alive."""
        with self._state.condition:
            return sorted(self._state.alive)

    def dead_ranks(self) -> List[int]:
        """Sorted list of ranks currently dead."""
        with self._state.condition:
            return sorted(self._state.dead)

    def is_alive(self, rank: int) -> bool:
        """Whether ``rank`` is currently alive."""
        self._check_rank(rank)
        return self._state.is_alive(rank)

    # ------------------------------------------------------------------
    # Virtual time
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Current virtual time of this rank."""
        return self.clock.now

    def advance(self, seconds: float) -> float:
        """Advance this rank's clock by an explicit busy interval.

        A hard fault scheduled to strike *during* the interval manifests
        at its end (the process dies mid-computation), so the failure
        check runs both before and after the clock advance.
        """
        self._check_own_failure()
        now = self.clock.advance(seconds)
        self._check_own_failure()
        return now

    # ------------------------------------------------------------------
    # Failure machinery
    # ------------------------------------------------------------------
    def _check_own_failure(self) -> None:
        """Die if a scheduled hard fault has struck this incarnation."""
        if not self._failure_times:  # the common case, ten times an iteration
            return
        now = self.clock.now
        for t in self._failure_times:
            key = (self._rank, t)
            if key in self._state.consumed_failures:
                continue
            if t <= now:
                with self._state.condition:
                    self._state.consumed_failures.add(key)
                raise ProcessDeathError(self._rank, now)
            break

    def pending_failure_time(self) -> Optional[float]:
        """Next scheduled (unconsumed) failure time of this incarnation."""
        for t in self._failure_times:
            if (self._rank, t) not in self._state.consumed_failures:
                return t
        return None

    def revoke(self) -> None:
        """Revoke the current epoch (ULFM ``MPI_Comm_revoke`` analogue).

        Records the revocation event and wakes every blocked rank so
        failure propagation is prompt in wall-clock terms.  The actual
        *failing* of pending operations is driven by the deterministic
        liveness predicate
        (:meth:`~repro.simmpi.state.RuntimeState.may_still_operate`):
        a blocked receive or collective fails once the awaited rank has
        died, returned, or advanced past this epoch -- never merely
        because the revoked flag went up, which would race against
        messages the epoch is still (virtually) owed.  Recovery
        protocols call this before advancing to a new epoch; it is the
        epoch advance that marks this rank gone for the old epoch.
        """
        self._state.revoke_epoch(self._epoch, rank=self._rank, time=self.clock.now)

    def advance_epoch(self, epoch: Optional[int] = None) -> int:
        """Re-establish collective matching after a repair.

        Every surviving and respawned rank must call this with the same
        ``epoch`` value (or ``None`` to simply increment); afterwards
        collectives are matched afresh, independent of how many
        collectives each rank had executed before the failure.
        """
        if epoch is None:
            epoch = self._epoch + 1
        epoch = int(epoch)
        if epoch <= self._epoch:
            raise ValueError(
                f"epoch must increase (current {self._epoch}, requested {epoch})"
            )
        self._epoch = epoch
        self._seq = 0
        # Publish the advance: operations of older epochs blocked on
        # this rank now resolve as failed (see state.may_still_operate).
        self._state.enter_epoch(self._rank, epoch)
        return self._epoch

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking (buffered) send.

        A buffered send never detects the death of its destination:
        the payload is accepted by the "network" (the mailbox) and the
        sender moves on, exactly like an eager-protocol MPI send.
        Failures surface at the operations that genuinely depend on the
        peer -- receives and collectives -- whose outcomes are pure
        functions of virtual time.  (Checking the wall-clock ``dead``
        set here would make the outcome depend on whether the doomed
        rank's *thread* happened to have reached its death yet -- the
        simulation would stop being deterministic.)
        """
        self._check_peer(dest, "send to")
        nbytes = payload_nbytes(obj)
        cost = self._machine.message_time(nbytes)
        with self._state.condition:
            send_time = self.clock.now
            available = send_time + cost
            box = self._state.mailbox((self._epoch, self._rank, dest, int(tag)))
            box.append((self._outgoing_payload(obj, dest, int(tag)), available))
            self._state.condition.notify_all()
        # Sender pays the message cost (eager protocol).
        self.clock.advance(cost)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send; the payload is buffered immediately.

        The sender does not pay the transmission time until the request
        is waited on, modelling send/compute overlap.
        """
        self._check_peer(dest, "send to")
        nbytes = payload_nbytes(obj)
        cost = self._machine.message_time(nbytes)
        with self._state.condition:
            # Buffered like send(): never detects peer death (see there).
            send_time = self.clock.now
            available = send_time + cost
            box = self._state.mailbox((self._epoch, self._rank, dest, int(tag)))
            box.append((self._outgoing_payload(obj, dest, int(tag)), available))
            self._state.condition.notify_all()
        latency = self._machine.latency

        def _complete(_req: Request) -> None:
            # By wait time the transfer proceeded in the background; the
            # sender only pays the injection latency if it has not
            # already moved past it.
            self.clock.wait_until(send_time + latency)
            return None

        return Request(_complete, operation="isend")

    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive from ``source``.

        Fails (:class:`RankFailedError`) only when the mailbox is empty
        *and* the source can no longer send in this epoch -- it died,
        returned, or advanced to a newer epoch.  A source that is
        merely lagging in wall-clock terms is waited for, so whether an
        in-flight pre-failure message is received never depends on
        thread interleaving.
        """
        self._check_peer(source, "recv from")
        key = (self._epoch, source, self._rank, int(tag))
        with self._state.condition:
            box = self._state.mailbox(key)

            def ready() -> bool:
                return bool(box) or not self._state.may_still_operate(
                    source, self._epoch
                )

            self._state.wait_for(ready, rank=self._rank, operation=f"recv(src={source})")
            if not box:
                if source in self._state.dead:
                    raise RankFailedError(
                        [source], "recv", detected_at=self.clock.now
                    )
                # The source is alive but finished with this epoch
                # (returned or moved on during recovery).  Report no
                # failed ranks: naming the living source would invite a
                # recovery layer to respawn it, and snapshotting the
                # wall-clock dead set would make the payload depend on
                # thread interleaving.  Recovery protocols read the
                # authoritative dead set themselves (dead_ranks()).
                raise RankFailedError(
                    frozenset(),
                    f"recv (source rank {source} departed the epoch)",
                    detected_at=self.clock.now,
                )
            payload, available = box.popleft()
        self.clock.wait_until(available)
        return payload

    def irecv(self, source: int, tag: int = 0) -> Request:
        """Non-blocking receive; completion happens at :meth:`Request.wait`."""
        self._check_peer(source, "recv from")

        def _complete(_req: Request) -> Any:
            return self.recv(source, tag)

        return Request(_complete, operation="irecv")

    # ------------------------------------------------------------------
    # Collectives (the front end's forms over a post/complete core)
    # ------------------------------------------------------------------
    def _post_collective(
        self,
        kind: str,
        value: Any,
        op: Optional[ReduceOp] = None,
        root: Optional[int] = None,
    ) -> CollectiveSlot:
        """Post this rank's contribution and return the collective's slot.

        The last contribution completes the collective.  If completing
        *raises* (too few scatter chunks, mismatched reduction shapes)
        the slot is poisoned: the error is raised here and every other
        participant raises a copy of it from its completion.
        """
        self._check_own_failure()
        key = (self._epoch, self._seq)
        self._seq += 1
        arrive = self.clock.now
        state = self._state
        with state.condition:
            slot = state.collective_slot(key, kind)
            slot.contributions[self._rank] = copy_payload(value)
            slot.arrival_times[self._rank] = arrive
            if len(slot.contributions) == slot.n_expected:
                # Nobody is left to look the slot up, and a waiter's
                # predicate can only flip now (or on a liveness change,
                # which notifies by itself).
                del state.collectives[key]
                state.condition.notify_all()
                try:
                    slot.results = complete_collective(
                        kind, slot.contributions, op, root
                    )
                except Exception as exc:
                    slot.failed, slot.error = True, exc
                    raise
                cost = self._collective_cost(kind, slot.contributions)
                slot.completion_time = max(slot.arrival_times.values()) + cost
                slot.done = True
        return slot

    def _collective_resolved(self, slot: CollectiveSlot) -> bool:
        """Wait predicate of a posted collective (lock held)."""
        if slot.done or slot.failed:
            return True
        # The collective fails once some expected rank can no longer
        # contribute in this epoch (died, returned, or advanced during
        # recovery).  A rank that is merely lagging in wall-clock terms
        # is waited for -- its (virtual) contribution must count no
        # matter how the threads interleave.
        state = self._state
        gone = [
            r for r in slot.missing() if not state.may_still_operate(r, self._epoch)
        ]
        if gone:
            slot.failed = True
            # Report only actual deaths among the missing ranks; a
            # living-but-departed participant is not failed, and
            # snapshotting the global dead set would be wall-clock
            # dependent.  Recovery layers consult dead_ranks() for the
            # full picture.
            slot.failed_ranks = {r for r in gone if r in state.dead}
        return slot.failed

    def _complete_collective(self, slot: CollectiveSlot) -> Any:
        """Wait for a posted collective and take this rank's result."""
        state, kind = self._state, slot.kind
        with state.condition:
            if not slot.done:  # the last arriver never waits
                state.wait_for(
                    lambda: self._collective_resolved(slot),
                    rank=self._rank,
                    operation=f"{kind}{slot.key}",
                )
            if not slot.done:
                if slot.error is not None:
                    raise portable_error(slot.error, self._rank)
                state.log.record(
                    "collective_failed",
                    time=self.clock.now,
                    rank=self._rank,
                    collective=kind,
                    failed=sorted(slot.failed_ranks),
                )
                raise RankFailedError(
                    slot.failed_ranks, kind, detected_at=self.clock.now
                )
            completion, result = slot.completion_time, slot.results[self._rank]
        self.clock.wait_until(completion)
        if isinstance(result, list):
            return [copy_payload(item) for item in result]
        return copy_payload(result)

    def _collective(self, kind: str, value: Any, op=None, root=None) -> Any:
        """Blocking collective: post, then complete."""
        return self._complete_collective(self._post_collective(kind, value, op, root))

    def _start_collective(self, kind: str, value: Any, op=None, root=None) -> Request:
        """Non-blocking collective: post now, complete at ``wait``."""
        slot = self._post_collective(kind, value, op, root)
        return Request(lambda _req: self._complete_collective(slot), operation=kind)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Comm(rank={self._rank}, size={self.size}, epoch={self._epoch}, "
            f"t={self.clock.now:.6g})"
        )
