"""The deterministic simulated backend (``"sim"``).

The programming models of the paper (RBSP, LFLR, SRP) all presuppose a
message-passing runtime richer than MPI-2: asynchronous collectives
(MPI-3), failure notification and communicator repair (ULFM), and some
notion of persistent per-process storage.  Real machines with those
features are not available here, so this module provides an
**in-process simulation** that preserves the semantics the algorithms
care about:

* SPMD execution: :class:`SimRuntime` creates one thread per rank and
  hands each a :class:`Comm` -- a
  :class:`~repro.comm.base.BaseCommunicator`, whose collective forms,
  rank checks, completion rule and cost rule are the front end's --
  and the rank communicates only through it.
* Virtual time: each rank owns a
  :class:`~repro.comm.simstate.VirtualClock`; compute and communication
  advance it according to a :class:`~repro.machine.model.MachineModel`,
  so performance results are deterministic and machine-parameterized
  rather than wall-clock noise.
* Blocking and non-blocking point-to-point sends, blocking receives
  and the front end's collectives (barrier, broadcast, allreduce,
  allgather and the non-blocking ``iallreduce``); the MPI-3 style
  non-blocking allreduce's latency is hidden by overlapped work, as
  the RBSP / pipelined-Krylov algorithms need.
* Hard-fault injection: a :class:`~repro.reliability.process.FailurePlan`
  kills ranks at prescribed virtual times.  The death surfaces inside
  the affected rank as :class:`~repro.comm.errors.ProcessDeathError`,
  which the runtime catches: the rank is marked dead, its thread exits,
  and surviving ranks observe the failure as a
  :class:`~repro.comm.errors.RankFailedError` raised from their next
  communication involving the dead rank -- the ULFM
  error-on-communication model.
* Recovery primitives: :meth:`SimRuntime.respawn` starts a replacement
  incarnation of a dead rank, typically running a user-registered
  recovery function (see :mod:`repro.lflr`), and
  :meth:`Comm.advance_epoch` re-establishes collective matching after
  a repair, mirroring ULFM's revoke/shrink/spawn cycle.
* Deadlock detection from the runtime's own state: once every live
  rank is blocked and none can proceed, each raises
  :class:`~repro.comm.errors.SimDeadlockError` naming every wait.

:func:`run_spmd` is the backend's launcher under the uniform launch
contract.  The runtime is intended for tens of ranks (tests and
examples use 4--64); large-process scaling results use the analytic
models in :mod:`repro.machine` instead.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.comm.base import (
    BaseCommunicator,
    complete_collective,
    copy_payload,
    operation_label,
    payload_nbytes,
    portable_error,
    resolve_job_faults,
)
from repro.comm.errors import ProcessDeathError, RankFailedError, SimMpiError
from repro.comm.ops import ReduceOp
from repro.comm.requests import Request
from repro.comm.simstate import CollectiveSlot, RuntimeState, VirtualClock
from repro.machine.model import MachineModel
from repro.reliability.process import FailurePlan
from repro.utils.logging import EventLog
from repro.utils.validation import check_integer

__all__ = ["Comm", "SimRuntime", "RankResult", "run_spmd"]


class Comm(BaseCommunicator):
    """Simulated communicator bound to one rank.

    Instances are created by :class:`SimRuntime`;
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
        return rank in self._state.alive  # a set read needs no lock

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

    def revoke(self) -> None:
        """Revoke the current epoch (ULFM ``MPI_Comm_revoke`` analogue).

        Records the revocation event, once per epoch.  The actual
        *failing* of pending operations is driven by the deterministic
        liveness predicate
        (:meth:`~repro.comm.simstate.RuntimeState.may_still_operate`):
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
    def _post(self, obj: Any, dest: int, tag: int) -> float:
        """Buffer a message for ``dest``; return its transmission time.

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
        tag = int(tag)
        cost = self._machine.message_time(payload_nbytes(obj))
        with self._state.condition:
            payload = copy_payload(obj)
            if self._message_corruptor is not None:
                payload = self._message_corruptor(payload, dest, tag)
            box = self._state.mailboxes[self._epoch, self._rank, dest, tag]
            box.append((payload, self.clock.now + cost))
            self._state.condition.notify_all()
        return cost

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking (buffered) send; the sender pays the message time."""
        self.clock.advance(self._post(obj, dest, tag))

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send; the payload is buffered immediately.

        The sender does not pay the transmission time until the request
        is waited on, modelling send/compute overlap.
        """
        send_time = self.clock.now
        self._post(obj, dest, tag)
        latency = self._machine.latency

        def _complete(_req: Request) -> None:
            # By wait time the transfer proceeded in the background; the
            # sender only pays the injection latency if it has not
            # already moved past it.
            self.clock.wait_until(send_time + latency)
            return None

        return Request(_complete)

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
        operation = ("recv", source, int(tag))
        with self._state.condition:
            box = self._state.mailboxes[self._epoch, source, self._rank, int(tag)]

            def ready() -> bool:
                return bool(box) or not self._state.may_still_operate(
                    source, self._epoch
                )

            self._state.wait_for(ready, rank=self._rank, operation=operation)
            if not box:
                # A source alive but finished with this epoch (returned or
                # moved on during recovery) departed: naming it failed would
                # invite a recovery layer to respawn it, and snapshotting the
                # wall-clock dead set would make the payload depend on thread
                # interleaving.  Recovery protocols read dead_ranks() themselves.
                raise RankFailedError({source} & self._state.dead, operation_label(*operation),
                                      detected_at=self.clock.now)
            payload, available = box.popleft()
        self.clock.wait_until(available)
        return payload

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
        *raises* (a reduction over arrays of mismatched shapes)
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
                cost = self._collective_cost(slot.contributions)
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
                    operation=(kind, *slot.key),
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
                raise RankFailedError(slot.failed_ranks, operation_label(kind, *slot.key),
                                      detected_at=self.clock.now)
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
        return Request(lambda _req: self._complete_collective(slot))


@dataclass
class RankResult:
    """Outcome of one rank incarnation.

    Attributes
    ----------
    rank:
        The rank id.
    value:
        Return value of the SPMD/recovery function (``None`` if the
        rank died or raised).
    died:
        Whether this incarnation was terminated by a hard fault.
    death_time:
        Virtual time of the hard fault, if any.
    exception:
        Unhandled exception raised by the rank function (excluding the
        hard-fault mechanism), if any.
    busy_time / idle_time / finish_time:
        Virtual-time accounting read off the rank's clock at exit.
    """

    rank: int
    value: Any = None
    died: bool = False
    death_time: Optional[float] = None
    exception: Optional[BaseException] = None
    busy_time: float = 0.0
    idle_time: float = 0.0
    finish_time: float = 0.0


@dataclass
class _RankThread:
    thread: threading.Thread
    comm: Comm
    result: RankResult


class SimRuntime:
    """Owns the shared state and the rank threads of one simulated job.

    Parameters
    ----------
    n_ranks:
        Number of simulated MPI ranks.
    machine:
        Machine model used for virtual-time accounting (defaults to
        :meth:`MachineModel.ideal`).
    failure_plan:
        Hard-fault plan, a :class:`~repro.reliability.process.FailurePlan`;
        ``None`` means no rank dies unless ``faults`` says so.
    faults:
        Declarative fault spec for the runtime as a whole (registry
        name, compact spec string, dict,
        :class:`~repro.reliability.spec.FaultSpec` or built model),
        resolved through :func:`~repro.comm.base.resolve_job_faults`:
        its ``proc_fail`` component supplies the failure plan (unless
        ``failure_plan`` is given explicitly) and its ``msg_corrupt``
        component corrupts message payloads on the simulated
        interconnect.
    fault_seed:
        Seed of the fault streams spec resolution draws from.
    """

    def __init__(
        self,
        n_ranks: int,
        machine: Optional[MachineModel] = None,
        failure_plan: Optional[FailurePlan] = None,
        *,
        faults=None,
        fault_seed: Optional[int] = None,
    ):
        self.failure_plan, self._corruptor_factory = resolve_job_faults(
            n_ranks, failure_plan, faults, fault_seed
        )
        self.n_ranks = int(n_ranks)
        self.machine = machine if machine is not None else MachineModel.ideal()
        self.state = RuntimeState(self.n_ranks)
        self._threads: Dict[int, _RankThread] = {}
        self._extra_results: List[RankResult] = []
        self._started = False

    # ------------------------------------------------------------------
    @property
    def log(self) -> EventLog:
        """Shared event log (rank deaths, respawns, collective failures)."""
        return self.state.log

    def _failure_times_for(self, rank: int) -> List[float]:
        return [f.time for f in self.failure_plan.failures_for_rank(rank)]

    def _make_comm(self, rank: int, born_at: float = 0.0) -> Comm:
        corruptor = (
            self._corruptor_factory(rank)
            if self._corruptor_factory is not None
            else None
        )
        return Comm(
            self.state,
            rank,
            self.machine,
            failure_times=self._failure_times_for(rank),
            born_at=born_at,
            message_corruptor=corruptor,
        )

    def _run_rank(
        self,
        comm: Comm,
        func: Callable[..., Any],
        args: Sequence[Any],
        kwargs: Dict[str, Any],
        result: RankResult,
    ) -> None:
        try:
            # Overflow/NaN *is* the expected effect of corrupted
            # payloads, and errstate is per thread: scope it where the
            # rank that receives them runs.
            corrupted = self._corruptor_factory is not None
            with np.errstate(over="ignore", invalid="ignore") if corrupted else nullcontext():
                result.value = func(comm, *args, **kwargs)
        except ProcessDeathError as death:
            result.died = True
            result.death_time = death.time
            self.state.mark_dead(comm.rank, death.time)
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            result.exception = exc
            # A crashed rank is as dead as a failed one from the other
            # ranks' perspective; mark it so they do not hang.
            self.state.mark_dead(comm.rank, comm.clock.now)
        finally:
            result.busy_time = comm.clock.busy_time
            result.idle_time = comm.clock.idle_time
            result.finish_time = comm.clock.now
            # Publish that this incarnation will never communicate again,
            # so receives/collectives blocked on it resolve -- but only
            # if it is still the current incarnation (a respawn may have
            # replaced it while this thread was winding down).  The
            # identity check and the mark must be one atomic step under
            # the state lock: respawn() swaps the entry and marks the
            # rank alive under the same lock, so a winding-down thread
            # can never stamp "terminated" onto a fresh replacement.
            with self.state.condition:
                entry = self._threads.get(comm.rank)
                if entry is not None and entry.comm is comm:
                    self.state.mark_terminated(comm.rank)

    # ------------------------------------------------------------------
    def start(
        self,
        func: Callable[..., Any],
        *args: Any,
        **kwargs: Any,
    ) -> None:
        """Launch all ranks running ``func(comm, *args, **kwargs)``.

        Non-blocking; use :meth:`join` (or :meth:`run`, which does both)
        to collect results.
        """
        if self._started:
            raise SimMpiError("this runtime has already been started")
        self._started = True
        for rank in range(self.n_ranks):
            comm = self._make_comm(rank)
            result = RankResult(rank=rank)
            thread = threading.Thread(
                target=self._run_rank,
                args=(comm, func, args, kwargs, result),
                name=f"simrank-{rank}",
                daemon=True,
            )
            self._threads[rank] = _RankThread(thread=thread, comm=comm, result=result)
        for entry in self._threads.values():
            entry.thread.start()

    def respawn(
        self,
        rank: int,
        func: Callable[..., Any],
        *args: Any,
        born_at: Optional[float] = None,
        **kwargs: Any,
    ) -> None:
        """Start a replacement incarnation of a dead rank.

        Parameters
        ----------
        rank:
            The dead rank to replace.
        func:
            Recovery function run as ``func(comm, *args, **kwargs)``.
        born_at:
            Virtual start time of the new incarnation.  Defaults to the
            dead rank's death time plus the machine model's
            local-recovery overhead.  The default deliberately uses
            only virtual-time quantities that are a pure function of
            the failure schedule: sampling the *live* clocks of the
            surviving rank threads here would make the respawn time
            depend on wall-clock thread interleaving and the whole
            simulation nondeterministic (the survivors' synchronization
            with the replacement is the recovery protocol's job --- see
            the barrier in :meth:`repro.lflr.manager.LFLRManager.recover`).
            Callers that model "respawn initiated after detection" pass
            the detecting rank's virtual time explicitly.
        """
        check_integer(rank, "rank")
        if rank not in self.state.dead:
            raise SimMpiError(f"rank {rank} is not dead; cannot respawn it")
        if born_at is None:
            base = self.state.death_times.get(rank, 0.0)
            born_at = base + self.machine.local_recovery_overhead
        comm = self._make_comm(rank, born_at=float(born_at))
        result = RankResult(rank=rank)
        thread = threading.Thread(
            target=self._run_rank,
            args=(comm, func, args, kwargs, result),
            name=f"simrank-{rank}-respawn",
            daemon=True,
        )
        # Swap in the new incarnation and mark it alive atomically with
        # respect to the old thread's wind-down (see _run_rank's
        # terminated-marking), preserving the original incarnation's
        # result for reporting.
        with self.state.condition:
            if rank in self._threads:
                self._extra_results.append(self._threads[rank].result)
            self._threads[rank] = _RankThread(thread=thread, comm=comm, result=result)
            self.state.mark_alive(rank, float(born_at))
        thread.start()

    def join(self, timeout: float = 120.0) -> List[RankResult]:
        """Wait at most ``timeout`` seconds for all rank threads; return their results.

        Raises the first unhandled exception of any rank (deadlock and
        programming errors should fail tests loudly); rank deaths from
        the failure plan are *not* exceptions -- they are reported via
        :attr:`RankResult.died`.
        """
        if not self._started:
            raise SimMpiError("runtime was never started")
        deadline = time.monotonic() + timeout
        for entry in self._threads.values():
            entry.thread.join(timeout=max(0.0, deadline - time.monotonic()))
            if entry.thread.is_alive():
                raise SimMpiError(
                    f"rank {entry.result.rank} did not finish within {timeout}s of wall time"
                )
        results = [entry.result for entry in self._threads.values()]
        for result in results:
            if result.exception is not None:
                raise result.exception
        return sorted(results + self._extra_results, key=lambda r: r.rank)

    def run(
        self,
        func: Callable[..., Any],
        *args: Any,
        timeout: float = 120.0,
        **kwargs: Any,
    ) -> List[RankResult]:
        """Convenience: :meth:`start` followed by :meth:`join`."""
        self.start(func, *args, **kwargs)
        return self.join(timeout=timeout)

    def max_finish_time(self) -> float:
        """Latest virtual finish time over all rank incarnations."""
        times = [entry.result.finish_time for entry in self._threads.values()]
        times += [r.finish_time for r in self._extra_results]
        return max(times) if times else 0.0


def run_spmd(
    n_ranks: int,
    func: Callable[..., Any],
    *args: Any,
    machine: Optional[MachineModel] = None,
    failure_plan: Optional[FailurePlan] = None,
    faults=None,
    fault_seed: Optional[int] = None,
    timeout: float = 30.0,
    **kwargs: Any,
) -> List[Any]:
    """One-shot helper: run ``func`` on ``n_ranks`` ranks, return values.

    This is the most common entry point for examples and tests::

        def program(comm):
            return comm.allreduce(comm.rank)

        totals = run_spmd(4, program)   # [6, 6, 6, 6]

    ``failure_plan`` and ``faults`` mean what they mean to
    :class:`SimRuntime`.  The runtime decides deadlock from its own
    state, so ``timeout`` -- the launch contract's wall-clock bound --
    bounds the job's join: it stops only a rank stuck in compute.  The
    ``sim`` registry entry launches through here.
    """
    runtime = SimRuntime(
        n_ranks, machine=machine, failure_plan=failure_plan,
        faults=faults, fault_seed=fault_seed,
    )
    results = runtime.run(func, *args, timeout=timeout, **kwargs)
    by_rank: Dict[int, Any] = {}
    for result in results:
        # Prefer a surviving incarnation's value over a dead one's.
        if result.rank not in by_rank or not result.died:
            by_rank[result.rank] = result.value
    return [by_rank[rank] for rank in range(n_ranks)]
