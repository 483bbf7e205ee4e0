"""Shared-memory multiprocess communicator backend (``"shmem"``).

Ranks are real OS processes, each a :class:`~repro.utils.child.Child`
of :func:`launch_shmem` (one channel back to the launcher), wired with
one single-writer/single-reader OS pipe per ordered rank pair.  The
design rules are the ones the ``process-hazards`` lint rule
(``tests/test_analysis.py``) checks:

* **no shared ``multiprocessing.Queue``** -- a queue's writer lock dies
  with whichever killable process holds it and silently wedges every
  sibling; every channel here has exactly one writing process, so a
  SIGKILL can never orphan a lock another rank needs;
* **no unbounded blocking** -- every read waits on a ``select.poll``
  object (one per inbound pipe, built at construction) until an
  explicit deadline, so a mismatched program raises
  :class:`~repro.comm.errors.CommTimeoutError` instead of hanging;
  a rank's farewell frame (it returned or raised) or hang-up (it was
  killed) is reported at once as :class:`~repro.comm.errors.ProcFailure`
  (ULFM-style);
* **large numeric arrays ride ``multiprocessing.shared_memory``** --
  the pipe carries a small descriptor, the data crosses via one shared
  segment (created by the sender, attached, copied and unlinked by the
  receiver; both sides unregister from the resource tracker, which
  would otherwise double-unlink segments whose lifetime is managed
  here).

Fault injection maps the declarative :class:`FaultSpec` axis onto real
processes through the simulator's own resolution
(:func:`repro.comm.base.resolve_job_faults`), so the same spec
strings mean the same thing as on the simulator:

* ``proc_fail`` -- scheduled failure times from the spec's
  :class:`~repro.reliability.process.FailurePlan` are checked against
  the rank's logical clock (advanced by ``compute``/``advance``/message
  costs through the machine model, mirroring the simulator's virtual
  time in program order); when one strikes, the rank SIGKILLs itself.
* ``msg_corrupt`` -- the spec's per-rank ``message_corruptor``
  corrupts each outgoing payload at the pipe boundary, on a private
  copy.  Identical ``fault_seed`` therefore draws the identical
  corruption sequence on sim and shmem.

Collectives run a star protocol through rank 0: contributions are
gathered at the coordinator, which completes them with the front end's
rule (:func:`repro.comm.base.complete_collective`, an ascending-rank,
left-to-right fold -- what makes distributed solves bit-identical
across the two backends) and sends every rank its result and the
collective's program-time cost.  A collective whose completion *raises*
at the coordinator (a reduction over arrays of mismatched shapes) is
poisoned: the coordinator posts the error to every peer before raising
it, so every participant raises the same typed error.  The non-blocking
``iallreduce`` completes eagerly (the front end's default).

A message is one :mod:`repro.utils.child` frame (length header, pickled
message), written with one ``os.write``.  A plain numeric ndarray in
it is raw C-order bytes (a segment name from ``SHM_THRESHOLD_BYTES``
up), anything else is pickled; the receiver rebuilds writable
C-contiguous arrays, as the simulator's ``copy_payload`` does.  That
encoding *is* the defensive copy, so only the coordinator's own
contribution (which never crosses a pipe) and a payload handed to a
``message_corruptor`` are copied first.
"""

from __future__ import annotations

import os
import signal
import time
import uuid
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import multiprocessing.resource_tracker
from multiprocessing import shared_memory

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
from repro.comm.errors import CommTimeoutError, ProcFailure, SimMpiError
from repro.comm.requests import CompletedRequest, Request
from repro.machine.model import MachineModel
from repro.utils.child import Channel, Child, stop_all, write_frame

__all__ = ["ShmemComm", "launch_shmem", "SHM_THRESHOLD_BYTES"]

#: Plain numeric arrays at or above this many bytes travel through a
#: shared-memory segment instead of the pipe itself.  Below it, the raw
#: bytes in the frame are faster and -- crucially -- stay under the
#: kernel pipe buffer, so buffered sends do not block the sender.
SHM_THRESHOLD_BYTES = 32768

#: Default wall-clock budget (seconds) for one blocking operation.
DEFAULT_OP_TIMEOUT = 30.0

#: Wall-clock budget (seconds) for the ranks to exit after the shutdown
#: message; a rank still running then is SIGKILLed.
REAP_TIMEOUT = 10.0

#: Wall-clock budget (seconds) for every rank to report its outcome.
JOIN_TIMEOUT = 120.0


def _is_raw(obj: Any) -> bool:
    """Whether ``obj`` travels as raw bytes: a plain numeric ndarray."""
    return type(obj) is np.ndarray and obj.dtype.kind in "biufc"


def _untrack_shm(name: str) -> None:
    """Opt the *creator* out of the resource tracker's implicit cleanup.

    Creating (and, through CPython 3.12, attaching) registers the
    segment with the resource tracker, whose at-exit unlink would race
    the explicit receiver-side unlink this module performs.  Only the
    creation-time registration needs manual balancing: on the receiver
    side ``SharedMemory.unlink()`` itself unregisters, pairing with the
    attach-time registration.
    """
    try:
        multiprocessing.resource_tracker.unregister(
            "/" + name.lstrip("/"), "shared_memory"
        )
    except (KeyError, FileNotFoundError):  # pragma: no cover - tracker detail
        pass


class ShmemComm(BaseCommunicator):
    """Communicator bound to one forked rank process.

    Instances are created by :func:`launch_shmem` inside the child
    after ``fork``; user code receives one as the first argument of the
    SPMD function, exactly like the simulator's ``Comm``.

    Parameters
    ----------
    rank, size:
        This process's rank and the job's rank count.
    inbound:
        ``source rank -> read fd`` of the ``source -> rank`` pipes (this
        process is the only reader of each).
    outbound:
        ``dest rank -> write fd`` of the ``rank -> dest`` pipes (this
        process is the only writer of each).
    machine:
        Machine model driving the logical clock (fault scheduling only;
        the process never sleeps on it).
    failure_times:
        Sorted logical times at which this rank SIGKILLs itself
        (the ``proc_fail`` mapping).
    message_corruptor:
        Optional ``(payload, dest, tag) -> payload`` hook applied to a
        private copy of every outgoing point-to-point payload (the
        ``msg_corrupt`` mapping).
    timeout:
        Wall-clock budget per blocking operation; expiry raises
        :class:`CommTimeoutError` rather than hanging.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        inbound: Dict[int, int],
        outbound: Dict[int, int],
        machine: Optional[MachineModel] = None,
        failure_times: Sequence[float] = (),
        message_corruptor: Optional[Callable[[Any, int, int], Any]] = None,
        timeout: float = DEFAULT_OP_TIMEOUT,
        shm_prefix: str = "repro",
    ):
        self._rank = int(rank)
        self._size = int(size)
        self._in = {r: Channel(fd) for r, fd in inbound.items()}
        self._out = outbound
        self._machine = machine if machine is not None else MachineModel.ideal()
        self._failure_times = deque(sorted(float(t) for t in failure_times))
        self._message_corruptor = message_corruptor
        self.timeout = float(timeout)
        self._clock = 0.0
        self._coll_seq = 0
        self._shm_seq = 0
        self._shm_prefix = shm_prefix
        self._dead: set = set()
        self._pending: Dict[int, deque] = {r: deque() for r in inbound}
        #: Segments this rank created; swept by :meth:`finalize` in case
        #: a killed receiver never attached (normally already unlinked).
        self._shm_created: List[str] = []

    # -- identity ------------------------------------------------------
    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._size

    # -- program time / fault scheduling -------------------------------
    def now(self) -> float:
        return self._clock

    def _check_own_failure(self) -> None:
        if self._failure_times and self._failure_times[0] <= self._clock:
            # The proc_fail mapping: a real hard fault, observable by
            # survivors only through broken pipes -- exactly what the
            # ULFM notification contract is about.
            os.kill(os.getpid(), signal.SIGKILL)

    def advance(self, seconds: float) -> float:
        self._check_own_failure()
        self._clock += float(seconds)
        self._check_own_failure()
        return self._clock

    # -- failure notification ------------------------------------------
    def alive_ranks(self) -> List[int]:
        return sorted(set(range(self._size)) - self._dead)

    def dead_ranks(self) -> List[int]:
        """Ranks *observed* dead so far (EOF or a coordinator report).

        Real processes have no shared failure oracle; knowledge spreads
        through failed operations, so a rank can be dead before it
        appears here.
        """
        return sorted(self._dead)

    def is_alive(self, rank: int) -> bool:
        self._check_rank(rank)
        return rank not in self._dead

    # -- payload encoding ----------------------------------------------
    def _encode_payload(self, obj: Any) -> Tuple:
        """Raw bytes for a plain numeric ndarray and, element by element,
        a top-level list or tuple of them (the allgather results); anything
        else (objects, structured dtypes, subclasses) is pickled inline."""
        if _is_raw(obj):
            return self._encode_array(obj)
        if type(obj) in (list, tuple) and all(map(_is_raw, obj)):
            return ("seq", type(obj), [self._encode_array(a) for a in obj])
        return ("inline", obj)

    def _encode_array(self, array: np.ndarray) -> Tuple:
        """Raw bytes in the frame below the threshold, a segment at or above."""
        if array.nbytes < SHM_THRESHOLD_BYTES:
            # Any layout, copied out in C order and writable at the receiver;
            # the memoryview because bytearray(0-d int array) is a length.
            return ("raw", array.dtype.str, array.shape, bytearray(memoryview(array)))
        name = f"{self._shm_prefix}-{self._rank}-{self._shm_seq}"
        self._shm_seq += 1
        segment = shared_memory.SharedMemory(name=name, create=True, size=array.nbytes)
        _untrack_shm(segment.name)
        staged = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        staged[...] = array
        segment.close()
        self._shm_created.append(name)
        return ("shm", name, array.dtype.str, array.shape)

    @classmethod
    def _decode_payload(cls, desc: Tuple) -> Any:
        if desc[0] == "raw":
            return np.frombuffer(desc[3], desc[1]).reshape(desc[2])
        if desc[0] == "inline":
            return desc[1]
        if desc[0] == "seq":
            return desc[1](cls._decode_payload(item) for item in desc[2])
        _, name, dtype, shape = desc
        segment = shared_memory.SharedMemory(name=name)
        try:
            view = np.ndarray(shape, dtype=dtype, buffer=segment.buf)
            value = view.copy()
        finally:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - sender swept first
                pass
        return value

    def finalize(self) -> None:
        """Sweep shared-memory segments no receiver consumed.

        Called by the launcher's shutdown handshake, *after* every rank
        has returned -- so any surviving receiver has already attached
        and unlinked its segments, and whatever is left belongs to
        receivers that died before attaching.
        """
        for name in self._shm_created:
            try:
                leftover = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue
            leftover.close()
            leftover.unlink()
        self._shm_created.clear()

    # -- wire protocol -------------------------------------------------
    def _post(self, dest: int, message: Tuple) -> None:
        """Buffered send of one framed message; never detects peer death.

        Mirrors the simulator's eager-send semantics: a broken pipe
        (dead destination) is recorded but not raised -- failure
        surfaces at the operations that depend on the peer.
        """
        try:
            write_frame(self._out[dest], message)
        except OSError:  # BrokenPipeError included
            self._dead.add(dest)

    def _next_from(
        self,
        source: int,
        frames: Tuple[str, ...],
        key: int,
        operation: Tuple,
        deadline: float,
    ) -> Tuple:
        """Next ``frames``-typed message from ``source`` keyed ``key``.

        ``key`` is a p2p tag or a collective sequence number;
        ``operation`` names the wait should it fail (the arguments of
        :func:`~repro.comm.base.operation_label`).  Non-matching traffic
        (e.g. a collective contribution arriving while we wait for a
        tagged point-to-point message) is buffered in arrival order,
        preserving per-(source, tag) FIFO delivery.  Bounded: raises
        :class:`CommTimeoutError` when nothing arrives by the deadline
        and, once no buffered message matches, :class:`ProcFailure` at
        the source's farewell (naming it only if it raised) or hang-up.
        """
        pending = self._pending[source]
        for i, message in enumerate(pending):
            if message[1] == key and message[0] in frames:
                del pending[i]
                return message
        while not pending or pending[-1][0] != "bye":
            try:
                message = self._in[source].recv(deadline)
            except TimeoutError:
                raise CommTimeoutError(self._rank, operation_label(*operation), self.timeout) from None
            except (EOFError, OSError):
                message = ("bye", None, [source])
            if message[1] == key and message[0] in frames:
                return message
            pending.append(message)
        dead = set(pending[-1][2])  # whom the source knew dead, itself included
        self._dead |= dead
        raise ProcFailure({source} & dead, operation_label(*operation), detected_at=self._clock)

    # -- point-to-point ------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_peer(dest, "send to")
        payload = obj
        if self._message_corruptor is not None:
            # The corruptor may flip bits in place: never in sender state.
            payload = self._message_corruptor(copy_payload(obj), dest, int(tag))
        self._post(dest, ("p2p", int(tag), self._encode_payload(payload)))
        # Same program-time accounting as the simulator's eager send.
        self._clock += self._machine.message_time(payload_nbytes(obj))

    def recv(self, source: int, tag: int = 0) -> Any:
        self._check_peer(source, "recv from")
        message = self._next_from(
            source, ("p2p",), int(tag), ("recv", source, int(tag)),
            time.monotonic() + self.timeout,
        )
        return self._decode_payload(message[2])

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        # Sends are buffered, so the eager form completes immediately.
        self.send(obj, dest, tag=tag)
        return CompletedRequest(None)

    # -- collectives ---------------------------------------------------
    def _collective(self, kind: str, value: Any, op=None, root=None) -> Any:
        """Star-protocol collective through the rank-0 coordinator.

        A missing contributor (its farewell or a hang-up) fails the
        collective: the coordinator reports the failed set to every
        survivor before raising, so all participants observe the same
        :class:`ProcFailure` and nobody hangs; without a coordinator a
        rank names every rank it knows dead.  Contributions that
        reached the pipe before the sender died still count (pipes are
        FIFO), matching the simulator's posted-before-death semantics.
        An exception raised while the coordinator completes the
        collective travels the same ``collfail`` frame, so every
        participant raises it too.  The ``collres`` frame carries the
        coordinator's cost charge, so every rank's logical clock
        advances by the same amount.
        """
        self._check_own_failure()
        seq = self._coll_seq
        self._coll_seq += 1
        deadline = time.monotonic() + self.timeout
        operation = (kind, 0, seq)
        if self._rank == 0:
            # The one contribution that never crosses a pipe: without a
            # copy the coordinator's result could alias its caller's input.
            contributions: Dict[int, Any] = {0: copy_payload(value)}
            failed: set = set()
            for source in range(1, self._size):
                try:
                    message = self._next_from(source, ("coll",), seq, operation, deadline)
                except ProcFailure as exc:
                    failed |= exc.failed_ranks
                    continue
                contributions[source] = self._decode_payload(message[2])
            if len(contributions) < self._size:
                self._poison(seq, sorted(failed), failed)
                raise ProcFailure(failed, operation_label(*operation), detected_at=self._clock)
            try:
                results = complete_collective(kind, contributions, op, root)
            except Exception as exc:
                self._poison(seq, portable_error(exc, 0))
                raise
            cost = self._collective_cost(contributions)
            for dest in range(1, self._size):
                self._post(
                    dest, ("collres", seq, self._encode_payload(results[dest]), cost)
                )
            result = results[0]
        else:
            # Encoding the frame is the defensive copy.
            self._post(0, ("coll", seq, self._encode_payload(value)))
            try:
                message = self._next_from(0, ("collres", "collfail"), seq, operation, deadline)
            except ProcFailure:
                message = ("collfail", seq, sorted(self._dead))
            if message[0] == "collfail":
                verdict = message[2]
                if isinstance(verdict, BaseException):
                    raise verdict
                self._dead.update(verdict)
                raise ProcFailure(verdict, operation_label(*operation), detected_at=self._clock)
            result, cost = self._decode_payload(message[2]), message[3]
        # The simulator's cost rule, so proc_fail schedules strike at
        # comparable program points.
        self._clock += cost
        return result

    def _poison(self, seq: int, verdict: Any, gone=()) -> None:
        """Fail collective ``seq`` on every peer not in ``gone``.

        ``verdict`` is the sorted dead ranks or the error completion raised.
        """
        for dest in range(1, self._size):
            if dest not in gone:
                self._post(dest, ("collfail", seq, verdict))


# ----------------------------------------------------------------------
# Launcher
# ----------------------------------------------------------------------
def _rank_main(channel: Channel, rank: int, size: int,
               pipes: Dict[Tuple[int, int], Tuple[int, int]],
               func: Callable[..., Any], args: Tuple, kwargs: Dict[str, Any],
               comm_kwargs: Dict[str, Any]) -> int:
    """Body of one rank's :class:`~repro.utils.child.Child`: its exit code."""
    # Close every inherited pipe end this rank does not own.  The
    # single-owner discipline is what makes death observable: a
    # SIGKILLed rank closes the *only* write end of its outgoing pipes,
    # so peers see EOF instead of waiting forever.
    inbound = {src: ends[0] for (src, dst), ends in pipes.items() if dst == rank}
    outbound = {dst: ends[1] for (src, dst), ends in pipes.items() if src == rank}
    owned = {*inbound.values(), *outbound.values()}
    _close_all([fd for ends in pipes.values() for fd in ends if fd not in owned])
    comm = ShmemComm(rank, size, inbound, outbound, **comm_kwargs)
    exit_code = 0
    try:
        outcome = ("ok", func(comm, *args, **kwargs))
    except BaseException as exc:  # noqa: BLE001 - reported to the launcher
        exit_code = 1
        outcome = ("error", portable_error(exc, rank))
    farewell = ("bye", None, sorted(comm._dead | ({rank} if exit_code else set())))
    try:
        channel.send(outcome)
    except OSError:  # pragma: no cover - launcher gone
        exit_code = 1
    # The farewell, last on every outbound pipe: a peer waiting on this rank
    # fails at once and learns whom it knew dead (itself if it raised).
    # After the outcome, so a full pipe never holds the launcher up.
    for dest in outbound:
        comm._post(dest, farewell)
    # Shutdown handshake: hold shared-memory segments (and our pipe
    # ends) until the launcher has collected every outcome, so
    # receivers still draining messages can attach first.  Bounded:
    # a vanished launcher (EOF) releases us too.
    channel.poll(comm.timeout)
    comm.finalize()
    return exit_code


def _close_all(fds: List[int]) -> None:
    while fds:
        os.close(fds.pop())


def launch_shmem(
    n_ranks: int,
    func: Callable[..., Any],
    *args: Any,
    machine: Optional[MachineModel] = None,
    failure_plan=None,
    faults=None,
    fault_seed: Optional[int] = None,
    timeout: float = DEFAULT_OP_TIMEOUT,
    **kwargs: Any,
) -> List[Any]:
    """Run ``func(comm, *args, **kwargs)`` on ``n_ranks`` OS processes.

    The shmem counterpart of :func:`repro.comm.sim.run_spmd`, with
    the same fault-axis surface: a ``failure_plan`` (or the
    ``proc_fail`` component of ``faults``) maps to scheduled
    self-SIGKILLs and a ``msg_corrupt`` component to pipe-boundary
    payload corruption, seeded identically to the simulator.  Returns
    the per-rank return values in rank order; a rank killed by a hard
    fault yields ``None`` (mirroring the simulator's died-rank
    reporting), and a rank that *raised* re-raises in the caller.

    Each rank is a :class:`~repro.utils.child.Child` that reports its
    outcome on its channel within ``JOIN_TIMEOUT``; after the shutdown
    frame, ranks get ``REAP_TIMEOUT`` to exit, then SIGKILL.  Every rank
    that started is reaped, also when a later fork fails.
    """
    # The simulator's own resolution: same n_ranks refusals, same plan,
    # same per-rank corruption streams.
    plan, corruptor_factory = resolve_job_faults(
        n_ranks, failure_plan, faults, fault_seed
    )
    n_ranks = int(n_ranks)
    machine = machine if machine is not None else MachineModel.ideal()
    job = uuid.uuid4().hex[:12]

    pipes = {(src, dst): os.pipe() for src in range(n_ranks)
             for dst in range(n_ranks) if src != dst}
    pipe_fds = [fd for ends in pipes.values() for fd in ends]
    ranks: List[Child] = []
    outcomes: List[Tuple[str, Any]] = []  # in rank order
    try:
        for rank in range(n_ranks):
            comm_kwargs = dict(
                machine=machine,
                failure_times=[f.time for f in plan.failures_for_rank(rank)],
                message_corruptor=corruptor_factory(rank) if corruptor_factory else None,
                timeout=timeout,
                shm_prefix=f"repro-{job}",
            )
            ranks.append(Child.start(
                _rank_main, rank, n_ranks, pipes, func, args, kwargs, comm_kwargs,
            ))
        # The ranks own the pipe ends; a copy held here would keep a dead
        # rank's peers from seeing its hang-up.
        _close_all(pipe_fds)
        deadline = time.monotonic() + JOIN_TIMEOUT
        for rank, child in enumerate(ranks):
            try:
                outcomes.append(child.recv(deadline))
            except TimeoutError:
                late = [r for r in range(rank, n_ranks) if not ranks[r].poll(0)]
                raise SimMpiError(
                    f"shmem ranks {late} did not finish within "
                    f"{JOIN_TIMEOUT}s of wall time"
                ) from None
            except (EOFError, OSError):
                # The rank died (e.g. proc_fail SIGKILL) before
                # reporting: the simulator reports died ranks as
                # value None, and so do we.
                outcomes.append(("died", None))
    finally:
        _close_all(pipe_fds)
        stop_all(ranks, REAP_TIMEOUT)

    for status, value in outcomes:
        if status == "error":
            raise value
    return [value for _status, value in outcomes]
