"""The communicator front end every backend subclasses.

:class:`BaseCommunicator` is the SPMD communicator contract -- the
surface the distributed kernel layer (:mod:`repro.comm.distributed`,
:mod:`repro.krylov.ops`) uses -- and, written once, everything the
backends share: the rank and peer checks, ``sendrecv``, ``compute`` and
the five collective forms (``barrier``, ``bcast``, ``allreduce``,
``allgather`` and the non-blocking ``iallreduce``).  Those, with
``send``, ``recv`` and ``isend``, are the nine operations the programs
issue: LFLR agrees on a step with ``allreduce(MIN)``, mirrors state with
``sendrecv`` and recovers behind a ``barrier``; pipelined Krylov hides
one ``iallreduce``; the distributed kernels ``allgather``.  A backend
supplies identity, program time, liveness, point-to-point transport
and one blocking collective hook, ``_collective``; one that can overlap
collectives also overrides ``_start_collective``, which otherwise
completes eagerly.  Every backend completes a collective with the one
rule :func:`complete_collective` and charges it with
:meth:`BaseCommunicator._collective_cost`.  The conformance suite
(``tests/test_comm_conformance.py``) runs drawn programs on every
registered backend and compares what their ranks observe.

Semantics shared by all backends:

* ``rank`` / ``size`` identify this participant;
* point-to-point sends are buffered (eager): a send never detects the
  death of its destination -- failure surfaces at receives and
  collectives, the operations that genuinely depend on the peer;
* any operation depending on a dead rank raises
  :class:`~repro.comm.errors.ProcFailure` (ULFM-style notification);
* a rank that returned is departed, not dead: an operation depending on
  it raises ``ProcFailure`` at once, naming no failed rank;
* no backend may hang: a program that can never complete raises
  :class:`~repro.comm.errors.SimDeadlockError`, decided from the
  simulator's own state, or its subclass
  :class:`~repro.comm.errors.CommTimeoutError` when a bounded wait expires;
* an exception raised while a collective completes (a reduction over
  arrays of mismatched shapes) poisons it:
  every participant raises the same typed error, promptly -- nobody is
  left to wait out a timeout;
* every backend folds a reduction in rank order: ``allreduce``
  completes through :func:`complete_collective`, ascending rank, left
  to right -- the property that makes sim and shmem results
  bit-identical;
* ``compute(flops)`` / ``advance(seconds)`` drive the backend's notion
  of *program time*: virtual seconds on the simulator, a logical clock
  on real-process backends (used only to schedule ``proc_fail``
  injection, never to slow the process down).

Both launchers resolve a job's fault axis the one way,
:func:`resolve_job_faults`, so the same spec strings mean the same
failures and the same corruption streams on every backend.
"""

from __future__ import annotations

import abc
import copy
import pickle
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.comm.errors import InvalidRankError, SimMpiError
from repro.comm.ops import ReduceOp, SUM
from repro.comm.requests import CompletedRequest, Request
from repro.machine.collective_cost import collective_time
from repro.machine.model import MachineModel
from repro.reliability.models import FaultCapabilityError
from repro.reliability.process import FailurePlan
from repro.reliability.registry import resolve_faults
from repro.reliability.seeding import fault_stream
from repro.utils.validation import check_integer


__all__ = [
    "BaseCommunicator",
    "complete_collective",
    "copy_payload",
    "operation_label",
    "payload_nbytes",
    "portable_error",
    "resolve_job_faults",
]


def payload_nbytes(obj: Any) -> int:
    """Estimate the wire size of a payload in bytes.

    NumPy arrays report their true buffer size; Python scalars count as
    8 bytes; everything else falls back to ``sys.getsizeof``.  The
    estimate only feeds the timing model, never correctness.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (int, float, complex, bool, np.generic)):
        return 8
    if obj is None:
        return 0
    if isinstance(obj, (list, tuple)):
        return sum(payload_nbytes(item) for item in obj)
    return int(sys.getsizeof(obj))


def copy_payload(obj: Any) -> Any:
    """Deep-copy a payload so ranks never share mutable state."""
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, (int, float, complex, bool, str, bytes, type(None), np.generic)):
        return obj
    return copy.deepcopy(obj)


def operation_label(kind: str, *key: int) -> str:
    """How an error names the operation it stopped, built only when one is raised:
    ``recv(src=1, tag=0)`` for a receive, ``allreduce(0, 3)`` (epoch,
    sequence) for a collective."""
    if kind == "recv":
        return "recv(src={}, tag={})".format(*key)
    return f"{kind}{key}"


def portable_error(exc: BaseException, rank: int) -> BaseException:
    """A copy of ``exc`` fit to hand to another rank, else a typed stand-in."""
    try:
        return pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 - an exception pickle cannot rebuild
        return SimMpiError(f"rank {rank} raised unpicklable {exc!r}")


def complete_collective(
    kind: str,
    contributions: Dict[int, Any],
    op: Optional[ReduceOp] = None,
    root: Optional[int] = None,
) -> Dict[int, Any]:
    """Per-rank results of a collective once every contribution is in.

    ``allreduce`` folds the contributions in ascending rank order, left
    to right, so every backend calling this produces bit-identical
    results.  A fold that raises (arrays of mismatched shapes) raises
    here; the backend then poisons the collective.
    """
    ranks = sorted(contributions)
    if kind == "allreduce":
        result = (op if op is not None else SUM).reduce([contributions[r] for r in ranks])
    elif kind == "allgather":
        result = [contributions[r] for r in ranks]
    elif kind == "bcast":
        result = contributions.get(root)
    else:  # barrier
        result = None
    return dict.fromkeys(ranks, result)


def resolve_job_faults(
    n_ranks: int,
    failure_plan=None,
    faults=None,
    fault_seed: Optional[int] = None,
) -> Tuple[FailurePlan, Optional[Callable[[int], Callable]]]:
    """The fault axis of one SPMD job, as every launcher resolves it.

    Refuses an ``n_ranks`` that is not a positive integer (bools,
    floats and strings included), then returns ``(plan, factory)``:
    the failure plan -- ``failure_plan`` if given, else the one the
    ``proc_fail`` component of ``faults`` draws -- and, when ``faults``
    has a ``msg_corrupt`` component, a ``rank -> corruptor`` factory
    (else ``None``).  Each rank's corruptor draws from a stream named after
    the rank, so any launcher agreeing on ``(fault_seed, rank)``
    replays the same corruption sequence (see
    :mod:`repro.reliability.seeding`).

    ``failure_plan`` is ``None`` or a ready
    :class:`~repro.reliability.process.FailurePlan`; anything else is a
    ``TypeError``.  Fault specs go through ``faults`` (anything
    :func:`repro.reliability.resolve_faults` accepts: a registry name,
    a compact spec string such as ``"proc_fail:mtbf=3600,horizon=7200"``,
    a dict, a :class:`~repro.reliability.spec.FaultSpec` or a built
    model) -- the one way every layer names its fault axis.  A spec
    with no ``proc_fail`` component kills no rank.  A plan that kills a
    rank the job does not have is refused: dropping that failure would
    run the job as a fault-free control.
    """
    check_integer(n_ranks, "n_ranks")
    if n_ranks <= 0:
        raise ValueError("n_ranks must be positive")
    if failure_plan is not None and not isinstance(failure_plan, FailurePlan):
        raise TypeError(
            f"failure_plan must be a FailurePlan or None, got {failure_plan!r}; "
            "name a fault spec with faults="
        )
    plan, factory = failure_plan, None
    if faults is not None:
        model = resolve_faults(faults)
        if plan is None:
            try:
                plan = model.failure_plan(n_ranks=int(n_ranks), seed=fault_seed)
            except FaultCapabilityError:
                plan = FailurePlan.none()
        msg_model = model.component("msg_corrupt")
        if msg_model is not None:
            def factory(rank: int):
                return msg_model.message_corruptor(
                    fault_stream(fault_seed, f"messages/{rank}")
                )
    if plan is None:
        plan = FailurePlan.none()
    for failure in plan:
        if failure.rank >= n_ranks:
            raise ValueError(
                f"failure plan kills rank {failure.rank}, but the job has "
                f"n_ranks={n_ranks}"
            )
    return plan, factory


class BaseCommunicator(abc.ABC):
    """SPMD communicator front end (the mpi4py lower-case subset).

    Concrete backends: :class:`repro.comm.sim.Comm` and
    :class:`repro.comm.shmem.ShmemComm`.  Rank functions receive an
    instance as their first argument and must treat it as the *only*
    channel between ranks.  Subclasses set ``_machine``.
    """

    _machine: MachineModel

    # -- identity ------------------------------------------------------
    @property
    @abc.abstractmethod
    def rank(self) -> int:
        """This participant's rank in ``[0, size)``."""

    @property
    @abc.abstractmethod
    def size(self) -> int:
        """Number of ranks the communicator was created with."""

    @property
    def machine(self) -> MachineModel:
        """The machine model driving program time."""
        return self._machine

    def _check_rank(self, rank: int) -> None:
        if not isinstance(rank, (int, np.integer)) or isinstance(rank, bool):
            raise InvalidRankError(f"rank must be an integer, got {rank!r}")
        if not 0 <= rank < self.size:
            raise InvalidRankError(
                f"rank {rank} out of range for communicator of size {self.size}"
            )

    # -- program time --------------------------------------------------
    @abc.abstractmethod
    def now(self) -> float:
        """Current program time of this rank (seconds)."""

    @abc.abstractmethod
    def advance(self, seconds: float) -> float:
        """Advance program time by an explicit busy interval.

        A ``proc_fail`` fault scheduled to strike within the interval
        kills this rank at the interval's end, on every backend
        (virtually on the simulator, via real SIGKILL on the
        shared-memory backend).
        """

    def compute(self, flops: float) -> float:
        """Account for local computation; returns the new program time."""
        return self.advance(self._machine.compute_time(flops, rank=self.rank))

    def _check_own_failure(self) -> None:
        """Strike a scheduled hard fault that is due (none by default)."""

    # -- failure notification ------------------------------------------
    @abc.abstractmethod
    def alive_ranks(self) -> List[int]:
        """Sorted ranks currently believed alive."""

    @abc.abstractmethod
    def dead_ranks(self) -> List[int]:
        """Sorted ranks known to have failed."""

    @abc.abstractmethod
    def is_alive(self, rank: int) -> bool:
        """Whether ``rank`` is currently believed alive."""

    # -- point-to-point ------------------------------------------------
    @abc.abstractmethod
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking buffered send (never detects destination death)."""

    @abc.abstractmethod
    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive; raises ``ProcFailure`` if ``source`` died."""

    @abc.abstractmethod
    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send; returns a waitable request."""

    def _check_peer(self, peer: int, verb: str) -> None:
        """What every point-to-point operation checks first.

        A due hard fault strikes, ``peer`` must be a valid rank, and it
        must not be this rank (``verb`` names the refused direction).
        """
        self._check_own_failure()
        self._check_rank(peer)
        if peer == self.rank:
            raise InvalidRankError(f"{verb} self is not supported; use local state")

    def sendrecv(
        self,
        sendobj: Any,
        dest: int,
        source: int,
        sendtag: int = 0,
        recvtag: int = 0,
    ) -> Any:
        """Combined send and receive (the halo-exchange workhorse)."""
        req = self.isend(sendobj, dest, tag=sendtag)
        received = self.recv(source, tag=recvtag)
        req.wait()
        return received

    # -- collective hooks ------------------------------------------------
    @abc.abstractmethod
    def _collective(
        self,
        kind: str,
        value: Any,
        op: Optional[ReduceOp] = None,
        root: Optional[int] = None,
    ) -> Any:
        """Run one collective of ``kind`` to completion; this rank's result."""

    def _start_collective(
        self,
        kind: str,
        value: Any,
        op: Optional[ReduceOp] = None,
        root: Optional[int] = None,
    ) -> Request:
        """Start one collective; completes eagerly unless overridden.

        SPMD programs sequence their collectives identically on every
        rank, so eager completion preserves results (and bit-identity);
        only the overlap the simulator *models* is not realized.
        """
        return CompletedRequest(self._collective(kind, value, op, root))

    def _collective_cost(self, contributions: Dict[int, Any]) -> float:
        """Program-time charge of a completed collective, equal on every rank.

        The cost rule sees the largest contribution, so the charge never
        depends on which rank arrived last.  The rule is pure in
        ``(ranks, bytes)``, so each key is computed once.
        """
        key = (len(contributions), max(map(payload_nbytes, contributions.values())))
        costs = self.__dict__.setdefault("_costs", {})
        cost = costs.get(key)
        if cost is None:
            cost = costs[key] = collective_time(self._machine, *key)
        return cost

    # -- blocking collectives --------------------------------------------
    def barrier(self) -> None:
        """Synchronize all live ranks."""
        self._collective("barrier", None)

    def bcast(self, value: Any, root: int = 0) -> Any:
        """Broadcast ``value`` from ``root``; all ranks return it."""
        self._check_rank(root)
        return self._collective(
            "bcast", value if self.rank == root else None, root=root
        )

    def allreduce(self, value: Any, op: ReduceOp = SUM) -> Any:
        """Reduce and deliver the result to every rank."""
        return self._collective("allreduce", value, op)

    def allgather(self, value: Any) -> List[Any]:
        """Gather per-rank values into a rank-ordered list everywhere."""
        return self._collective("allgather", value)

    # -- non-blocking collective -----------------------------------------
    def iallreduce(self, value: Any, op: ReduceOp = SUM) -> Request:
        """Non-blocking allreduce (the pipelined-Krylov workhorse)."""
        return self._start_collective("allreduce", value, op)
