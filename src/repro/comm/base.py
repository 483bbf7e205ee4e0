"""The abstract communicator interface every backend implements.

:class:`BaseCommunicator` is the contract extracted from
:class:`repro.simmpi.comm.Comm` -- the surface the distributed kernel
layer (:mod:`repro.linalg.distributed`, :mod:`repro.krylov.ops`)
actually uses, written down as an ABC so new backends implement it
deliberately and the conformance suite (``tests/test_comm_conformance``)
can exercise every registered backend against one parametrized test
body.

The simulator's :class:`~repro.simmpi.comm.Comm` is *virtually*
registered (``BaseCommunicator.register``) rather than subclassed: the
simulated runtime stays byte-for-byte untouched by the abstraction, and
no import cycle forms between :mod:`repro.simmpi` and this package.

Semantics shared by all backends:

* ``rank`` / ``size`` identify this participant;
* point-to-point sends are buffered (eager): a send never detects the
  death of its destination -- failure surfaces at receives and
  collectives, the operations that genuinely depend on the peer;
* any operation depending on a dead rank raises
  :class:`~repro.comm.errors.ProcFailure` (ULFM-style notification);
* a bounded wait that expires raises
  :class:`~repro.comm.errors.CommTimeoutError` -- no backend is
  permitted to hang;
* an exception raised while a collective completes (too few
  ``scatter`` chunks, a reduction over mismatched shapes) poisons it:
  every participant raises the same typed error, promptly -- nobody is
  left to wait out a timeout;
* ``allreduce``/``reduce`` apply the reduction in ascending-rank order,
  left to right, when the backend declares ``ordered_reduction`` in its
  registry entry -- the property that makes sim and shmem results
  bit-identical;
* ``compute(flops)`` / ``advance(seconds)`` drive the backend's notion
  of *program time*: virtual seconds on the simulator, a logical clock
  on real-process backends (used only to schedule ``proc_fail``
  injection, never to slow the process down).
"""

from __future__ import annotations

import abc
from typing import Any, List, Optional, Sequence

from repro.simmpi.ops import ReduceOp, SUM
from repro.simmpi.requests import Request

__all__ = ["BaseCommunicator"]


class BaseCommunicator(abc.ABC):
    """Abstract SPMD communicator (the mpi4py lower-case subset).

    Concrete backends: :class:`repro.simmpi.comm.Comm` (virtually
    registered), :class:`repro.comm.shmem.ShmemComm`.  Rank functions
    receive an instance as their first argument and must treat it as
    the *only* channel between ranks.
    """

    # -- identity ------------------------------------------------------
    @property
    @abc.abstractmethod
    def rank(self) -> int:
        """This participant's rank in ``[0, size)``."""

    @property
    @abc.abstractmethod
    def size(self) -> int:
        """Number of ranks the communicator was created with."""

    def single_rank(self) -> bool:
        """True when the communicator has exactly one rank."""
        return self.size == 1

    # -- program time --------------------------------------------------
    @abc.abstractmethod
    def now(self) -> float:
        """Current program time of this rank (seconds)."""

    @abc.abstractmethod
    def compute(self, flops: float) -> float:
        """Account for local computation; returns the new program time.

        A ``proc_fail`` fault scheduled to strike within the accounted
        interval kills this rank at the interval's end, on every
        backend (virtually on the simulator, via real SIGKILL on the
        shared-memory backend).
        """

    @abc.abstractmethod
    def advance(self, seconds: float) -> float:
        """Advance program time by an explicit busy interval."""

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

    @abc.abstractmethod
    def irecv(self, source: int, tag: int = 0) -> Request:
        """Non-blocking receive; the payload arrives at ``wait()``."""

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

    # -- collectives ---------------------------------------------------
    @abc.abstractmethod
    def barrier(self) -> None:
        """Synchronize all live ranks."""

    @abc.abstractmethod
    def bcast(self, value: Any, root: int = 0) -> Any:
        """Broadcast ``value`` from ``root``; all ranks return it."""

    @abc.abstractmethod
    def reduce(self, value: Any, op: ReduceOp = SUM, root: int = 0) -> Any:
        """Reduce to ``root``; non-root ranks return ``None``."""

    @abc.abstractmethod
    def allreduce(self, value: Any, op: ReduceOp = SUM) -> Any:
        """Reduce and deliver the result to every rank."""

    @abc.abstractmethod
    def gather(self, value: Any, root: int = 0) -> Optional[List[Any]]:
        """Gather per-rank values into a rank-ordered list at ``root``."""

    @abc.abstractmethod
    def allgather(self, value: Any) -> List[Any]:
        """Gather per-rank values into a rank-ordered list everywhere."""

    @abc.abstractmethod
    def scatter(self, values: Optional[Sequence[Any]], root: int = 0) -> Any:
        """Scatter a sequence from ``root``; each rank gets one element."""

    # -- non-blocking collectives --------------------------------------
    @abc.abstractmethod
    def iallreduce(self, value: Any, op: ReduceOp = SUM) -> Request:
        """Non-blocking allreduce (the pipelined-Krylov workhorse)."""

    @abc.abstractmethod
    def ibarrier(self) -> Request:
        """Non-blocking barrier."""

    @abc.abstractmethod
    def iallgather(self, value: Any) -> Request:
        """Non-blocking allgather."""

    @abc.abstractmethod
    def ibcast(self, value: Any, root: int = 0) -> Request:
        """Non-blocking broadcast."""
