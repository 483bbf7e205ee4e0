"""A simulated MPI-like runtime with failure semantics and virtual time.

The programming models of the paper (RBSP, LFLR, SRP) all presuppose a
message-passing runtime richer than MPI-2: asynchronous collectives
(MPI-3), failure notification and communicator repair (ULFM), and some
notion of persistent per-process storage.  Real machines with those
features are not available here, so this subpackage provides an
**in-process simulation** that preserves the semantics the algorithms
care about:

* SPMD execution: each simulated rank runs the same Python function in
  its own thread, communicating only through the
  :class:`~repro.simmpi.comm.Comm` object it is handed -- a
  :class:`~repro.comm.base.BaseCommunicator`, whose vocabulary
  (reduction ops, requests, errors) lives in :mod:`repro.comm`.
* Virtual time: each rank owns a :class:`~repro.simmpi.clock.VirtualClock`;
  compute and communication advance it according to a
  :class:`~repro.machine.model.MachineModel`, so performance results
  are deterministic and machine-parameterized rather than wall-clock
  noise.
* Blocking and non-blocking point-to-point messages and collectives
  (barrier, broadcast, reduce, allreduce, gather, allgather, scatter,
  and their ``i``-prefixed asynchronous forms).
* Hard-fault injection: a :class:`~repro.reliability.process.FailurePlan`
  kills ranks at prescribed virtual times; surviving ranks observe the
  failure as a :class:`~repro.comm.errors.RankFailedError` raised
  from their next communication involving the dead rank -- the ULFM
  error-on-communication model.
* Recovery primitives: :meth:`SimRuntime.respawn` starts a replacement
  rank, and :meth:`Comm.advance_epoch` re-establishes collective
  matching after a repair, mirroring ULFM's revoke/shrink/spawn cycle.

The runtime is intended for tens of ranks (tests and examples use
4--64); large-process scaling results use the analytic models in
:mod:`repro.machine` instead.
"""

from repro.simmpi.clock import VirtualClock
from repro.simmpi.comm import Comm
from repro.simmpi.runtime import SimRuntime, RankResult, run_spmd

__all__ = [
    "VirtualClock",
    "Comm",
    "SimRuntime",
    "RankResult",
    "run_spmd",
]
