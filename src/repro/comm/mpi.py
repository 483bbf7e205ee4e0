"""Optional ``mpi4py`` backend, import-gated.

The entry exists so that backend specs, listings and campaign configs
written on a machine *with* MPI stay parseable everywhere; on machines
without ``mpi4py`` the registry reports the backend unavailable and
:func:`launch_mpi` raises :class:`BackendUnavailableError` instead of
an ``ImportError`` from deep inside a sweep.

When ``mpi4py`` *is* importable the adapter wraps ``MPI.COMM_WORLD``
in the :class:`~repro.comm.base.BaseCommunicator` surface.  Two honest
caveats, stated rather than papered over:

* the process must already run under ``mpiexec`` with the requested
  rank count -- a single-process driver cannot fork an MPI job, so
  :func:`launch_mpi` refuses when the world size does not match;
* ``proc_fail`` injection is not mapped: killing real MPI ranks
  requires ULFM support, which stock MPI builds lack.  Fault-injection
  experiments belong on the ``sim`` and ``shmem`` backends.
"""

from __future__ import annotations

import importlib.util
from typing import Any, Callable, List, Optional, Tuple

from repro.comm.base import BaseCommunicator
from repro.comm.errors import BackendUnavailableError
from repro.machine.model import MachineModel
from repro.comm.ops import ReduceOp
from repro.comm.requests import Request

__all__ = ["mpi4py_available", "launch_mpi", "Mpi4pyComm"]


def mpi4py_available() -> Tuple[bool, str]:
    """Whether ``mpi4py`` is importable, plus the reason when not."""
    if importlib.util.find_spec("mpi4py") is None:
        return False, "the mpi4py package is not installed"
    return True, ""


class Mpi4pyComm(BaseCommunicator):
    """``MPI.COMM_WORLD`` behind the backend-neutral contract.

    Only constructed when ``mpi4py`` imports; the reductions delegate
    to MPI's own (unordered) implementations, so this backend does
    *not* declare ``ordered_reduction`` -- differential gates compare
    it under norm tolerances, never byte identity.
    """

    def __init__(self, mpi_comm, machine: Optional[MachineModel] = None):
        self._comm = mpi_comm
        self._machine = machine if machine is not None else MachineModel.ideal()
        self._clock = 0.0

    @property
    def rank(self) -> int:
        return self._comm.Get_rank()

    @property
    def size(self) -> int:
        return self._comm.Get_size()

    def now(self) -> float:
        return self._clock

    def compute(self, flops: float) -> float:
        self._clock += self._machine.compute_time(flops, rank=self.rank)
        return self._clock

    def advance(self, seconds: float) -> float:
        self._clock += float(seconds)
        return self._clock

    def alive_ranks(self) -> List[int]:
        return list(range(self.size))

    def dead_ranks(self) -> List[int]:
        return []

    def is_alive(self, rank: int) -> bool:
        return 0 <= rank < self.size

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._comm.send(obj, dest=dest, tag=tag)

    def recv(self, source: int, tag: int = 0) -> Any:
        return self._comm.recv(source=source, tag=tag)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        req = self._comm.isend(obj, dest=dest, tag=tag)
        return Request(lambda _r: req.wait(), operation="isend")

    def irecv(self, source: int, tag: int = 0) -> Request:
        req = self._comm.irecv(source=source, tag=tag)
        return Request(lambda _r: req.wait(), operation="irecv")

    def _mpi_op(self, op: ReduceOp):
        from mpi4py import MPI

        table = {
            "sum": MPI.SUM,
            "max": MPI.MAX,
            "min": MPI.MIN,
            "prod": MPI.PROD,
            "land": MPI.LAND,
            "lor": MPI.LOR,
        }
        try:
            return table[op.name.lower()]
        except KeyError:
            raise BackendUnavailableError(
                "mpi4py", f"reduction op {op.name!r} has no MPI equivalent"
            ) from None

    def _collective(self, kind: str, value: Any, op=None, root=None) -> Any:
        # The front end's forms delegate here; MPI runs the collective.
        args = () if kind == "barrier" else (value,)
        kwargs = {}
        if op is not None:
            kwargs["op"] = self._mpi_op(op)
        if root is not None:
            kwargs["root"] = root
        return getattr(self._comm, kind)(*args, **kwargs)


def launch_mpi(
    n_ranks: int,
    func: Callable[..., Any],
    *args: Any,
    machine: Optional[MachineModel] = None,
    failure_plan=None,
    faults=None,
    fault_seed: Optional[int] = None,
    timeout: Optional[float] = None,
    **kwargs: Any,
) -> List[Any]:
    """Run ``func`` on ``MPI.COMM_WORLD`` (must match ``n_ranks``)."""
    ok, reason = mpi4py_available()
    if not ok:
        raise BackendUnavailableError("mpi4py", reason)
    if faults is not None or failure_plan is not None:
        raise BackendUnavailableError(
            "mpi4py", "fault injection requires the sim or shmem backend"
        )
    from mpi4py import MPI

    world = MPI.COMM_WORLD
    if world.Get_size() != int(n_ranks):
        raise BackendUnavailableError(
            "mpi4py",
            f"world size {world.Get_size()} != requested {n_ranks}; "
            "run under mpiexec with a matching rank count",
        )
    comm = Mpi4pyComm(world, machine=machine)
    value = func(comm, *args, **kwargs)
    return world.allgather(value)
