"""Pluggable communicator backends behind one abstract interface.

:class:`~repro.comm.base.BaseCommunicator` is the one front end of the
SPMD communicator contract -- collective forms, completion rule, cost
rule, rank checks -- and every backend subclasses it.  The
backend-neutral vocabulary lives here too: reduction ops
(:mod:`repro.comm.ops`), requests (:mod:`repro.comm.requests`), payload
helpers (:mod:`repro.comm.base`) and errors (:mod:`repro.comm.errors`).  Backends
sit behind a serializable :class:`~repro.comm.spec.CommSpec`:

========  ==========================================================
``sim``    the deterministic simulator (threads + virtual time)
``shmem``  real OS processes over pipes + ``shared_memory`` buffers
``mpi4py`` real MPI, import-gated (listing-stable, launch-gated)
========  ==========================================================

The same :class:`FaultSpec` strings drive fault injection on every
backend -- ``proc_fail`` is a virtual death on ``sim`` and a real
SIGKILL on ``shmem``; ``msg_corrupt`` draws the identical corruption
stream on both -- and ``tests/test_comm_conformance.py`` pins one
contract suite plus a sim-vs-shmem differential across all of them.

Typical use::

    from repro.comm import resolve_backend

    backend = resolve_backend("shmem:procs=4")
    values = backend.launch(my_rank_func, faults="proc_fail:times=0.5,ranks=1")
"""

from repro.comm.base import BaseCommunicator
from repro.comm.errors import (
    BackendUnavailableError,
    CommTimeoutError,
    ProcFailure,
)
from repro.comm.registry import (
    BackendRegistry,
    BoundBackend,
    RegisteredBackend,
    backend_names,
    default_backend_registry,
    resolve_backend,
)
from repro.comm.spec import COMM_KINDS, CommSpec

__all__ = [
    "BackendRegistry",
    "BackendUnavailableError",
    "BaseCommunicator",
    "BoundBackend",
    "COMM_KINDS",
    "CommSpec",
    "CommTimeoutError",
    "ProcFailure",
    "RegisteredBackend",
    "backend_names",
    "default_backend_registry",
    "resolve_backend",
]
