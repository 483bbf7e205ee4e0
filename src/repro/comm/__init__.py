"""The message-passing runtime: one front end, two backends.

:class:`~repro.comm.base.BaseCommunicator` is the one front end of the
SPMD communicator contract -- collective forms, completion rule, cost
rule, rank checks -- and every backend subclasses it.  The
backend-neutral vocabulary lives here too: reduction ops
(:mod:`repro.comm.ops`), requests (:mod:`repro.comm.requests`), payload
helpers (:mod:`repro.comm.base`) and errors (:mod:`repro.comm.errors`),
and the row-distributed vectors and matrices the distributed solvers
run on (:mod:`repro.comm.distributed`).  Backends
sit behind a serializable :class:`~repro.comm.spec.CommSpec`:

========  ==========================================================
``sim``    the deterministic simulator (threads + virtual time),
           :mod:`repro.comm.sim` over :mod:`repro.comm.simstate`
``shmem``  real OS processes over pipes + ``shared_memory`` buffers,
           :mod:`repro.comm.shmem`
========  ==========================================================

The same :class:`FaultSpec` strings drive fault injection on every
backend -- ``proc_fail`` is a virtual death on ``sim`` and a real
SIGKILL on ``shmem``; ``msg_corrupt`` draws the identical corruption
stream on both -- and ``tests/test_comm_conformance.py`` pins one
contract, a property over drawn programs, across both.

Typical use::

    from repro.comm import resolve_backend

    backend = resolve_backend("shmem:procs=4")
    values = backend.launch(my_rank_func, faults="proc_fail:times=0.5,ranks=1")
"""

from repro.comm.base import BaseCommunicator
from repro.comm.errors import CommTimeoutError, ProcFailure
from repro.comm.registry import (
    BackendRegistry,
    BoundBackend,
    RegisteredBackend,
    default_backend_registry,
    resolve_backend,
)
from repro.comm.spec import COMM_KINDS, CommSpec

__all__ = [
    "BackendRegistry",
    "BaseCommunicator",
    "BoundBackend",
    "COMM_KINDS",
    "CommSpec",
    "CommTimeoutError",
    "ProcFailure",
    "RegisteredBackend",
    "default_backend_registry",
    "resolve_backend",
]
