"""Relaxed Bulk-Synchronous Programming (RBSP) -- paper §II-B and §III-B.

RBSP is bulk-synchronous programming with the synchronization relaxed:
MPI-3 style non-blocking (neighborhood and global) collectives let an
algorithm start a reduction, do useful work, and only then wait.  The
pipelined Krylov solvers in :mod:`repro.krylov` are the flagship
algorithms; :mod:`repro.rbsp.variability` is the analytic scaling
study behind experiment E3: time-per-iteration models of synchronous
versus pipelined Krylov methods under performance variability,
evaluated at process counts far beyond what the threaded runtime can
simulate.
"""

from repro.rbsp.variability import (
    IterationTimeModel,
    synchronous_iteration_time,
    pipelined_iteration_time,
    scaling_study,
)

__all__ = [
    "IterationTimeModel",
    "synchronous_iteration_time",
    "pipelined_iteration_time",
    "scaling_study",
]
