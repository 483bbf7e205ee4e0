"""Analytic cost models for collective operations.

The scaling arguments of the paper (Sections II-B and III-B) rest on a
simple fact: tree-based collectives have a latency term that grows like
``ceil(log2 P)`` while the useful per-rank work in a fixed-size-per-rank
(weak-scaling) regime stays constant, so at large enough P the
collective latency -- amplified by per-rank performance variability --
dominates.  The functions here implement the standard LogP/alpha-beta
style cost formulas used by the pipelined-Krylov literature; the noise
amplification of synchronous collectives is modelled in
:mod:`repro.rbsp.variability`.
"""

from __future__ import annotations

import math

from repro.machine.model import MachineModel
from repro.utils.validation import check_integer, check_non_negative

__all__ = ["allreduce_time", "broadcast_time", "barrier_time", "collective_time"]


def _log2ceil(n_ranks: int) -> int:
    if n_ranks <= 1:
        return 0
    return int(math.ceil(math.log2(n_ranks)))


def allreduce_time(machine: MachineModel, n_ranks: int, n_bytes: float) -> float:
    """Recursive-doubling allreduce cost.

    ``ceil(log2 P)`` rounds, each paying the latency plus transmission
    of the (typically tiny) payload.  The collective latency factor of
    the machine model scales the latency term.
    """
    check_integer(n_ranks, "n_ranks")
    check_non_negative(n_bytes, "n_bytes")
    rounds = _log2ceil(n_ranks)
    alpha = machine.latency * machine.collective_latency_factor
    return rounds * (alpha + n_bytes / machine.bandwidth)


def broadcast_time(machine: MachineModel, n_ranks: int, n_bytes: float) -> float:
    """Binomial-tree broadcast cost."""
    check_integer(n_ranks, "n_ranks")
    check_non_negative(n_bytes, "n_bytes")
    rounds = _log2ceil(n_ranks)
    alpha = machine.latency * machine.collective_latency_factor
    return rounds * (alpha + n_bytes / machine.bandwidth)


def barrier_time(machine: MachineModel, n_ranks: int) -> float:
    """Barrier modeled as a zero-byte allreduce."""
    return allreduce_time(machine, n_ranks, 0.0)


def collective_time(machine: MachineModel, kind: str, n_ranks: int, n_bytes: float) -> float:
    """Cost of one collective of ``kind`` -- the communicators' one cost rule.

    ``barrier`` is a zero-byte allreduce; ``bcast`` and ``allgather``
    are modeled as a broadcast tree carrying ``n_bytes``; ``allreduce``
    is itself.
    """
    if kind == "barrier":
        return barrier_time(machine, n_ranks)
    if kind in ("bcast", "allgather"):
        return broadcast_time(machine, n_ranks, n_bytes)
    return allreduce_time(machine, n_ranks, n_bytes)
