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

__all__ = ["collective_time"]


def _log2ceil(n_ranks: int) -> int:
    if n_ranks <= 1:
        return 0
    return int(math.ceil(math.log2(n_ranks)))


def collective_time(machine: MachineModel, n_ranks: int, n_bytes: float) -> float:
    """Cost of one collective carrying ``n_bytes`` -- the one cost rule.

    ``ceil(log2 P)`` rounds of a recursive-doubling allreduce or a
    binomial-tree broadcast, each paying the latency (scaled by the
    machine model's collective latency factor) plus transmission of the
    (typically tiny) payload.  A barrier is the zero-byte case, and an
    allgather is charged as a broadcast of its largest contribution.
    """
    check_integer(n_ranks, "n_ranks")
    check_non_negative(n_bytes, "n_bytes")
    rounds = _log2ceil(n_ranks)
    alpha = machine.latency * machine.collective_latency_factor
    return rounds * (alpha + n_bytes / machine.bandwidth)
