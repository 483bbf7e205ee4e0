"""Analytic scaling of synchronous vs pipelined Krylov iterations (E3).

Section II-B of the paper argues that performance variability plus
frequent synchronous collectives "leads to severe limitations in
scalability, especially as we go to a million or more processes", and
Section III-B that pipelined Krylov methods restore scalability by
hiding the collective latency behind useful work.  The threaded
simulator cannot run a million ranks, so experiment E3 evaluates the
standard analytic model at large P (this module), anchored by the
iteration counts and per-iteration operation mix measured from the
actual solver implementations at small scale.

Model of one Krylov iteration in a weak-scaling regime (fixed rows per
rank):

* local work: sparse matvec + vector updates, time ``t_flops``;
* ``n_reductions`` global reductions, each ``collective_time(P)``;
* synchronous variant: each reduction also waits for the slowest rank's
  noise (expected maximum over P of the per-operation noise, which for
  exponential-type noise grows like the harmonic number H_P);
* pipelined variant: the reductions of one iteration are fused into
  ``n_waves`` non-blocking waves overlapped with an overlap window of
  length ``overlap``; only the *exposed* part (cost - overlap, if
  positive) is paid, and the straggler penalty is paid once per wave
  rather than once per reduction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

from repro.machine.collective_cost import collective_time
from repro.machine.model import MachineModel
from repro.utils.tables import Table
from repro.utils.validation import check_integer, check_non_negative

__all__ = [
    "IterationTimeModel",
    "synchronous_iteration_time",
    "pipelined_iteration_time",
    "scaling_study",
]


#: Euler-Mascheroni constant for the asymptotic harmonic expansion.
_EULER_GAMMA = 0.57721566490153286060651209008240243


@functools.lru_cache(maxsize=None)
def _harmonic(n: int) -> float:
    """Harmonic number ``H_n``.

    The scaling study evaluates this at every process count up to 2^20;
    a term-by-term Python sum is O(n) interpreted work per call and
    dominated experiment E3's wall clock.  Small ``n`` uses an exact
    vectorized sum; large ``n`` the Euler-Maclaurin expansion
    ``H_n = ln n + gamma + 1/(2n) - 1/(12 n^2) + 1/(120 n^4)``, whose
    truncation error (< 1/(252 n^6)) is far below double rounding noise
    at the crossover.
    """
    n = max(int(n), 1)
    if n <= 4096:
        return float(np.reciprocal(np.arange(1, n + 1, dtype=np.float64)).sum())
    inv = 1.0 / n
    return (
        math.log(n)
        + _EULER_GAMMA
        + 0.5 * inv
        - (inv * inv) / 12.0
        + (inv * inv * inv * inv) / 120.0
    )


@dataclass
class IterationTimeModel:
    """Per-iteration workload description of a Krylov method.

    Attributes
    ----------
    local_flops:
        Flops of local work per rank per iteration (matvec + axpys).
    n_reductions:
        Number of global reductions a synchronous iteration performs
        (CG: 2-3; MGS-GMRES at Krylov dimension j: j + 2).
    reduction_bytes:
        Payload of each reduction.
    pipeline_waves:
        Number of fused non-blocking reduction waves the pipelined
        variant performs per iteration (1 for pipelined CG and
        single-reduce GMRES; 2 with re-orthogonalization).
    overlap_fraction:
        Fraction of the local work available to overlap each wave with
        (the pipelined algorithms overlap the reduction with the next
        matvec, so ~1.0; a conservative 0.8 is the default).
    """

    local_flops: float
    n_reductions: int = 2
    reduction_bytes: float = 8.0
    pipeline_waves: int = 1
    overlap_fraction: float = 0.8

    def __post_init__(self) -> None:
        check_non_negative(self.local_flops, "local_flops")
        check_integer(self.n_reductions, "n_reductions")
        check_integer(self.pipeline_waves, "pipeline_waves")
        if self.n_reductions < 0 or self.pipeline_waves <= 0:
            raise ValueError("n_reductions must be >= 0 and pipeline_waves >= 1")
        if not 0.0 <= self.overlap_fraction <= 1.0:
            raise ValueError("overlap_fraction must lie in [0, 1]")


def synchronous_iteration_time(
    machine: MachineModel, model: IterationTimeModel, n_ranks: int
) -> float:
    """Expected time of one synchronous (blocking-collective) iteration."""
    check_integer(n_ranks, "n_ranks")
    compute = model.local_flops / machine.flop_rate
    noise_mean = machine.noise.mean_overhead(compute)
    straggler = noise_mean * _harmonic(n_ranks)
    reduction = collective_time(machine, n_ranks, model.reduction_bytes)
    # Every blocking reduction is a synchronization point: it pays the
    # collective latency plus the wait for the slowest rank.
    return compute + model.n_reductions * (reduction + straggler)


def pipelined_iteration_time(
    machine: MachineModel, model: IterationTimeModel, n_ranks: int
) -> float:
    """Expected time of one pipelined (overlapped-collective) iteration."""
    check_integer(n_ranks, "n_ranks")
    compute = model.local_flops / machine.flop_rate
    noise_mean = machine.noise.mean_overhead(compute)
    straggler = noise_mean * _harmonic(n_ranks)
    reduction = collective_time(machine, n_ranks, model.reduction_bytes)
    overlap_window = model.overlap_fraction * compute / model.pipeline_waves
    exposed_per_wave = max(reduction + straggler - overlap_window, 0.0)
    return compute + model.pipeline_waves * exposed_per_wave


def scaling_study(
    machine: MachineModel,
    model: IterationTimeModel,
    rank_counts: Sequence[int],
    *,
    iterations: int = 100,
) -> Table:
    """Tabulate synchronous vs pipelined solve time across process counts.

    Returns a :class:`~repro.utils.tables.Table` with, per process
    count, the per-iteration and total times of both variants, the
    speedup, and the parallel efficiency of each relative to its own
    single-process-group baseline -- the series experiment E3 plots.
    """
    check_integer(iterations, "iterations")
    counts: List[int] = [int(p) for p in rank_counts]
    if not counts or any(p <= 0 for p in counts):
        raise ValueError("rank_counts must be positive integers")
    table = Table(
        [
            "ranks",
            "sync_iter_time",
            "pipe_iter_time",
            "speedup",
            "sync_efficiency",
            "pipe_efficiency",
            "sync_total",
            "pipe_total",
        ],
        title="Synchronous vs pipelined Krylov iteration (weak scaling)",
    )
    base_sync = synchronous_iteration_time(machine, model, counts[0])
    base_pipe = pipelined_iteration_time(machine, model, counts[0])
    for p in counts:
        sync_t = synchronous_iteration_time(machine, model, p)
        pipe_t = pipelined_iteration_time(machine, model, p)
        table.add_row(
            p,
            sync_t,
            pipe_t,
            sync_t / pipe_t if pipe_t > 0 else float("inf"),
            base_sync / sync_t if sync_t > 0 else 0.0,
            base_pipe / pipe_t if pipe_t > 0 else 0.0,
            sync_t * iterations,
            pipe_t * iterations,
        )
    return table
