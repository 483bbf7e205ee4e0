"""SPMD execution of simulated ranks.

:class:`SimRuntime` creates one thread per rank, hands each a
:class:`~repro.simmpi.comm.Comm`, and runs the user's SPMD function.
Hard faults (from a :class:`~repro.reliability.process.FailurePlan`) surface
inside the affected rank as
:class:`~repro.comm.errors.ProcessDeathError`, which the runtime
catches: the rank is marked dead, its thread exits, and all other ranks
learn about it through their next dependent communication.

The LFLR programming model additionally needs the ability to *replace*
a failed rank: :meth:`SimRuntime.respawn` starts a new incarnation of a
dead rank, typically running a user-registered recovery function (see
:mod:`repro.lflr`).
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.errors import ProcessDeathError, SimMpiError
from repro.machine.model import MachineModel
from repro.simmpi.comm import Comm
from repro.simmpi.state import RuntimeState
from repro.utils.logging import EventLog
from repro.utils.validation import check_integer

if TYPE_CHECKING:  # the reliability layer sits above the runtime
    from repro.reliability.process import FailurePlan

__all__ = ["SimRuntime", "RankResult", "run_spmd", "coerce_failure_plan",
           "resolve_job_faults"]


def coerce_failure_plan(plan, n_ranks: int, *, seed: Optional[int] = None) -> FailurePlan:
    """Coerce a failure plan or declarative fault spec into a plan.

    Accepts ``None`` (no failures), a ready
    :class:`~repro.reliability.process.FailurePlan`, or anything
    :func:`repro.reliability.resolve_faults` accepts (a registry name,
    a compact spec string such as ``"proc_fail:mtbf=3600,horizon=7200"``,
    a dict, a :class:`~repro.reliability.spec.FaultSpec` or a built
    model) -- the one uniform way every layer names its fault axis.
    Composite specs contribute their ``proc_fail`` component; specs
    with no process-failure component coerce to an empty plan.
    """
    # Local imports: the reliability layer sits above the runtime.
    from repro.reliability.process import FailurePlan

    if plan is None:
        return FailurePlan.none()
    if isinstance(plan, FailurePlan):
        return plan
    from repro.reliability.models import FaultCapabilityError
    from repro.reliability.registry import resolve_faults

    model = resolve_faults(plan)
    try:
        return model.failure_plan(n_ranks=n_ranks, seed=seed)
    except FaultCapabilityError:
        return FailurePlan.none()


def resolve_job_faults(
    n_ranks: int,
    failure_plan=None,
    faults=None,
    fault_seed: Optional[int] = None,
) -> Tuple[FailurePlan, Optional[Callable[[int], Callable]]]:
    """The fault axis of one SPMD job, as every launcher resolves it.

    Refuses an ``n_ranks`` that is not a positive integer (bools,
    floats and strings included), then returns ``(plan, factory)``:
    the failure plan -- ``failure_plan`` if given, else the
    ``proc_fail`` component of ``faults`` -- and, when ``faults`` has a
    ``msg_corrupt`` component, a ``rank -> corruptor`` factory (else
    ``None``).  Each rank's corruptor draws from a stream named after
    the rank, so any launcher agreeing on ``(fault_seed, rank)``
    replays the same corruption sequence (see
    :mod:`repro.reliability.seeding`).
    """
    check_integer(n_ranks, "n_ranks")
    if n_ranks <= 0:
        raise ValueError("n_ranks must be positive")
    factory = None
    if faults is not None:
        from repro.reliability.registry import resolve_faults

        model = resolve_faults(faults)
        if failure_plan is None:
            failure_plan = model
        msg_model = model.component("msg_corrupt")
        if msg_model is not None:
            def factory(rank: int):
                return msg_model.message_corruptor(
                    seed=fault_seed, name=f"messages/{rank}"
                )
    return coerce_failure_plan(failure_plan, int(n_ranks), seed=fault_seed), factory


@dataclass
class RankResult:
    """Outcome of one rank incarnation.

    Attributes
    ----------
    rank:
        The rank id.
    value:
        Return value of the SPMD/recovery function (``None`` if the
        rank died or raised).
    died:
        Whether this incarnation was terminated by a hard fault.
    death_time:
        Virtual time of the hard fault, if any.
    exception:
        Unhandled exception raised by the rank function (excluding the
        hard-fault mechanism), if any.
    busy_time / idle_time / finish_time:
        Virtual-time accounting read off the rank's clock at exit.
    """

    rank: int
    value: Any = None
    died: bool = False
    death_time: Optional[float] = None
    exception: Optional[BaseException] = None
    busy_time: float = 0.0
    idle_time: float = 0.0
    finish_time: float = 0.0


@dataclass
class _RankThread:
    thread: threading.Thread
    comm: Comm
    result: RankResult


class SimRuntime:
    """Owns the shared state and the rank threads of one simulated job.

    Parameters
    ----------
    n_ranks:
        Number of simulated MPI ranks.
    machine:
        Machine model used for virtual-time accounting (defaults to
        :meth:`MachineModel.ideal`).
    failure_plan:
        Hard-fault plan; ``None`` means no rank ever dies.  Also
        accepts a declarative fault spec (registry name, compact spec
        string, dict, :class:`~repro.reliability.spec.FaultSpec` or
        built model) resolved through :func:`resolve_job_faults`.
    faults:
        Declarative fault spec for the runtime as a whole: its
        ``proc_fail`` component supplies the failure plan (unless
        ``failure_plan`` is given explicitly) and its ``msg_corrupt``
        component corrupts message payloads on the simulated
        interconnect.
    fault_seed:
        Seed of the fault streams spec resolution draws from.
    watchdog:
        Wall-clock seconds a rank may block in one operation before the
        runtime declares the simulated program deadlocked.
    """

    def __init__(
        self,
        n_ranks: int,
        machine: Optional[MachineModel] = None,
        failure_plan: Optional[FailurePlan] = None,
        *,
        faults=None,
        fault_seed: Optional[int] = None,
        watchdog: float = 30.0,
    ):
        self.failure_plan, self._corruptor_factory = resolve_job_faults(
            n_ranks, failure_plan, faults, fault_seed
        )
        self.n_ranks = int(n_ranks)
        self.machine = machine if machine is not None else MachineModel.ideal()
        self.state = RuntimeState(self.n_ranks, watchdog=watchdog)
        self._threads: Dict[int, _RankThread] = {}
        self._extra_results: List[RankResult] = []
        self._started = False

    # ------------------------------------------------------------------
    @property
    def log(self) -> EventLog:
        """Shared event log (rank deaths, respawns, collective failures)."""
        return self.state.log

    def _failure_times_for(self, rank: int) -> List[float]:
        return [f.time for f in self.failure_plan.failures_for_rank(rank)]

    def _make_comm(self, rank: int, born_at: float = 0.0) -> Comm:
        corruptor = (
            self._corruptor_factory(rank)
            if self._corruptor_factory is not None
            else None
        )
        return Comm(
            self.state,
            rank,
            self.machine,
            failure_times=self._failure_times_for(rank),
            born_at=born_at,
            message_corruptor=corruptor,
        )

    def _run_rank(
        self,
        comm: Comm,
        func: Callable[..., Any],
        args: Sequence[Any],
        kwargs: Dict[str, Any],
        result: RankResult,
    ) -> None:
        try:
            # Overflow/NaN *is* the expected effect of corrupted
            # payloads, and errstate is per thread: scope it where the
            # rank that receives them runs.
            corrupted = self._corruptor_factory is not None
            with np.errstate(over="ignore", invalid="ignore") if corrupted else nullcontext():
                result.value = func(comm, *args, **kwargs)
        except ProcessDeathError as death:
            result.died = True
            result.death_time = death.time
            self.state.mark_dead(comm.rank, death.time)
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            result.exception = exc
            # A crashed rank is as dead as a failed one from the other
            # ranks' perspective; mark it so they do not hang.
            self.state.mark_dead(comm.rank, comm.clock.now)
        finally:
            result.busy_time = comm.clock.busy_time
            result.idle_time = comm.clock.idle_time
            result.finish_time = comm.clock.now
            # Publish that this incarnation will never communicate again,
            # so receives/collectives blocked on it resolve -- but only
            # if it is still the current incarnation (a respawn may have
            # replaced it while this thread was winding down).  The
            # identity check and the mark must be one atomic step under
            # the state lock: respawn() swaps the entry and marks the
            # rank alive under the same lock, so a winding-down thread
            # can never stamp "terminated" onto a fresh replacement.
            with self.state.condition:
                entry = self._threads.get(comm.rank)
                if entry is not None and entry.comm is comm:
                    self.state.mark_terminated(comm.rank)

    # ------------------------------------------------------------------
    def start(
        self,
        func: Callable[..., Any],
        *args: Any,
        **kwargs: Any,
    ) -> None:
        """Launch all ranks running ``func(comm, *args, **kwargs)``.

        Non-blocking; use :meth:`join` (or :meth:`run`, which does both)
        to collect results.
        """
        if self._started:
            raise SimMpiError("this runtime has already been started")
        self._started = True
        for rank in range(self.n_ranks):
            comm = self._make_comm(rank)
            result = RankResult(rank=rank)
            thread = threading.Thread(
                target=self._run_rank,
                args=(comm, func, args, kwargs, result),
                name=f"simrank-{rank}",
                daemon=True,
            )
            self._threads[rank] = _RankThread(thread=thread, comm=comm, result=result)
        for entry in self._threads.values():
            entry.thread.start()

    def respawn(
        self,
        rank: int,
        func: Callable[..., Any],
        *args: Any,
        born_at: Optional[float] = None,
        **kwargs: Any,
    ) -> None:
        """Start a replacement incarnation of a dead rank.

        Parameters
        ----------
        rank:
            The dead rank to replace.
        func:
            Recovery function run as ``func(comm, *args, **kwargs)``.
        born_at:
            Virtual start time of the new incarnation.  Defaults to the
            dead rank's death time plus the machine model's
            local-recovery overhead.  The default deliberately uses
            only virtual-time quantities that are a pure function of
            the failure schedule: sampling the *live* clocks of the
            surviving rank threads here would make the respawn time
            depend on wall-clock thread interleaving and the whole
            simulation nondeterministic (the survivors' synchronization
            with the replacement is the recovery protocol's job --- see
            the barrier in :meth:`repro.lflr.manager.LFLRManager.recover`).
            Callers that model "respawn initiated after detection" pass
            the detecting rank's virtual time explicitly.
        """
        check_integer(rank, "rank")
        if rank not in self.state.dead:
            raise SimMpiError(f"rank {rank} is not dead; cannot respawn it")
        if born_at is None:
            base = self.state.death_times.get(rank, 0.0)
            born_at = base + self.machine.local_recovery_overhead
        comm = self._make_comm(rank, born_at=float(born_at))
        result = RankResult(rank=rank)
        thread = threading.Thread(
            target=self._run_rank,
            args=(comm, func, args, kwargs, result),
            name=f"simrank-{rank}-respawn",
            daemon=True,
        )
        # Swap in the new incarnation and mark it alive atomically with
        # respect to the old thread's wind-down (see _run_rank's
        # terminated-marking), preserving the original incarnation's
        # result for reporting.
        with self.state.condition:
            if rank in self._threads:
                self._extra_results.append(self._threads[rank].result)
            self._threads[rank] = _RankThread(thread=thread, comm=comm, result=result)
            self.state.mark_alive(rank, float(born_at))
        thread.start()

    def join(self, timeout: float = 120.0) -> List[RankResult]:
        """Wait for all rank threads and return their results.

        Raises the first unhandled exception of any rank (deadlock and
        programming errors should fail tests loudly); rank deaths from
        the failure plan are *not* exceptions -- they are reported via
        :attr:`RankResult.died`.
        """
        if not self._started:
            raise SimMpiError("runtime was never started")
        for entry in self._threads.values():
            entry.thread.join(timeout=timeout)
        for entry in self._threads.values():
            if entry.thread.is_alive():
                raise SimMpiError(
                    f"rank {entry.result.rank} did not finish within {timeout}s of wall time"
                )
        results = [entry.result for entry in self._threads.values()]
        for result in results:
            if result.exception is not None:
                raise result.exception
        return sorted(results + self._extra_results, key=lambda r: r.rank)

    def run(
        self,
        func: Callable[..., Any],
        *args: Any,
        timeout: float = 120.0,
        **kwargs: Any,
    ) -> List[RankResult]:
        """Convenience: :meth:`start` followed by :meth:`join`."""
        self.start(func, *args, **kwargs)
        return self.join(timeout=timeout)

    # ------------------------------------------------------------------
    def values(self, results: Optional[List[RankResult]] = None) -> List[Any]:
        """Return the per-rank return values in rank order."""
        if results is None:
            results = [entry.result for entry in self._threads.values()]
        ordered = sorted(results, key=lambda r: r.rank)
        return [r.value for r in ordered]

    def max_finish_time(self) -> float:
        """Latest virtual finish time over all rank incarnations."""
        times = [entry.result.finish_time for entry in self._threads.values()]
        times += [r.finish_time for r in self._extra_results]
        return max(times) if times else 0.0


def run_spmd(
    n_ranks: int,
    func: Callable[..., Any],
    *args: Any,
    machine: Optional[MachineModel] = None,
    failure_plan: Optional[FailurePlan] = None,
    faults=None,
    fault_seed: Optional[int] = None,
    watchdog: float = 30.0,
    **kwargs: Any,
) -> List[Any]:
    """One-shot helper: run ``func`` on ``n_ranks`` ranks, return values.

    This is the most common entry point for examples and tests::

        def program(comm):
            return comm.allreduce(comm.rank)

        totals = run_spmd(4, program)   # [6, 6, 6, 6]

    ``failure_plan`` and ``faults`` accept declarative fault specs
    exactly like :class:`SimRuntime`.
    """
    runtime = SimRuntime(
        n_ranks, machine=machine, failure_plan=failure_plan,
        faults=faults, fault_seed=fault_seed, watchdog=watchdog,
    )
    results = runtime.run(func, *args, **kwargs)
    by_rank: Dict[int, Any] = {}
    for result in results:
        # Prefer a surviving incarnation's value over a dead one's.
        if result.rank not in by_rank or not result.died:
            by_rank[result.rank] = result.value
    return [by_rank[rank] for rank in range(n_ranks)]
