"""The checkpoint/restart execution driver.

:func:`run_cpr_stepped` executes a step-based application under the
classical global CPR discipline: checkpoint every ``interval`` steps;
when a failure strikes, *all* ranks are killed, the job pays the
restart overhead plus checkpoint read time, and execution resumes from
the last checkpoint -- recomputing every step since.  Failures are
driven by the same :class:`~repro.reliability.process.FailurePlan` the LFLR
driver uses, so experiment E4 can compare the two recovery disciplines
on identical failure traces.

The driver is sequential (it executes the global state transition
directly) because CPR's cost structure -- full checkpoint writes, full
restarts, globally lost work -- does not depend on how the step itself
is parallelized; the per-step compute time is taken from the machine
model so the virtual-time comparison against LFLR is apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.checkpoint.store import CheckpointStore
from repro.reliability.process import FailurePlan
from repro.machine.model import MachineModel
from repro.utils.validation import check_integer, check_positive

__all__ = ["CprResult", "run_cpr_stepped"]


@dataclass
class CprResult:
    """Outcome of a checkpoint/restart run.

    Attributes
    ----------
    state:
        Final application state.
    n_steps:
        Number of application steps completed (excluding recomputation).
    steps_recomputed:
        Steps that had to be re-executed after restarts.
    n_restarts:
        Number of global restarts.
    virtual_time:
        Total modeled execution time including checkpoints, restarts
        and recomputation.
    checkpoint_time / restart_time:
        Time spent writing checkpoints and performing restarts.
    """

    state: Dict[str, Any]
    n_steps: int
    steps_recomputed: int
    n_restarts: int
    virtual_time: float
    checkpoint_time: float
    restart_time: float
    info: Dict[str, Any] = field(default_factory=dict)


def run_cpr_stepped(
    step_function: Callable[[Dict[str, Any], int], Dict[str, Any]],
    initial_state: Dict[str, Any],
    n_steps: int,
    *,
    machine: MachineModel,
    n_ranks: int = 4,
    interval: int = 10,
    step_time: float = 1e-3,
    failure_plan: Optional[FailurePlan] = None,
) -> CprResult:
    """Run a step-based computation under global checkpoint/restart.

    Parameters
    ----------
    step_function:
        ``new_state = step_function(state, step_index)``; must be pure
        (it is re-invoked during recomputation).
    initial_state:
        The starting state dictionary (NumPy arrays and scalars).
    n_steps:
        Number of application steps to complete.
    machine:
        Machine model for checkpoint/restart costs.
    n_ranks:
        Number of ranks the equivalent parallel job would use; scales
        the checkpoint bandwidth and maps failure-plan ranks.
    interval:
        Checkpoint every ``interval`` steps.
    step_time:
        Modeled wall time of one application step (virtual seconds).
    failure_plan:
        Hard-fault plan; any failure of any rank kills the whole job
        (that is the point of the baseline).

    Returns
    -------
    CprResult
    """
    check_integer(n_steps, "n_steps")
    check_integer(interval, "interval")
    check_integer(n_ranks, "n_ranks")
    check_positive(step_time, "step_time")
    if interval <= 0 or n_steps < 0:
        raise ValueError("interval must be positive and n_steps non-negative")
    failure_plan = failure_plan if failure_plan is not None else FailurePlan.none()
    store = CheckpointStore(machine, n_ranks=n_ranks)

    # Any rank's failure kills the job: collapse the plan to a sorted list
    # of job-failure times.
    failure_times = sorted(f.time for f in failure_plan.failures)
    next_failure = 0

    state = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in initial_state.items()}
    clock = 0.0
    completed = 0
    steps_recomputed = 0
    n_restarts = 0
    restart_time_total = 0.0

    # Initial checkpoint so a very early failure does not restart from an
    # undefined state.
    checkpoint = store.write(0, state)
    clock += checkpoint.write_time
    last_checkpoint_step = 0

    while completed < n_steps:
        step_start = clock
        step_end = clock + step_time
        # Does a failure strike during this step?
        if next_failure < len(failure_times) and failure_times[next_failure] <= step_end:
            # The job dies: pay restart, reload the last checkpoint, and
            # recompute everything since.
            clock = max(failure_times[next_failure], step_start)
            next_failure += 1
            n_restarts += 1
            restart = store.read_latest()
            restart_cost = machine.restart_overhead + (
                machine.checkpoint_time(restart.nbytes / n_ranks) if restart else 0.0
            )
            restart_time_total += restart_cost
            clock += restart_cost
            if restart is not None:
                state = restart.state
                steps_recomputed += completed - restart.step
                completed = restart.step
                last_checkpoint_step = restart.step
            else:  # pragma: no cover - initial checkpoint always exists
                state = {k: (v.copy() if isinstance(v, np.ndarray) else v)
                         for k, v in initial_state.items()}
                steps_recomputed += completed
                completed = 0
            continue
        # Normal step.
        state = step_function(state, completed)
        completed += 1
        clock = step_end
        if completed % interval == 0 and completed < n_steps:
            checkpoint = store.write(completed, state)
            clock += checkpoint.write_time
            last_checkpoint_step = completed

    return CprResult(
        state=state,
        n_steps=n_steps,
        steps_recomputed=steps_recomputed,
        n_restarts=n_restarts,
        virtual_time=clock,
        checkpoint_time=store.total_write_time,
        restart_time=restart_time_total,
        info={
            "checkpoints_written": store.writes,
            "last_checkpoint_step": last_checkpoint_step,
            "interval": interval,
        },
    )
