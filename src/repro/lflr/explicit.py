"""Locally restarted explicit heat equation (experiment E4's workload).

This is the end-to-end demonstration of the LFLR model on the paper's
"easy" case (§III-C, explicit methods): a 1-D explicit heat solve
distributed over simulated ranks, with

* per-step persistence of each rank's block into the
  :class:`~repro.lflr.store.PersistentStore` (local copy + partner
  mirror),
* hard faults injected by the runtime's failure plan,
* detection through the ULFM-style errors of the simulated runtime,
* recovery by the :class:`~repro.lflr.manager.LFLRManager`: the dead
  rank is respawned, pulls its last persisted block from its partner's
  mirror, every rank rolls back to the globally agreed resume step, and
  the time loop continues.

Protocol of one loop iteration (every rank, every iteration):

1. ``allreduce(step, MIN)`` -- the *agreement*: doubles as the per-step
   failure detector (a dead rank fails the collective for everyone) and
   as the resume-point negotiation after a recovery;
2. roll back to the agreed step from the local persistent store if this
   rank had run ahead;
3. persist the current block (local + partner mirror);
4. one explicit step with halo exchange.

On any :class:`~repro.comm.errors.RankFailedError` the rank runs the
LFLR recovery protocol (revoke, new epoch, respawn, barrier), then --
if it holds the mirror of a failed rank -- sends that mirror to the
replacement, and re-enters the loop; the next agreement brings every
rank back to a consistent step.  The final field is therefore
bit-identical to a failure-free run.

The driver returns enough information to verify that correctness and to
measure cost (virtual time, number of recoveries, rolled-back steps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.comm.errors import RankFailedError
from repro.comm.ops import MIN
from repro.comm.sim import SimRuntime
from repro.reliability.process import FailurePlan
from repro.lflr.manager import LFLRManager
from repro.lflr.store import PersistentStore
from repro.machine.model import MachineModel
from repro.pde.grid import Grid1D
from repro.pde.heat import gaussian_initial_condition, heat_step_distributed, stable_time_step
from repro.utils.validation import check_integer, check_positive

__all__ = ["LflrHeatResult", "run_lflr_heat"]


@dataclass
class LflrHeatResult:
    """Outcome of an LFLR heat run.

    Attributes
    ----------
    field:
        The final global temperature field.
    n_steps:
        Number of time steps of the run.
    n_recoveries:
        How many recovery events occurred (max over ranks).
    steps_rolled_back:
        Total steps re-executed because of rollbacks (sum over ranks).
    virtual_time:
        Maximum virtual finish time over all ranks.
    recovery_time:
        Total virtual time spent inside recovery (max over ranks).
    events:
        Kind -> count summary of the runtime's event log.
    """

    field: np.ndarray
    n_steps: int
    n_recoveries: int
    steps_rolled_back: int
    virtual_time: float
    recovery_time: float
    events: Dict[str, int] = field(default_factory=dict)


def _rank_program(
    comm,
    runtime: SimRuntime,
    config: dict,
    *,
    needs_restore: bool = False,
):
    """The SPMD program each rank (and each replacement) runs."""
    n_global = config["n_global"]
    n_steps = config["n_steps"]
    alpha = config["alpha"]
    dt = config["dt"]
    partner_offset = config.get("partner_offset", 1)

    grid = Grid1D(comm, n_global)
    store = PersistentStore(
        comm, partner_offset=partner_offset, history=config.get("history", 4)
    )
    manager = LFLRManager(comm, runtime)

    def recovery_entry(new_comm, new_epoch, context):
        # Runs inside the replacement rank: synchronize with the
        # survivors, then restart the program in restore mode.
        LFLRManager.join_as_replacement(new_comm, new_epoch)
        return _rank_program(new_comm, runtime, config, needs_restore=True)

    manager.register_recovery(recovery_entry)

    rollback_steps = 0

    if needs_restore and comm.size > 1:
        # Replacement rank: the survivor holding this rank's mirror sends
        # it right after the recovery barrier (see the except-branch in
        # the loop below), so a plain receive pairs with it.
        entry = store.request_restore(holder=store.partner)
        if entry is None:
            u_local = gaussian_initial_condition(grid.local_coordinates())
            step = 0
        else:
            u_local = np.asarray(entry.state["u"], dtype=np.float64)
            step = int(entry.step)
    else:
        u_local = gaussian_initial_condition(grid.local_coordinates())
        step = 0

    while True:
        try:
            # Agreement: the global resume point.  Doubles as the per-step
            # failure detector and as the collective exit test.
            agreed = int(comm.allreduce(step, op=MIN))
            if agreed >= n_steps:
                break
            if agreed < step:
                restored = store.own_at_step(agreed)
                if restored is not None:
                    u_local = np.asarray(restored.state["u"], dtype=np.float64)
                    rollback_steps += step - agreed
                    step = agreed
            # Persist the state we are about to advance from.
            store.persist(step, {"u": u_local})
            u_local = heat_step_distributed(grid, u_local, dt, alpha)
            step += 1
        except RankFailedError as error:
            outcome = manager.recover(error, context={})
            # If this rank holds the mirror of a failed rank, hand the
            # mirrored snapshot to the freshly respawned replacement.
            for dead in outcome.failed_ranks:
                holder = (dead + partner_offset) % comm.size
                if holder == comm.rank and dead != comm.rank:
                    store.reply_restore(requester=dead, owner=dead)
            continue

    full_field = grid.gather_field(u_local)
    recovery_time = sum(o.recovery_time for o in manager.recoveries)
    return {
        "field": full_field,
        "rank": comm.rank,
        "recoveries": manager.n_recoveries,
        "rollback_steps": rollback_steps,
        "recovery_time": recovery_time,
        "finish_time": comm.now(),
    }


def run_lflr_heat(
    n_ranks: int = 4,
    *,
    n_global: int = 64,
    n_steps: int = 40,
    alpha: float = 1.0,
    failure_plan: Optional[FailurePlan] = None,
    machine: MachineModel,
    faults=None,
    fault_seed: Optional[int] = None,
    partner_offset: int = 1,
    history: int = 4,
) -> LflrHeatResult:
    """Run the LFLR explicit heat solver end to end.

    Parameters
    ----------
    n_ranks:
        Number of simulated ranks.
    n_global:
        Global number of interior grid points.
    n_steps:
        Number of explicit time steps.
    alpha:
        Diffusivity (the stable time step is derived from it).
    failure_plan:
        Hard-fault plan in *virtual seconds* (``None`` = fault free).
    machine:
        Machine model driving virtual time.
    faults, fault_seed:
        Declarative fault spec forwarded to :class:`SimRuntime`
        (an explicit ``failure_plan`` still wins for hard faults; the
        spec's ``msg_corrupt`` component corrupts message payloads).
    partner_offset, history:
        Persistent-store parameters (see
        :class:`~repro.lflr.store.PersistentStore`).

    Returns
    -------
    LflrHeatResult

    Notes
    -----
    Simultaneous failure of a rank and the partner holding its mirror is
    not supported (the redundant copy would be lost); choose
    ``partner_offset`` so correlated failures map to distinct partners,
    or increase the failure-plan granularity.  Likewise, a second
    failure striking *while a recovery is still in progress* (within
    roughly ``machine.local_recovery_overhead`` virtual seconds of the
    first) is not handled; space planned failures further apart than the
    recovery time, which is also the physically sensible regime for the
    experiment.
    """
    check_integer(n_ranks, "n_ranks")
    check_integer(n_global, "n_global")
    check_integer(n_steps, "n_steps")
    check_positive(alpha, "alpha")
    if n_ranks < 2 and failure_plan is not None and len(failure_plan) > 0:
        raise ValueError("failures require at least 2 ranks (no partner otherwise)")
    h = 1.0 / (n_global + 1)
    config = {
        "n_global": n_global,
        "n_steps": n_steps,
        "alpha": alpha,
        "dt": stable_time_step(h, alpha),
        "partner_offset": partner_offset,
        "history": history,
    }
    runtime = SimRuntime(
        n_ranks, machine=machine, failure_plan=failure_plan,
        faults=faults, fault_seed=fault_seed,
    )
    results = runtime.run(_rank_program, runtime, config, timeout=300.0)
    payloads = [r.value for r in results if isinstance(r.value, dict)]
    if not payloads:
        raise RuntimeError("no rank returned a result")
    field_vec = payloads[0]["field"]
    n_recoveries = max(p["recoveries"] for p in payloads)
    rollback = sum(p["rollback_steps"] for p in payloads)
    recovery_time = max(p["recovery_time"] for p in payloads)
    events = {kind: runtime.log.count(kind) for kind in runtime.log.kinds()}
    return LflrHeatResult(
        field=np.asarray(field_vec, dtype=np.float64),
        n_steps=n_steps,
        n_recoveries=n_recoveries,
        steps_rolled_back=rollback,
        virtual_time=runtime.max_finish_time(),
        recovery_time=recovery_time,
        events=events,
    )
