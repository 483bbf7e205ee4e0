"""E4 -- Local recovery versus global checkpoint/restart.

Paper claim (§I, §II-C, §III-C): killing every process and restarting
from a global checkpoint is not viable when failures are frequent;
explicit time-stepping applications can instead recover locally from
neighbour-redundant persistent state, at a cost that does not grow with
the machine.

Procedure: run the distributed explicit heat equation under the LFLR
driver with an injected rank failure and verify the final field matches
the failure-free run exactly; then compare, on identical failure
traces, the virtual-time overhead of LFLR recovery against the global
CPR baseline (checkpoint every k steps, full restart and recompute on
failure), sweeping the number of failures.
"""

from __future__ import annotations

import numpy as np

from repro.checkpoint.cpr import run_cpr_stepped
from repro.experiments.common import ExperimentResult, ExperimentSpec, records_parameters
from repro.reliability.process import FailurePlan
from repro.reliability.registry import resolve_faults
from repro.lflr.explicit import run_lflr_heat
from repro.machine.model import MachineModel
from repro.pde.heat import HeatProblem1D, heat_step_explicit, stable_time_step
from repro.utils.tables import Table

__all__ = ["run", "SPEC"]

SPEC = ExperimentSpec(
    experiment="E4",
    name="lflr_vs_cpr",
    title="Local recovery versus global checkpoint/restart",
    claim="An explicit PDE solver recovers locally from process loss with the "
          "correct answer, at a per-failure cost far below a global "
          "checkpoint/restart of the same run.",
    tags=("lflr", "cpr", "pde", "faults"),
    smoke={"n_ranks": 4, "n_global": 32, "n_steps": 15, "failure_counts": (0, 1)},
    golden={
        "n_ranks": 4,
        "n_global": 32,
        "n_steps": 20,
        "failure_counts": (0, 1, 2),
        "seed": 2013,
    },
)


@records_parameters
def run(
    *,
    n_ranks: int = 4,
    n_global: int = 48,
    n_steps: int = 30,
    failure_counts=(0, 1, 2),
    checkpoint_interval: int = 10,
    faults=None,
    seed: int = 2013,
) -> ExperimentResult:
    """Run experiment E4 and return its table.

    ``faults`` (reliability-registry name, compact spec string or
    dict) derives the hard-fault plan from a declarative process-
    failure model -- e.g. ``"proc_fail:mtbf=0.05"`` samples failures
    over the reference run's virtual time -- replacing the legacy
    evenly-spaced plans of ``failure_counts``.  The fault-free row is
    always kept as the reference.
    """
    fault_model = resolve_faults(faults) if faults is not None else None
    machine = MachineModel(
        flop_rate=1e9,
        latency=1e-6,
        bandwidth=1e9,
        checkpoint_bandwidth=5e7,
        restart_overhead=0.05,
        local_recovery_overhead=1e-4,
    )

    # Failure-free reference (also gives the time scale for placing faults).
    reference = run_lflr_heat(
        n_ranks, n_global=n_global, n_steps=n_steps, machine=machine
    )
    h = 1.0 / (n_global + 1)
    heat = HeatProblem1D(n_points=n_global, alpha=1.0, dt=stable_time_step(h, 1.0))
    sequential = heat.run(n_steps)

    # Per-step time of the equivalent CPR job: the failure-free LFLR
    # virtual time divided by the number of steps keeps the two baselines
    # on the same time scale.
    step_time = max(reference.virtual_time / n_steps, 1e-9)

    def cpr_step(state, step_index):
        return {"u": heat_step_explicit(state["u"], heat.dt, heat.h, 1.0)}

    def run_cpr(plan):
        return run_cpr_stepped(
            cpr_step,
            {"u": heat.run(0)},
            n_steps,
            machine=machine,
            n_ranks=n_ranks,
            interval=checkpoint_interval,
            step_time=step_time,
            failure_plan=plan,
        )

    cpr_reference = run_cpr(FailurePlan.none())

    table = Table(
        [
            "n_failures",
            "lflr_correct",
            "lflr_recoveries",
            "lflr_time",
            "lflr_overhead",
            "cpr_restarts",
            "cpr_time",
            "cpr_overhead",
            "overhead_ratio",
        ],
        title="E4: LFLR vs global checkpoint/restart on the explicit heat equation",
    )
    summary = {}
    if fault_model is not None:
        # Only the spec's process-failure component matters here; a
        # fault axis shared across experiments may also carry soft-fault
        # components E4 has no use for (and "none"/soft-only specs just
        # run the fault-free reference).
        proc = fault_model.component("proc_fail")
        spec_plan = (
            proc.failure_plan(
                n_ranks=n_ranks, horizon=reference.virtual_time, seed=seed
            )
            if proc is not None
            else FailurePlan.none()
        )
        plans = [(0, FailurePlan.none())]
        if len(spec_plan):
            plans.append((len(spec_plan), spec_plan))
    else:
        plans = []
        for n_failures in failure_counts:
            if n_failures == 0:
                plan = FailurePlan.none()
            else:
                # Space failures far enough apart that each recovery completes
                # before the next failure (see run_lflr_heat notes); rotate the
                # failing rank so partners differ.
                spacing = reference.virtual_time * 0.5 / n_failures + 50 * machine.local_recovery_overhead
                plan = FailurePlan(
                    [
                        (reference.virtual_time * 0.2 + i * spacing, 1 + (2 * i) % (n_ranks - 1))
                        for i in range(n_failures)
                    ]
                )
            plans.append((n_failures, plan))
    for n_failures, plan in plans:
        lflr = run_lflr_heat(
            n_ranks, n_global=n_global, n_steps=n_steps,
            failure_plan=plan, machine=machine,
            # The spec's msg_corrupt component (if any) corrupts message
            # payloads; hard faults stay pinned by the explicit plan.
            faults=fault_model, fault_seed=seed,
        )
        correct = bool(np.allclose(lflr.field, sequential, atol=1e-12))
        lflr_overhead = lflr.virtual_time - reference.virtual_time

        cpr = run_cpr(plan)
        cpr_overhead = cpr.virtual_time - cpr_reference.virtual_time
        ratio = cpr_overhead / lflr_overhead if lflr_overhead > 0 else float("inf")
        table.add_row(
            n_failures, correct, lflr.n_recoveries, lflr.virtual_time,
            lflr_overhead, cpr.n_restarts, cpr.virtual_time, cpr_overhead,
            ratio if n_failures else 1.0,
        )
        summary[f"correct_{n_failures}"] = correct
        if n_failures:
            summary[f"overhead_ratio_{n_failures}"] = ratio
    summary["reference_time"] = reference.virtual_time
    return SPEC.result(table, summary)
