"""E7 -- Application efficiency: CPR vs local recovery at scale.

Paper claim (§I, §IV): preserving the reliable-machine illusion through
global checkpoint/restart becomes "too costly or infeasible" as systems
grow (the system MTBF shrinks like 1/P while checkpoint volume grows),
whereas resilient algorithms with local recovery keep efficiency high
and even make cheaper, less reliable machines usable.

Procedure: evaluate the first-order analytic models
(:mod:`repro.machine.efficiency`) across machine sizes for a fixed
per-node MTBF: Young/Daly-optimal CPR efficiency versus LFLR-style
local-recovery efficiency; report the machine size at which CPR
efficiency falls below 50% and the efficiency gap at the largest scale.
A second sweep varies the per-node MTBF at fixed machine size to show
the "cheaper, less reliable system" argument (the crossover MTBF below
which local recovery is required to stay efficient).
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, ExperimentSpec
from repro.reliability.process import system_mtbf
from repro.reliability.registry import resolve_faults
from repro.machine.efficiency import (
    cpr_efficiency,
    daly_optimal_interval,
    efficiency_crossover_mtbf,
    lflr_efficiency,
)
from repro.utils.tables import Table

__all__ = ["run", "SPEC"]

SPEC = ExperimentSpec(
    experiment="E7",
    name="efficiency",
    title="Application efficiency: CPR vs local recovery at scale",
    tags=("cpr", "lflr", "analytic", "scaling"),
    smoke={"node_counts": (1_000, 100_000)},
    golden={
        "node_counts": (1_000, 10_000, 100_000, 1_000_000),
        "mtbf_sweep_hours": (24.0, 6.0, 1.0),
    },
)


def run(
    *,
    node_mtbf_years: float = 5.0,
    node_counts=(1_000, 10_000, 100_000, 1_000_000),
    checkpoint_time: float = 300.0,
    restart_time: float = 600.0,
    local_recovery_time: float = 2.0,
    redundancy_overhead: float = 0.02,
    mtbf_sweep_hours=(24.0, 12.0, 6.0, 3.0, 1.0),
    sweep_nodes: int = 100_000,
    faults=None,
) -> ExperimentResult:
    """Run experiment E7 and return its table.

    ``faults`` (reliability-registry name, compact spec string or
    dict) supplies the per-node failure model: the ``proc_fail``
    component's MTBF overrides ``node_mtbf_years``, so campaigns sweep
    machine reliability through the same fault axis as every other
    experiment (e.g. ``"proc_fail:mtbf_years=1"``).
    """
    seconds_per_year = 365.25 * 24 * 3600.0
    node_mtbf = node_mtbf_years * seconds_per_year
    fault_model = resolve_faults(faults) if faults is not None else None
    if fault_model is not None:
        proc = fault_model.component("proc_fail")
        if proc is not None and proc.mtbf is not None:
            node_mtbf = proc.mtbf

    table = Table(
        [
            "nodes",
            "system_mtbf_hours",
            "daly_interval_s",
            "cpr_efficiency",
            "lflr_efficiency",
            "efficiency_gap",
        ],
        title="E7a: application efficiency vs machine size (Young/Daly CPR vs LFLR)",
    )
    summary = {}
    half_scale = None
    for nodes in node_counts:
        mtbf = system_mtbf(node_mtbf, nodes)
        interval = daly_optimal_interval(checkpoint_time, mtbf)
        e_cpr = cpr_efficiency(checkpoint_time, mtbf, restart_time)
        e_lflr = lflr_efficiency(local_recovery_time, mtbf, redundancy_overhead)
        table.add_row(
            nodes, mtbf / 3600.0, interval, e_cpr, e_lflr, e_lflr - e_cpr
        )
        summary[f"cpr_eff_{nodes}"] = e_cpr
        summary[f"lflr_eff_{nodes}"] = e_lflr
        if half_scale is None and e_cpr < 0.5:
            half_scale = nodes
    summary["cpr_below_half_at_nodes"] = half_scale if half_scale is not None else -1

    sweep = Table(
        ["system_mtbf_hours", "cpr_efficiency", "lflr_efficiency"],
        title="E7b: efficiency vs system MTBF (cheaper / less reliable machines)",
    )
    for hours in mtbf_sweep_hours:
        mtbf = hours * 3600.0
        sweep.add_row(
            hours,
            cpr_efficiency(checkpoint_time, mtbf, restart_time),
            lflr_efficiency(local_recovery_time, mtbf, redundancy_overhead),
        )
    crossover = efficiency_crossover_mtbf(
        checkpoint_time, local_recovery_time, restart_time, redundancy_overhead
    )
    summary["crossover_mtbf_hours"] = crossover / 3600.0
    summary["sweep_table"] = sweep.render()
    return ExperimentResult(
        experiment="E7",
        claim=(
            "Global checkpoint/restart efficiency collapses as the machine grows "
            "(system MTBF ~ 1/P), while local-recovery efficiency stays near the "
            "redundancy overhead, extending viability to cheaper, less reliable "
            "systems."
        ),
        table=table,
        summary=summary,
        parameters={
            "node_mtbf_years": node_mtbf_years,
            "node_counts": tuple(node_counts),
            "checkpoint_time": checkpoint_time,
            "restart_time": restart_time,
            "local_recovery_time": local_recovery_time,
            "redundancy_overhead": redundancy_overhead,
            "sweep_nodes": sweep_nodes,
            **({"faults": fault_model.describe()} if fault_model is not None else {}),
        },
    )

