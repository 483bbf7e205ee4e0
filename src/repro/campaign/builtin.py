"""Named built-in campaigns.

Six ship with the toolkit:

* ``smoke`` -- every experiment at its :attr:`ExperimentSpec.smoke`
  configuration plus a few one-axis sweeps; what ``campaign run
  smoke`` executes.
* ``default`` -- a broader grid over E1-E7 (what a bare ``campaign
  run`` executes), sized to finish in well under a minute.
* ``solvers`` -- E8: every registered solver under every generic
  resilience policy, with and without operator faults.
* ``precond`` -- E9: every solver x preconditioner cell under each
  fault spec, the fault on ``M^{-1} v`` only (selective reliability)
  or on the trusted operator.
* ``precision`` -- E10: every solver x precision x preconditioner
  cell, the reduced precision on the inner stage only or on the whole
  solve, with and without faults.
* ``replicas`` -- seed replicas of E1/E8/E9 that differ only in
  ``seed``, so ``--batch`` runs each sweep as one lockstep batch (the
  batch benchmark runs it).

Campaigns are plain lists of scenarios produced by declarative
:class:`~repro.campaign.spec.Sweep` specs, so adding a campaign is
data, not code: extend :data:`_BUILDERS`.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.campaign.registry import default_registry
from repro.campaign.spec import Scenario, Sweep

__all__ = ["builtin_campaign", "builtin_campaign_names"]


def _smoke() -> List[Scenario]:
    registry = default_registry()
    scenarios: List[Scenario] = []
    # One scenario per discovered driver at its smoke configuration...
    for driver in registry:
        scenarios.extend(
            Sweep(driver.experiment, base=driver.spec.smoke, tag="smoke").expand()
        )
    # ... plus one-axis sweeps on the cheapest knobs.
    e1 = registry.get("E1").spec.smoke
    e3 = registry.get("E3").spec.smoke
    e7 = registry.get("E7").spec.smoke
    scenarios.extend(
        Sweep("E1", axes={"check_period": (2, 4)}, base=e1, tag="smoke").expand()
    )
    scenarios.extend(
        Sweep(
            "E3", axes={"rows_per_rank": (5_000, 20_000)}, base=e3, tag="smoke"
        ).expand()
    )
    scenarios.extend(
        Sweep("E7", axes={"node_mtbf_years": (1.0,)}, base=e7, tag="smoke").expand()
    )
    return scenarios


def _default() -> List[Scenario]:
    sweeps = [
        # SkP: detection-period ablation on a slightly larger problem.
        Sweep(
            "E1",
            axes={"check_period": (1, 2, 4)},
            base={"grid": 10, "n_trials": 4, "inject_at": 6},
            tag="default",
        ),
        # ABFT: problem-size scaling of detection/correction rates.
        Sweep(
            "E2",
            axes={"sizes": ((8, 16), (16, 32))},
            base={"n_trials": 10},
            tag="default",
        ),
        # RBSP: local-work intensity vs synchronization cost.
        Sweep(
            "E3",
            axes={"rows_per_rank": (5_000, 10_000, 20_000)},
            base={"grid": 10, "rank_counts": (16, 1024, 65536), "iterations": 20},
            tag="default",
        ),
        # LFLR vs CPR: checkpoint-interval sensitivity.
        Sweep(
            "E4",
            axes={"checkpoint_interval": (5, 10)},
            base={"n_ranks": 4, "n_global": 32, "n_steps": 20},
            tag="default",
        ),
        # Coarse recovery: resolution sweep.
        Sweep(
            "E5",
            axes={"n_points": (64, 128)},
            base={"steps_before_failure": 10, "coarsening_factors": (2, 4)},
            tag="default",
        ),
        # SRP: inner-solve budget under faults.
        Sweep(
            "E6",
            axes={"inner_maxiter": (10, 15)},
            base={
                "grid": 10,
                "fault_probabilities": (0.0, 0.02, 0.05),
                "n_trials": 2,
                "outer_maxiter": 25,
            },
            tag="default",
        ),
        # Efficiency models: machine reliability x checkpoint cost grid.
        Sweep(
            "E7",
            axes={
                "node_mtbf_years": (1.0, 5.0),
                "checkpoint_time": (60.0, 300.0),
            },
            tag="default",
        ),
    ]
    scenarios: List[Scenario] = []
    for sweep in sweeps:
        scenarios.extend(sweep.expand())
    return scenarios


def _solvers() -> List[Scenario]:
    # The solver x resilience-policy x fault-spec grid of E8: each
    # scenario runs EVERY solver in the krylov registry, so the solver
    # axis is swept inside the driver while policy and fault model are
    # campaign axes.  The fault axis is declarative -- reliability
    # registry names and compact spec strings, resolved by the driver
    # exactly like solver names -- and its "none"/bit-flip values are
    # legacy-equivalent to the old fault_probability grid.
    return Sweep(
        "E8",
        axes={
            "policy": ("none", "guard", "skeptical"),
            "faults": (
                "none",
                "bitflip:p=0.02,bits=52..62",
                "perturb:p=0.01,scale=1000.0",
            ),
        },
        base={"grid": 8, "seed": 2013},
        tag="solvers",
    ).expand()


def _precond() -> List[Scenario]:
    # The solver x preconditioner x fault x reliability-placement grid
    # of E9: each scenario runs every default solver against every
    # registered preconditioner, so those two axes are swept inside the
    # driver while the fault spec and its placement are campaign axes.
    # target="precond" is the selective-reliability wiring (only
    # M^{-1} v passes through the unreliable region); target="operator"
    # lands the same fault on data the solvers must trust.
    base = {"grid": 8, "seed": 2013}
    scenarios = Sweep(
        "E9", axes={"faults": ("none",)}, base=base, tag="precond"
    ).expand()
    scenarios.extend(
        Sweep(
            "E9",
            axes={
                "faults": (
                    "bitflip:p=0.05,bits=52..62",
                    "perturb:p=0.02,scale=1000.0",
                ),
                "target": ("precond", "operator"),
            },
            base=base,
            tag="precond",
        ).expand()
    )
    return scenarios


def _precision() -> List[Scenario]:
    # The solver x precision x preconditioner x fault x placement grid
    # of E10: solvers, precisions and preconditioners are swept inside
    # the driver while the placement (inner stage vs whole solve) and
    # the fault spec are campaign axes.  target="inner" is the
    # selective-precision wiring (fp64 outer, low-precision inner);
    # target="outer" pins the whole solve to the low dtype's residual
    # floor -- the claim's control.
    base = {
        "grid": 8,
        "precisions": ("fp64", "fp32", "fp32:storage=fp16"),
        "preconds": ("none", "jacobi"),
        "seed": 2013,
    }
    scenarios = Sweep(
        "E10",
        axes={"target": ("inner", "outer")},
        base=dict(base, faults="none"),
        tag="precision",
    ).expand()
    scenarios.extend(
        Sweep(
            "E10",
            axes={"target": ("inner", "outer")},
            base=dict(base, faults="bitflip:p=0.05,bits=52..62"),
            tag="precision",
        ).expand()
    )
    return scenarios


def _replicas() -> List[Scenario]:
    # Seed-replica sweeps over three of the four batch-capable drivers
    # (E1/E8/E9; E10 exports run_batch too): every scenario in a sweep
    # shares all parameters except ``seed``, so
    # ``campaign run replicas --batch 0`` groups each sweep
    # into a single lockstep batch.  This is the shape batch mode is
    # built for -- Monte-Carlo replication of one configuration -- and
    # what the benchmark harness runs.
    seeds = tuple(range(101, 117))
    sweeps = [
        Sweep(
            "E1",
            axes={"seed": seeds},
            base={"grid": 8, "n_trials": 2, "inject_at": 4},
            tag="replicas",
        ),
        Sweep(
            "E8",
            axes={"seed": seeds},
            base={
                "grid": 8,
                "solvers": ("gmres", "cg", "sdc_gmres"),
                "faults": "bitflip:p=0.02,bits=52..62",
                "policy": "guard",
            },
            tag="replicas",
        ),
        Sweep(
            "E9",
            axes={"seed": seeds},
            base={
                "grid": 8,
                "solvers": ("gmres", "cg"),
                "preconds": ("none", "jacobi"),
                "faults": "bitflip:p=0.05,bits=52..62",
                "target": "precond",
            },
            tag="replicas",
        ),
    ]
    scenarios: List[Scenario] = []
    for sweep in sweeps:
        scenarios.extend(sweep.expand())
    return scenarios


_BUILDERS: Dict[str, Callable[[], List[Scenario]]] = {
    "smoke": _smoke,
    "default": _default,
    "solvers": _solvers,
    "precond": _precond,
    "precision": _precision,
    "replicas": _replicas,
}


def builtin_campaign_names() -> List[str]:
    return sorted(_BUILDERS)


def builtin_campaign(name: str) -> List[Scenario]:
    """Expand a built-in campaign by name."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown campaign {name!r} (known: {builtin_campaign_names()})"
        ) from None
    return builder()
