"""E8 -- The unified solver engine: solver x policy x fault matrix.

The engine refactor makes solver choice and resilience policy
orthogonal, sweepable axes (paper thesis: resilience is an
*algorithmic layer*, composable with any solver).  This driver
demonstrates it: run every solver in the
:mod:`repro.krylov.registry` -- resolved **by name**, no solver
imports -- on one SPD model problem, under one resilience-policy
setting and one declarative fault model from the
:mod:`repro.reliability.registry`, and classify each outcome against a
trusted direct solution.

Faults are resolved the reliability-layer way, uniformly for every
solver: the ``faults`` spec (a registry name, compact spec string or
dict -- e.g. ``"bitflip:p=0.02,bits=52..62"``) builds a
:class:`~repro.reliability.models.FaultModel` whose environment is an
unreliable :class:`~repro.reliability.region.Region` wrapping the
operator.  FT-GMRES is the exception by design -- selective
reliability *is* its policy, so the region goes to its inner solves
while its outer iteration stays reliable.  The legacy
``fault_probability``/``bit_range`` parameters remain as the
fault-free/bit-flip shorthand and resolve to the same model.

The table shows, per solver, the effective policy (generic sweep
values degrade to the strongest policy each solver supports), the work
done, how many faults hit the operator, how many were detected, and
the trusted-error classification of
:func:`repro.experiments.common.classify_outcome`.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence, Union

from repro.experiments.common import (
    ExperimentResult,
    ExperimentSpec,
    TrustedProblem,
    as_axis,
    iteration_budget,
    records_parameters,
    run_batch_by_seed,
)
from repro.krylov.registry import SKEPTICAL_RESPONSES, default_solver_registry
from repro.reliability.registry import resolve_faults
from repro.reliability.seeding import derive_fault_seed
from repro.skeptical.gmres_sdc import estimate_operator_norm

__all__ = ["run", "run_batch", "SPEC"]

SPEC = ExperimentSpec(
    experiment="E8",
    name="solver_matrix",
    title="Unified solver engine: solver x resilience-policy x fault matrix",
    claim="Resilience is an algorithmic layer: one solver engine composes every "
          "registered solver with pluggable resilience policies, so solver choice, "
          "policy and fault schedule are independent sweep axes.",
    tags=("engine", "registry", "solvers", "faults", "srp"),
    smoke={"grid": 6, "solvers": ("gmres", "cg"), "policy": "none",
           "fault_probability": 0.0},
    golden={"grid": 8, "policy": "skeptical", "fault_probability": 0.02,
            "bit_range": (52, 62), "seed": 2013},
)


@records_parameters
def run(
    *,
    grid: int = 8,
    solvers: Optional[Union[str, Sequence[str]]] = None,
    policy: str = "none",
    faults=None,
    fault_probability: float = 0.0,
    bit_range=None,
    tol: float = 1e-8,
    maxiter: int = 400,
    error_tolerance: float = 1e-5,
    seed: int = 2013,
) -> ExperimentResult:
    """Run experiment E8 and return its table.

    Parameters
    ----------
    grid:
        2-D Poisson grid size (SPD, so every registered solver applies).
    solvers:
        Registry names to run (string or sequence; ``None`` = all).
    policy:
        Resilience-policy axis value -- generic (``"none"``,
        ``"guard"``, ``"skeptical"``) or a concrete policy name; each
        solver resolves it to the strongest policy it supports.
    faults:
        The fault axis: a registered fault-model name, compact spec
        string, dict or :class:`~repro.reliability.spec.FaultSpec`
        (e.g. ``"bitflip:p=0.02,bits=52..62"``).  ``None`` builds the
        legacy-equivalent bit-flip model from ``fault_probability`` /
        ``bit_range``.
    fault_probability, bit_range:
        Legacy shorthand for ``faults="bitflip:p=...,bits=..."``;
        ignored when ``faults`` is given.
    tol, maxiter:
        Solver settings (mapped onto outer/inner limits for FT-GMRES).
    error_tolerance:
        Trusted-error threshold of the outcome classification.
    seed:
        Root seed: right-hand side and per-solver fault streams.
    """
    return _run_lanes(
        [seed], grid=grid, solvers=solvers, policy=policy, faults=faults,
        fault_probability=fault_probability, bit_range=bit_range, tol=tol,
        maxiter=maxiter, error_tolerance=error_tolerance,
    )[0]


def _run_lanes(
    seeds, *, grid, solvers, policy, faults, fault_probability, bit_range,
    tol, maxiter, error_tolerance,
) -> List[ExperimentResult]:
    """The one E8 body: one lane per seed, everything else shared.

    Each solver row solves all lanes as one
    :meth:`~repro.experiments.common.TrustedProblem.solve` call, with
    per-lane fault-injecting operators, so every lane draws the fault
    stream of its own seed, and one trusted ``operator_norm`` estimate
    shared by the skeptical solvers' lanes.
    """
    registry = default_solver_registry()
    # Canonical names seed the fault streams and label the result.
    names = [registry.get(name).name for name in as_axis(solvers, registry.names())]

    if faults is None:
        fault_model = resolve_faults(
            "bitflip:p=0.0",
            p=float(fault_probability),
            bits=tuple(bit_range) if bit_range is not None else None,
        )
    else:
        fault_model = resolve_faults(faults)
    # Operator corruption comes from the spec's soft-fault component;
    # hard-fault-only specs (e.g. pure proc_fail) run the matrix clean.
    soft_model = fault_model.soft_component()
    fault_p = soft_model.probability if soft_model is not None else 0.0

    problem = TrustedProblem(
        grid, seeds,
        ["solver", "policy", "iterations", "converged", "faults", "detected",
         "error", "outcome"],
        "E8: solver x resilience-policy x fault-schedule matrix",
    )
    matrix = problem.matrix
    # Setup runs in reliable mode (the SkP assumption): the skeptical
    # solvers get their ||A|| estimate from the *clean* matrix, never
    # through the fault-injecting operator wrapper.  The estimate reads
    # only the size of ``b``, so one serves every lane.
    trusted_norm = estimate_operator_norm(matrix, problem.b_list[0])

    for name in names:
        solver = registry.get(name)
        lane_params = [{} for _ in seeds]
        regions = operators = None
        if soft_model is not None:
            regions = [
                soft_model.environment(seed=derive_fault_seed(seed, solver.name))
                for seed in seeds
            ]
        params = iteration_budget(solver.name, maxiter)
        if solver.resolve_policy(policy) in SKEPTICAL_RESPONSES:
            params["operator_norm"] = trusted_norm
        if solver.name == "ft_gmres":
            # Selective reliability: the same region goes to the inner
            # solves, the outer iteration stays reliable.
            for lane, region in zip(lane_params, regions or ()):
                lane["region"] = region
        elif regions is not None:
            operators = [
                region.operator(matrix.matvec, flops_per_call=2.0 * matrix.nnz)
                for region in regions
            ]

        cells = problem.solve(
            solver.name, error_tolerance, regions, policy=policy,
            lane_params=lane_params, operators=operators, tol=tol, **params,
        )
        for table, (result, faults_hit, error_cell, outcome, _) in zip(
            problem.tables, cells
        ):
            table.add_row(
                solver.name, result.info["policy_name"], result.iterations,
                result.converged, faults_hit, result.detected_faults, error_cell,
                outcome,
            )

    def summary(counts):
        entries = {
            "n_solvers": len(names),
            "n_correct": counts["n_correct"],
            "n_detected_runs": counts["n_detected"],
            "n_silent_corruptions": counts["n_silent"],
            "total_faults_injected": counts["total_faults"],
            "policy": policy,
            "fault_probability": fault_probability if faults is None else fault_p,
        }
        if faults is not None:
            entries["faults"] = fault_model.describe()
        return entries

    return problem.results(SPEC, summary, solvers=tuple(names))


#: Several scenarios at once, identical to per-scenario :func:`run` calls
#: (see :func:`~repro.experiments.common.run_batch_by_seed`).
run_batch = functools.partial(run_batch_by_seed, run, _run_lanes)
