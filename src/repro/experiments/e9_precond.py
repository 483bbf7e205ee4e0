"""E9 -- Sweepable preconditioners under selective reliability.

The paper's central claim -- *selective reliability* -- is that the
preconditioner is exactly the part of a flexible Krylov solve that can
run unreliably: a corrupted ``M^{-1} v`` only slows convergence, it
never corrupts a converged answer, because the reliable outer
iteration analyzes and, at worst, discards what the preconditioner
returns (conf_hpdc_Heroux13, the FT-GMRES inner/outer argument).  This
driver makes that claim a swept matrix: every requested solver from
:mod:`repro.krylov.registry` x every preconditioner from
:mod:`repro.precond` x one declarative fault spec, with the fault
routed into one of two reliability placements:

* ``target="precond"`` (the selective-reliability placement): the
  preconditioner built from the clean matrix is wrapped in
  :meth:`~repro.reliability.Region.preconditioner`, so only
  ``M^{-1} v`` passes through the unreliable region while the operator,
  the Arnoldi/CG recurrences and the updates stay reliable.
* ``target="operator"`` (the control placement): the *same* fault model
  corrupts the operator application instead -- data the solvers must
  trust -- via the fault model's selective-reliability region, with the
  preconditioner left clean.

Everything is resolved by name: solvers through the solver registry,
preconditioners through :func:`repro.precond.resolve_preconds` (so the
``preconds`` axis takes registry names like ``"bjacobi8"`` and inline
specs like ``"ssor:omega=1.2"`` interchangeably) and faults through
:func:`repro.reliability.resolve_faults`.  Each (solver,
preconditioner) cell draws its own canonical fault stream, and each
outcome is classified against a trusted direct solution.

``fgmres`` receives the wrapped preconditioner as its variable inner
solve (``precond_param="inner_solve"``); every other solver --
including ``ft_gmres``, whose inner solve is an inner GMRES that
*applies* the preconditioner -- routes it to its ``preconditioner=``
keyword and applies it as ``M`` every iteration.  The table therefore
shows the paper's argument as data: under ``target="precond"`` the
flexible solvers stay correct (at worst slower), while under
``target="operator"`` the same fault rate degrades or destroys
convergence across the board.
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
from repro.krylov.registry import default_solver_registry
from repro.precond import parse_precond, precond_names, resolve_preconds
from repro.reliability import unreliable
from repro.reliability.registry import resolve_faults
from repro.reliability.seeding import derive_fault_seed
from repro.utils.validation import check_in

__all__ = ["run", "run_batch", "SPEC"]

SPEC = ExperimentSpec(
    experiment="E9",
    name="precond",
    title="Sweepable preconditioners: solver x preconditioner x fault matrix "
          "under selective reliability",
    claim="Selective reliability: the preconditioner is the part of a flexible "
          "Krylov solve that can run unreliably -- a corrupted M^-1 v only slows "
          "convergence, while the same fault on the trusted operator degrades "
          "or destroys the answer.",
    tags=("precond", "registry", "srp", "faults"),
    smoke={"grid": 6, "solvers": ("gmres", "cg"),
           "preconds": ("none", "jacobi"), "faults": "none"},
    golden={"grid": 8,
            "preconds": ("none", "jacobi", "ssor", "poly2", "bjacobi8"),
            "faults": "bitflip:p=0.05,bits=52..62", "seed": 2013},
)

# Solvers swept by default: every registry entry that takes a fixed or
# flexible preconditioner on the sequential backend and is comparable
# under one (tol, maxiter) budget.  ft_gmres/sdc_gmres still work when
# requested explicitly; they are excluded from the default sweep
# because their resilience machinery (inner budgets, skeptical
# restarts) makes their rows answer a different question.
_DEFAULT_SOLVERS = ("gmres", "fgmres", "pipelined_gmres", "cg", "pipelined_cg")


@records_parameters
def run(
    *,
    grid: int = 8,
    solvers: Optional[Union[str, Sequence[str]]] = None,
    preconds: Optional[Union[str, Sequence[str]]] = None,
    faults=None,
    target: str = "precond",
    tol: float = 1e-8,
    maxiter: int = 400,
    error_tolerance: float = 1e-5,
    seed: int = 2013,
) -> ExperimentResult:
    """Run experiment E9 and return its table.

    Parameters
    ----------
    grid:
        2-D Poisson grid size (SPD, so every swept solver applies).
    solvers:
        Solver-registry names to run (string or sequence; ``None`` =
        the default preconditionable set).
    preconds:
        The preconditioner axis: registry names (``"jacobi"``,
        ``"bjacobi8"``) or inline specs (``"ssor:omega=1.2"``,
        ``"poly:k=4"``), string or sequence; ``None`` = every
        registered preconditioner.
    faults:
        The fault axis: a registered fault-model name, compact spec
        string, dict or :class:`~repro.reliability.spec.FaultSpec`.
        ``None`` runs fault-free.  Only the spec's soft component
        corrupts data here; hard-fault-only specs run clean.
    target:
        Where the fault lands: ``"precond"`` routes it into the
        unreliable region wrapping ``M^{-1} v`` (selective
        reliability; the ``none`` preconditioner then runs clean, as
        its control row), ``"operator"`` corrupts the operator
        application instead with the preconditioner left clean.
    tol, maxiter:
        Solver settings (mapped onto outer/inner limits for FT-GMRES).
    error_tolerance:
        Trusted-error threshold of the outcome classification.
    seed:
        Root seed: right-hand side and per-cell fault streams.
    """
    return _run_lanes(
        [seed], grid=grid, solvers=solvers, preconds=preconds, faults=faults,
        target=target, tol=tol, maxiter=maxiter,
        error_tolerance=error_tolerance,
    )[0]


def _run_lanes(
    seeds, *, grid, solvers, preconds, faults, target, tol, maxiter,
    error_tolerance,
) -> List[ExperimentResult]:
    """The one E9 body: one lane per seed, everything else shared.

    Each (solver, preconditioner) cell solves all lanes as one
    :meth:`~repro.experiments.common.TrustedProblem.solve` call, with
    the faults wired by :func:`_wire_faults`; every lane draws the fault
    stream of its own seed and is classified against its own trusted
    direct solution.
    """
    check_in(target, ("precond", "operator"), "target")
    registry = default_solver_registry()
    solver_list = [registry.get(name) for name in as_axis(solvers, _DEFAULT_SOLVERS)]
    precond_list = as_axis(preconds, precond_names())

    fault_model = resolve_faults(faults)
    soft_model = fault_model.soft_component()

    problem = TrustedProblem(
        grid, seeds,
        ["solver", "precond", "iterations", "converged", "faults", "error", "outcome"],
        f"E9: solver x preconditioner x fault matrix (faults target the {target})",
    )
    for solver in solver_list:
        for precond_name in precond_list:
            # Setup runs in reliable mode (the SRP assumption): the
            # preconditioner is always built from the clean matrix --
            # once per lane, because stateful preconditioners (and the
            # injecting region wraps around them) must not be shared.
            builts = [
                resolve_preconds(precond_name, matrix=problem.matrix) for _ in seeds
            ]
            precond_label = parse_precond(precond_name).to_string()
            fault_seeds = [
                derive_fault_seed(seed, f"{solver.name}/{precond_label}")
                for seed in seeds
            ]
            regions, options = _wire_faults(
                solver.name, problem.matrix, builts, fault_seeds,
                soft_model=soft_model, target=target,
            )
            cells = problem.solve(
                solver.name, error_tolerance, regions, tol=tol,
                **iteration_budget(solver.name, maxiter), **options,
            )
            for table, (result, faults_hit, error_cell, outcome, _) in zip(
                problem.tables, cells
            ):
                table.add_row(
                    solver.name, precond_label, result.iterations,
                    result.converged, faults_hit, error_cell, outcome,
                )

    return problem.results(
        SPEC,
        lambda counts: {
            "n_runs": counts["n_runs"],
            "n_solvers": len(solver_list),
            "n_preconds": len(precond_list),
            "n_correct": counts["n_correct"],
            "n_silent_corruptions": counts["n_silent"],
            "total_faults_injected": counts["total_faults"],
            "target": target,
            "faults": fault_model.describe(),
        },
        solvers=tuple(solver.name for solver in solver_list),
        preconds=tuple(precond_list),
        faults=fault_model.describe(),
    )


#: Several scenarios at once, identical to per-scenario :func:`run` calls
#: (see :func:`~repro.experiments.common.run_batch_by_seed`).
run_batch = functools.partial(run_batch_by_seed, run, _run_lanes)


def _wire_faults(solver_name, matrix, builts, fault_seeds, *, soft_model, target):
    """``(regions, batch_solve keywords)`` of one cell's lanes.

    Selective reliability stays per-lane: every lane's preconditioner
    is wrapped in its own :func:`~repro.reliability.unreliable` region
    (regions carry no global state, so ``S`` of them coexist), or gets
    its own fault-injecting operator when the fault targets the
    operator, each seeded from that lane's fault seed.  A clean cell
    has no regions.
    """
    regions = operators = None
    if soft_model is not None and target == "precond" and builts[0] is not None:
        regions = [
            unreliable(soft_model, seed=fault_seed, name=f"precond/{solver_name}")
            for fault_seed in fault_seeds
        ]
        builts = [
            region.preconditioner(built, flops_per_call=float(matrix.nnz))
            for region, built in zip(regions, builts)
        ]
    elif soft_model is not None and target == "operator":
        regions = [soft_model.environment(seed=fault_seed) for fault_seed in fault_seeds]
        operators = [
            region.operator(matrix.matvec, flops_per_call=2.0 * matrix.nnz)
            for region in regions
        ]
    lane_params = [{"precond": built} for built in builts]
    return regions, {"lane_params": lane_params, "operators": operators}
