"""E10 -- Selective precision: the fourth sweepable axis.

The paper's selective-reliability argument is about *placement*: the
inner stage of a flexible solve may be unreliable because the reliable
outer iteration bounds the damage (conf_hpdc_Heroux13).  Reduced
precision is the deterministic cousin of that unreliability -- rounding
instead of bit flips, bounded error instead of arbitrary corruption --
so the same placement argument applies, and this driver makes it a
swept matrix: every requested solver from :mod:`repro.krylov.registry`
x every precision from :mod:`repro.reliability.precision` x one
preconditioner axis x one declarative fault spec, with the reduced
precision routed into one of two placements:

* ``target="inner"`` (the selective-precision placement): only the
  inner stage runs at the swept precision.  For ``fgmres`` that stage
  is a *real inner GMRES solve* executed entirely at the swept
  precision through the solver registry's ``precision=`` axis (the
  iterative-refinement shape: fp32 inner solve, fp64 outer recurrence,
  Hessenberg QR and convergence tests); for every other solver it is
  the preconditioner application ``M^{-1} v``, wrapped in a
  reduced-precision :class:`~repro.reliability.Region`.
* ``target="outer"`` (the control placement): the *whole* solve runs
  at the swept precision via ``solve(..., precision=...)`` -- operator,
  right-hand side, basis and recurrence all in the low dtype, which
  pins the solve to that dtype's residual floor (about ``1e-7``
  relative for fp32), far above a double-precision target like
  ``tol=1e-8``.

The pinned, executable claim: under ``target="inner"`` the fp32 rows
reach the fp64-accurate answer (correct to the trusted-error
tolerance), while under ``target="outer"`` the same fp32 sweep fails a
double-precision tolerance.  Selective precision, like selective
reliability, is about *where* you spend the cheap mode.

Faults compose as in E9's selective placement: a soft fault model
corrupts the (wrapped) inner stage only -- ``M^{-1} v`` or the FGMRES
inner solve -- never the outer recurrence, so the fault and precision
axes stack on the same inner/outer boundary.
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
from repro.reliability import Region
from repro.reliability.precision import default_precision_registry, parse_precision
from repro.reliability.registry import resolve_faults
from repro.reliability.seeding import derive_fault_seed, fault_stream
from repro.utils.validation import check_in

__all__ = ["run", "run_batch", "SPEC"]

SPEC = ExperimentSpec(
    experiment="E10",
    name="precision",
    title="Selective precision: solver x precision x preconditioner x fault "
          "matrix, inner vs outer placement",
    claim="Selective precision: reduced precision placed on the inner stage only "
          "(the FGMRES inner solve, or M^-1 v) still reaches the fp64-accurate "
          "answer, while running the whole solve at fp32 pins it to the fp32 "
          "residual floor and fails a double-precision tolerance.",
    tags=("precision", "registry", "srp", "mixed-precision"),
    smoke={"grid": 6, "solvers": ("gmres",),
           "precisions": ("fp64", "fp32"), "preconds": "none",
           "faults": "none"},
    golden={"grid": 8, "solvers": ("gmres", "fgmres", "cg"),
            "precisions": ("fp64", "fp32", "fp32:storage=fp16"),
            "preconds": ("none", "jacobi"),
            "faults": "bitflip:p=0.05,bits=52..62", "seed": 2013},
)

# Solvers swept by default: the flexible solver that owns the claim's
# flagship row (fgmres, whose inner stage is a real low-precision
# GMRES) plus one fixed-preconditioner solver per family.
_DEFAULT_SOLVERS = ("gmres", "fgmres", "cg")

#: Inner-solve budget of the fgmres selective-precision configuration.
_INNER_TOL = 1e-4
_INNER_MAXITER = 50


def _fgmres_inner_solve(matrix, built, registry, precision_label):
    """The selective-precision FGMRES inner stage: a whole GMRES solve
    at the swept precision (preconditioned by the cell's ``built``)."""
    inner_entry = registry.get("gmres")

    def inner_solve(v):
        result = inner_entry.solve(
            matrix, v, tol=_INNER_TOL, maxiter=_INNER_MAXITER,
            precond=built, precision=precision_label,
        )
        return result.x

    return inner_solve


@records_parameters
def run(
    *,
    grid: int = 8,
    solvers: Optional[Union[str, Sequence[str]]] = None,
    precisions: Optional[Union[str, Sequence[str]]] = None,
    preconds: Optional[Union[str, Sequence[str]]] = "jacobi",
    faults=None,
    target: str = "inner",
    tol: float = 1e-8,
    maxiter: int = 400,
    error_tolerance: float = 1e-5,
    seed: int = 2013,
) -> ExperimentResult:
    """Run experiment E10 and return its table.

    Parameters
    ----------
    grid:
        2-D Poisson grid size (SPD, so every swept solver applies).
    solvers:
        Solver-registry names to run (string or sequence; ``None`` =
        ``gmres``/``fgmres``/``cg``).
    precisions:
        The precision axis: registry names (``"fp32"``) or compact
        specs (``"fp32:storage=fp16"``), string or sequence; ``None`` =
        every registered precision.
    preconds:
        The preconditioner axis (names or inline specs); defaults to
        ``"jacobi"`` alone; ``None`` = every registered preconditioner.
    faults:
        The fault axis (name, compact spec, dict or ``FaultSpec``);
        only the soft component corrupts data, and it lands on the
        wrapped inner stage (never the outer recurrence).  ``None``
        runs fault-free.
    target:
        Where the reduced precision lands: ``"inner"`` places it on
        the inner stage only (the FGMRES inner solve, or ``M^{-1} v``
        for the fixed-preconditioner solvers), ``"outer"`` runs the
        whole solve at the swept precision via ``precision=``.
    tol, maxiter:
        Outer solver settings (the fgmres inner solve uses its own
        fixed budget).
    error_tolerance:
        Trusted-error threshold of the outcome classification.
    seed:
        Root seed: right-hand side and per-cell fault streams.
    """
    return _run_lanes(
        [seed], grid=grid, solvers=solvers, precisions=precisions,
        preconds=preconds, faults=faults, target=target, tol=tol,
        maxiter=maxiter, error_tolerance=error_tolerance,
    )[0]


def _run_lanes(
    seeds, *, grid, solvers, precisions, preconds, faults, target, tol,
    maxiter, error_tolerance,
) -> List[ExperimentResult]:
    """The one E10 body: one lane per seed, everything else shared.

    Each (solver, precond, precision) cell solves all lanes as one
    :meth:`~repro.experiments.common.TrustedProblem.solve` call, with
    the inner stages built by :func:`_wire_cell`; every lane draws the
    fault stream of its own seed and is classified against its own
    trusted direct solution.
    """
    check_in(target, ("inner", "outer"), "target")
    registry = default_solver_registry()
    solver_list = [registry.get(name) for name in as_axis(solvers, _DEFAULT_SOLVERS)]
    # Canonical spec strings of the swept precisions.
    precision_list = [
        parse_precision(value).to_string()
        for value in as_axis(
            precisions, [entry.spec for entry in default_precision_registry()]
        )
    ]
    precond_list = as_axis(preconds, precond_names())

    fault_model = resolve_faults(faults)
    soft_model = fault_model.soft_component()

    problem = TrustedProblem(
        grid, seeds,
        ["solver", "precond", "precision", "iterations", "converged", "faults",
         "error", "outcome"],
        f"E10: solver x precision x preconditioner x fault matrix "
        f"(precision on the {target} stage)",
    )
    for solver in solver_list:
        for precond_name in precond_list:
            precond_label = parse_precond(precond_name).to_string()
            for precision_label in precision_list:
                pspec = parse_precision(precision_label)
                fault_seeds = [
                    derive_fault_seed(
                        seed, f"{solver.name}/{precond_label}/{precision_label}"
                    )
                    for seed in seeds
                ]
                regions, options = _wire_cell(
                    solver.name, problem.matrix, precond_name, pspec,
                    soft_model=soft_model, fault_seeds=fault_seeds,
                    target=target, registry=registry,
                )
                cells = problem.solve(
                    solver.name, error_tolerance, regions, tol=tol,
                    **iteration_budget(solver.name, maxiter), **options,
                )
                for table, counts, cell in zip(problem.tables, problem.counts, cells):
                    result, faults_hit, error_cell, outcome, correct = cell
                    table.add_row(
                        solver.name, precond_label, precision_label,
                        result.iterations, result.converged, faults_hit,
                        error_cell, outcome,
                    )
                    if not pspec.is_default:
                        counts.update(
                            n_lowprecision_runs=1,
                            n_lowprecision_correct=int(correct),
                        )

    return problem.results(
        SPEC,
        lambda counts: {
            "n_runs": counts["n_runs"],
            "n_solvers": len(solver_list),
            "n_precisions": len(precision_list),
            "n_preconds": len(precond_list),
            "n_correct": counts["n_correct"],
            "n_silent_corruptions": counts["n_silent"],
            "total_faults_injected": counts["total_faults"],
            # The pinned claim, as counters: under target="inner" every
            # reduced-precision row should be correct; under
            # target="outer" they fail a double-precision tolerance.
            "n_lowprecision_runs": counts["n_lowprecision_runs"],
            "n_lowprecision_correct": counts["n_lowprecision_correct"],
            "target": target,
            "faults": fault_model.describe(),
        },
        solvers=tuple(solver.name for solver in solver_list),
        precisions=tuple(precision_list),
        preconds=tuple(precond_list),
        faults=fault_model.describe(),
    )


#: Several scenarios at once, identical to per-scenario :func:`run` calls
#: (see :func:`~repro.experiments.common.run_batch_by_seed`).
run_batch = functools.partial(run_batch_by_seed, run, _run_lanes)


def _wire_cell(
    solver_name, matrix, precond_name, pspec, *,
    soft_model, fault_seeds, target, registry,
):
    """``(regions, batch_solve keywords)`` of one (solver, precond,
    precision) cell.

    Each lane's inner stage is built, wrapped and seeded on its own;
    ``batch_solve`` advances the lanes in lockstep where the
    configuration has such a path (the default-precision rows of
    ``gmres``/``cg``) and lane by lane otherwise.
    """
    precision_label = pspec.to_string()
    options = {}
    # Setup runs reliably and in full precision: the preconditioner is
    # always built from the clean fp64 matrix, once per lane (stateful
    # preconditioners and the regions wrapping them must not be shared).
    stages = [resolve_preconds(precond_name, matrix=matrix) for _ in fault_seeds]
    if target == "outer":
        # Whole solve at the swept precision; a region (if any) only
        # injects.  Spec-shaped preconditioners go through by name so
        # solve() builds them from the *cast* operator -- M^{-1} v then
        # runs at the swept precision natively, like every other kernel.
        options["precision"] = precision_label
        region_precision = None
    else:
        region_precision = pspec
        if solver_name == "fgmres":
            # The flagship selective-precision configuration: a real
            # inner GMRES at the swept precision, fp64 outer.
            stages = [
                _fgmres_inner_solve(matrix, built, registry, precision_label)
                for built in stages
            ]
    inject = soft_model is not None and stages[0] is not None
    if target == "outer" and not inject:
        regions, stages = None, [precond_name] * len(stages)
    else:
        # One region per lane: the stage's input and output are pinned
        # to the compute dtype (the bounded-error contract), and faults
        # land on the widened float64 result, exactly where E9 lands
        # them on M^{-1} v (identity rounding when there is no stage).
        regions = [
            Region(
                soft_model.injector(fault_stream(fault_seed, f"precision/{solver_name}"))
                if inject else None,
                precision=region_precision,
            )
            for fault_seed in fault_seeds
        ]
        stages = [
            region.preconditioner(stage, flops_per_call=float(matrix.nnz))
            for region, stage in zip(regions, stages)
        ]
    options["lane_params"] = [{"precond": stage} for stage in stages]
    return regions, options
