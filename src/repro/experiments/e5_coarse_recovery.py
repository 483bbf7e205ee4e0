"""E5 -- Implicit-method state recovery from a redundant coarse model.

Paper claim (§III-C): for implicit methods, the lost local state can be
rebuilt "equivalent up to the truncation error of the PDE", e.g. from a
coarse model stored redundantly on neighbouring processes, and used to
bootstrap recovery.

Procedure: advance a backward-Euler heat solve to a failure point,
discard one rank-sized block of the solution, rebuild it three ways --
zeros (naive restart of the block), neighbour averaging, and
prolongation of the redundantly stored coarse model -- and compare (a)
the reconstruction error against the lost state and (b) the number of
extra CG iterations the next implicit step needs when warm-started from
the recovered state, sweeping the coarsening factor.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentResult, ExperimentSpec, records_parameters
from repro.krylov.registry import default_solver_registry
from repro.lflr.coarse import CoarseModelStore, prolong_field
from repro.pde.implicit import ImplicitHeatProblem1D
from repro.reliability.registry import resolve_faults
from repro.utils.tables import Table

__all__ = ["run", "SPEC"]

SPEC = ExperimentSpec(
    experiment="E5",
    name="coarse_recovery",
    title="Implicit-method state recovery from a redundant coarse model",
    claim="A redundantly stored coarse model rebuilds a lost block accurately "
          "enough that the implicit solver recovers at almost no extra iteration "
          "cost, unlike naive zero or neighbour-average bootstraps.",
    tags=("lflr", "implicit", "pde", "recovery"),
    smoke={"n_points": 64, "steps_before_failure": 10, "coarsening_factors": (2,)},
    golden={
        "n_points": 64,
        "steps_before_failure": 10,
        "coarsening_factors": (2, 4),
        "seed": 2013,
    },
)


def _cg_iterations_from(problem: ImplicitHeatProblem1D, guess: np.ndarray) -> int:
    """CG iterations of the next implicit step warm-started from ``guess``."""
    result = default_solver_registry().get("cg").solve(
        problem.matrix, problem.u, x0=guess, tol=problem.cg_tol,
        maxiter=10 * problem.n_points)
    if not result.converged:  # pragma: no cover - tiny SPD systems converge
        raise RuntimeError("implicit step did not converge")
    return result.iterations


@records_parameters
def run(
    *,
    n_points: int = 128,
    n_ranks: int = 4,
    steps_before_failure: int = 20,
    dt: float = 2e-3,
    coarsening_factors=(2, 4, 8),
    faults=None,
    seed: int = 2013,
) -> ExperimentResult:
    """Run experiment E5 and return its table.

    ``faults`` names the hard fault whose state loss is rebuilt: the
    ``proc_fail`` component's ``rank`` parameter selects the victim
    block (e.g. ``"proc_fail:rank=2"``).  ``None`` keeps the legacy
    victim, rank 1.  Interior ranks only -- the neighbour-average
    strategy needs both neighbours.
    """
    fault_model = resolve_faults(faults) if faults is not None else None
    failed_rank = 1
    if fault_model is not None:
        proc = fault_model.component("proc_fail")
        if proc is not None and proc.rank is not None:
            failed_rank = proc.rank
    if not 1 <= failed_rank <= n_ranks - 2:
        raise ValueError(
            f"failed rank must be interior (1..{n_ranks - 2}), got {failed_rank}"
        )

    problem = ImplicitHeatProblem1D(n_points=n_points, dt=dt)
    problem.step(steps_before_failure)
    u_true = problem.u.copy()

    # The failed rank owns a contiguous block.
    block = n_points // n_ranks
    lost_lo, lost_hi = failed_rank * block, (failed_rank + 1) * block
    lost_state = u_true[lost_lo:lost_hi].copy()

    # Baseline: iterations of the next step from the intact state.
    baseline_iters = _cg_iterations_from(problem, u_true)

    def recovered_field(block_values: np.ndarray) -> np.ndarray:
        field = u_true.copy()
        field[lost_lo:lost_hi] = block_values
        return field

    strategies = {}
    strategies["zero_bootstrap"] = np.zeros(block)
    neighbor_avg = 0.5 * (u_true[lost_lo - 1] + u_true[lost_hi]) * np.ones(block)
    strategies["neighbor_average"] = neighbor_avg

    table = Table(
        [
            "strategy",
            "coarsen",
            "memory_overhead",
            "recovery_error",
            "next_step_cg_iters",
            "extra_iters",
        ],
        title="E5: rebuilding a lost block for an implicit (backward Euler) solve",
    )
    summary = {"baseline_cg_iters": baseline_iters}

    scale = float(np.linalg.norm(lost_state)) or 1.0
    for name, values in strategies.items():
        error = float(np.linalg.norm(values - lost_state)) / scale
        iters = _cg_iterations_from(problem, recovered_field(values))
        table.add_row(name, "-", 0.0, error, iters, iters - baseline_iters)
        summary[f"{name}_error"] = error
        summary[f"{name}_extra_iters"] = iters - baseline_iters

    for factor in coarsening_factors:
        store = CoarseModelStore(factor=factor)
        store.store(owner=failed_rank, field=lost_state, step=steps_before_failure)
        rebuilt = store.recover(owner=failed_rank)
        error = float(np.linalg.norm(rebuilt - lost_state)) / scale
        iters = _cg_iterations_from(problem, recovered_field(rebuilt))
        table.add_row(
            f"coarse_model", factor, store.memory_overhead(failed_rank), error, iters,
            iters - baseline_iters,
        )
        summary[f"coarse_{factor}_error"] = error
        summary[f"coarse_{factor}_extra_iters"] = iters - baseline_iters
    return SPEC.result(table, summary)
