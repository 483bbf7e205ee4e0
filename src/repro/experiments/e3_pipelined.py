"""E3 -- Latency-tolerant (pipelined) Krylov methods under variability.

Paper claim (§II-B, §III-B): performance variability plus synchronous
collectives destroys scalability at large process counts; asynchronous
collectives let pipelined Krylov methods hide the latency and restore
scalability.

Procedure, in two parts:

1. *Numerical anchor* (simulated, small scale): solve the same SPD
   system with classic CG and pipelined CG, and the same nonsymmetric
   system with MGS-GMRES and single-reduction GMRES, confirming the
   iteration counts match (the pipelined reformulations trade
   synchronization, not convergence) and counting the global reductions
   each variant performs per iteration.
2. *Scaling model* (analytic, large scale): evaluate the per-iteration
   time of the synchronous and pipelined variants on a noisy machine
   model across process counts up to 2^20, using the reduction counts
   from part 1 -- the weak-scaling series whose divergence/flattening
   is the paper's central RBSP argument.
"""

from __future__ import annotations

from repro.comm.registry import resolve_backend
from repro.experiments import backend_probe
from repro.experiments.common import ExperimentResult, ExperimentSpec, records_parameters
from repro.krylov.registry import default_solver_registry
from repro.linalg.matgen import poisson_2d
from repro.machine.model import MachineModel
from repro.machine.noise import EccStallNoise
from repro.rbsp.variability import IterationTimeModel, scaling_study
from repro.reliability.registry import resolve_faults
from repro.reliability.seeding import derive_fault_seed
from repro.utils.rng import RngFactory
from repro.utils.tables import Table

__all__ = ["run", "SPEC"]

SPEC = ExperimentSpec(
    experiment="E3",
    name="pipelined",
    title="Latency-tolerant (pipelined) Krylov methods under variability",
    claim="Synchronous collectives plus performance variability limit scalability; "
          "pipelined Krylov methods hide the latency and keep efficiency high at "
          "large process counts without changing convergence.",
    tags=("rbsp", "pipelined", "scaling", "gmres", "cg"),
    smoke={"grid": 8, "rank_counts": (16, 1024), "iterations": 10},
    golden={
        "grid": 10,
        "rank_counts": (16, 1024, 65536),
        "iterations": 20,
        "seed": 2013,
    },
)


@records_parameters
def run(
    *,
    grid: int = 16,
    rank_counts=(16, 256, 4096, 65536, 1048576),
    rows_per_rank: int = 10000,
    noise_event_rate: float = 10.0,
    noise_stall: float = 50e-6,
    iterations: int = 100,
    faults=None,
    backend=None,
    seed: int = 2013,
) -> ExperimentResult:
    """Run experiment E3 and return its table.

    ``faults`` (reliability-registry name, compact spec string or
    dict) runs every numerical-anchor solve against an unreliable
    operator built from the named fault model -- the pipelined
    reformulations' convergence equivalence can then be probed *under
    corruption*, not just clean.  ``None`` keeps the fault-free legacy
    anchors.

    ``backend`` (communicator spec string such as ``"shmem:procs=4"``,
    dict or :class:`~repro.comm.spec.CommSpec`) additionally runs the
    CG anchor *distributed* over that backend and stores its residual
    history, which is bit-identical on every backend.  ``None`` (the
    default) keeps the analytic experiment byte-identical to its golden.
    """
    fault_model = resolve_faults(faults)
    matrix = poisson_2d(grid)
    rng = RngFactory(seed).spawn("rhs")
    b = rng.standard_normal(matrix.n_rows)

    # Only the soft-fault component can corrupt an operator; a shared
    # fault axis may also carry hard-fault components E3 has no use
    # for (pure proc_fail specs run the anchors fault-free).
    soft_model = fault_model.soft_component()

    def operator_for(solver_name: str):
        # Every anchor solver gets its own independent fault stream,
        # named like E8's per-solver streams (see reliability.seeding).
        if soft_model is None:
            return matrix
        region = soft_model.environment(seed=derive_fault_seed(seed, solver_name))
        return region.operator(matrix.matvec, flops_per_call=2.0 * matrix.nnz)

    # Solvers are resolved by registry name -- the solver axis campaigns
    # sweep -- not imported; each pair shares identical settings.
    solvers = default_solver_registry()
    cg_result = solvers.get("cg").solve(
        operator_for("cg"), b, tol=1e-8, maxiter=2000
    )
    pcg_result = solvers.get("pipelined_cg").solve(
        operator_for("pipelined_cg"), b, tol=1e-8, maxiter=2000
    )
    gmres_result = solvers.get("gmres").solve(
        operator_for("gmres"), b, tol=1e-8, restart=40, maxiter=2000
    )
    pgmres_result = solvers.get("pipelined_gmres").solve(
        operator_for("pipelined_gmres"), b, tol=1e-8, restart=40, maxiter=2000
    )

    anchor = Table(
        ["solver", "iterations", "converged", "reductions_per_iter"],
        title="E3a: iteration counts and synchronization counts (simulated)",
    )
    anchor.add_row("cg", cg_result.iterations, cg_result.converged, 3)
    anchor.add_row("pipelined_cg", pcg_result.iterations, pcg_result.converged, 1)
    mgs_reductions = (
        gmres_result.iterations and
        sum(j + 2 for j in range(min(gmres_result.iterations, 40))) / min(gmres_result.iterations, 40)
    )
    pipe_waves = pgmres_result.info["reduction_waves"] / max(pgmres_result.iterations, 1)
    anchor.add_row("gmres(mgs)", gmres_result.iterations, gmres_result.converged,
                   float(mgs_reductions))
    anchor.add_row("pipelined_gmres", pgmres_result.iterations, pgmres_result.converged,
                   float(pipe_waves))

    # Analytic weak-scaling model with ECC-stall noise.
    noise = EccStallNoise(noise_event_rate, noise_stall, rng=seed)
    machine = MachineModel.leadership_class(noise=noise)
    # CG-like iteration: ~20 flops per row of local work, 3 reductions
    # synchronous vs 1 overlapped wave.
    model = IterationTimeModel(
        local_flops=20.0 * rows_per_rank,
        n_reductions=3,
        pipeline_waves=1,
        overlap_fraction=0.9,
    )
    scaling = scaling_study(machine, model, rank_counts, iterations=iterations)

    # The scaling table is primary; the anchor table rides in the summary.
    summary = {
        "cg_iterations": cg_result.iterations,
        "pipelined_cg_iterations": pcg_result.iterations,
        "gmres_iterations": gmres_result.iterations,
        "pipelined_gmres_iterations": pgmres_result.iterations,
        "speedup_at_largest_p": scaling.column("speedup")[-1],
        "speedup_at_smallest_p": scaling.column("speedup")[0],
        "sync_efficiency_at_largest_p": scaling.column("sync_efficiency")[-1],
        "pipe_efficiency_at_largest_p": scaling.column("pipe_efficiency")[-1],
        "anchor_table": anchor.render(),
    }
    if backend is not None:
        # The fault-free CG anchor as a genuine SPMD solve over the
        # requested communicator.  Every backend reduces in ascending
        # rank order, so this residual history is bit-identical across
        # them -- the conformance suite's E3 differential gate pins it.
        bound = resolve_backend(backend)
        summary["backend"] = {
            "spec": bound.spec.to_string(),
            "anchor": backend_probe.distributed_solve(
                bound, "cg", grid=grid, tol=1e-8, maxiter=2000, seed=seed
            ),
        }
    return SPEC.result(scaling, summary)
