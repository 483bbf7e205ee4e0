"""What the ledger measures: workloads, end-to-end metrics, per-layer metrics.

This is the one place a metric is declared.  ``BENCHMARK.json`` at the
repo root repeats the names, units and directions in the shape the
builder's contract fixes (it has no room for a layer, an exact-count
flag or the "should move" prediction, so those live only here);
``test_ledger.py`` checks that the two agree name for name.

Standard library only: ``run.py`` and ``compare.py`` import this module
without importing numpy or ``repro``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Workload",
    "Metric",
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "CONTRACT_END_TO_END",
    "ROUNDS",
    "REFERENCE_CAL_S",
    "plan_rounds",
    "metric_index",
]

# Seconds the calibration composite (``ledger_workloads.Calibrator``)
# takes on the reference host -- this 2-core box in a quiet spell.  A
# reference second is the time in which the host does 1 / 0.032
# composites; all end-to-end times are reported in reference seconds.
REFERENCE_CAL_S = 0.032

# Rounds (fresh subprocesses) per workload in an untraced set.  Every
# round pays the set-up again, so within the driver's time cap three
# rounds with more passes each give more timed samples per operation
# than five short ones.
ROUNDS = 3


@dataclass(frozen=True)
class Workload:
    """One set of inputs the benchmark runs.

    ``pass_s`` is the measured cost of one pass on the reference host
    (2 cores); it only sizes the fixed-count timed section from
    ``--seconds`` and is never reported.
    """

    name: str
    unit: str
    pass_s: float
    why: str


@dataclass(frozen=True)
class Metric:
    """One named number of the ledger.

    ``bound`` is the share of the other side's median by which the
    metric may get worse (``absolute`` bounds are differences instead);
    per-layer metrics have none.  ``exact`` marks counts that must
    repeat exactly between two sets of the same code and seed.
    ``moves`` names the (end-to-end metric, workload) pairs the number
    is predicted to move; everywhere else the prediction is no change.
    """

    name: str
    unit: str
    better: str
    layer: str = "end_to_end"
    bound: Optional[float] = None
    absolute: bool = False
    exact: bool = False
    per_workload: bool = False
    how: str = ""
    moves: str = ""


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "tables", "table", 0.5,
        "Reproduce-the-paper path: all ten drivers at golden parameters, "
        "checked byte for byte against tests/goldens; the rows whose drift "
        "ROADMAP reports.",
    ),
    Workload(
        "replicas_seq", "scenario", 1.6,
        "Monte-Carlo replicas of E1/E8/E9 at n=64 run one at a time: "
        "interpreter, engine core, policy dispatch and spec resolution "
        "dominate, kernels do not.",
    ),
    Workload(
        "replicas_batch", "scenario", 0.6,
        "The same replica scenarios through batch=0: the lockstep batch "
        "engine and run_batch drivers do the work core.py and run do in "
        "replicas_seq.",
    ),
    Workload(
        "campaign_pool", "scenario", 0.8,
        "Write side of the campaign machinery: workers=2 executor IPC, "
        "checksums, store appends and ledger records over 96 replicas plus "
        "600 cheap E7 cells.",
    ),
    Workload(
        "campaign_cached", "scenario", 0.13,
        "Read side: re-running a fully stored campaign (store load, key "
        "hashing, resolve, ledger reconcile); solvers do nothing, so it "
        "bypasses every solver-side change.",
    ),
    Workload(
        "solves_large", "solve", 3.4,
        "Seven registered solvers to tol=1e-8 at n=16384 where matvec and "
        "orthogonalization kernels dominate; decides the native-kernel tier.",
    ),
    Workload(
        "dist_solves", "solve", 0.5,
        "Launch + SPMD solve + shutdown on the sim and shmem communicators "
        "(2 ranks sharing one core): where comm/simmpi do most of the work; "
        "both backends must give equal residual histories.",
    ),
)


# The three time metrics are in reference seconds (see REFERENCE_CAL_S).
# Their bounds are three times the ten-seed spreads measured on this
# host (baseline/noise_floor.txt), as the builder's contract asks; set-up
# shares the largest.
END_TO_END: Tuple[Metric, ...] = (
    Metric(
        "setup_s", "s", "lower", bound=0.25,
        how="subprocess start to first timed op: imports, registry "
        "discovery, input generation, store population, warm-up",
    ),
    Metric(
        "work_per_s", "work/s", "higher", bound=0.25,
        how="units of work per pass / seconds per pass, the sum over "
        "operations of each operation's median time",
    ),
    Metric(
        "cpu_ms_per_work", "ms", "lower", bound=0.25,
        how="user+sys CPU of the round's process and its reaped children "
        "per pass / units",
    ),
    Metric(
        "peak_rss_mb", "MiB", "lower", bound=0.05,
        how="max RSS of the round's process plus its largest child",
    ),
    Metric(
        "failed_frac", "ratio", "lower", bound=0.0, absolute=True,
        how="units that raised, ended in a status other than "
        "completed/cached, or failed the correctness check / attempted",
    ),
)

# ``failed_frac`` is expected to be exactly 0, and the builder's
# contract forbids end-to-end metrics that can be 0: contract runs
# report it through the ``failed``/``attempted`` keys instead.
CONTRACT_END_TO_END: Tuple[str, ...] = tuple(
    m.name for m in END_TO_END if m.name != "failed_frac"
)

_LARGE_SOLVERS = (
    "gmres", "fgmres", "pipelined_gmres", "sdc_gmres", "ft_gmres",
    "cg", "pipelined_cg",
)
_SMALL_SOLVERS = ("gmres", "cg", "sdc_gmres")
_EXPERIMENTS = tuple(f"e{i}" for i in range(1, 11))
_BATCH_EXPERIMENTS = ("e1", "e8", "e9")
_BACKENDS = ("sim", "shmem")
_DIST_OPS = ("cg32", "pcg32", "gmres16", "cg64")


def _per_layer() -> List[Metric]:
    out: List[Metric] = []

    def add(name, unit, better, layer, how, moves="", **flags):
        out.append(Metric(name, unit, better, layer=layer, how=how,
                          moves=moves, **flags))

    # host: normalisers, and the flag for a noisy box
    add("host.triad_gbps", "GB/s", "higher", "host",
        "numpy triad a = b + s*c at the solves_large working-set size",
        "normaliser only")
    add("host.pyloop_ns", "ns", "lower", "host",
        "fixed pure-Python loop, per iteration", "normaliser only")
    add("host.nproc", "count", "higher", "host", "os.cpu_count()",
        "normaliser only")
    add("host.loadavg1", "load", "lower", "host",
        "os.getloadavg()[0] when the probes start", "flags a noisy host")

    # linalg
    large = "work_per_s on solves_large"
    add("linalg.matvec_us.n64", "us", "lower", "linalg",
        "p50 of 200 CsrMatrix.matvec on poisson_2d(8)",
        "work_per_s on replicas_seq (marginal)")
    add("linalg.matvec_us.n16384", "us", "lower", "linalg",
        "p50 of 200 CsrMatrix.matvec on convection_diffusion_2d(128)", large)
    add("linalg.matvec_calls", "count", "lower", "linalg",
        "sum of info['kernels']['counts']['matvec'] over the seven large "
        "solves", large, exact=True)
    add("linalg.matvec_gbps_computed", "GB/s", "higher", "linalg",
        "computed bytes nnz*16 + (rows+1)*8 + 2n*8 / matvec_us.n16384",
        large)
    add("linalg.matvec_bw_frac", "ratio", "higher", "linalg",
        "matvec_gbps_computed / host.triad_gbps", large)
    add("linalg.matvec_block_us.s48n64", "us", "lower", "linalg",
        "p50 of CsrMatrix.matvec_block on a (48, 64) stack",
        "work_per_s on replicas_batch")
    for kind in ("jacobi", "poly4"):
        add(f"linalg.precond_apply_us.{kind}", "us", "lower", "linalg",
            f"p50 of build_preconditioner('{kind}', A).apply(v) at n=16384",
            large)
    add("linalg.matgen_ms.cold", "ms", "lower", "linalg",
        "cold poisson_2d(128) + convection_diffusion_2d(128)",
        "setup_s on solves_large")

    # krylov.ops
    add("krylov.ops.cgs2_us.n64k20", "us", "lower", "krylov.ops",
        "p50 of KrylovBasis.orthogonalize(w, 'cgs2') against 20 vectors",
        "work_per_s on replicas_seq")
    add("krylov.ops.cgs2_us.n16384k20", "us", "lower", "krylov.ops",
        "p50 of KrylovBasis.orthogonalize(w, 'cgs2') against 20 vectors",
        large)
    add("krylov.ops.lincomb_us.n16384k40", "us", "lower", "krylov.ops",
        "p50 of KrylovBasis.lincomb over 40 vectors", large)

    # krylov.engine
    for solver in _LARGE_SOLVERS:
        add(f"krylov.engine.solve_ms.{solver}", "ms", "lower",
            "krylov.engine", "p50 wall of the solves_large solve", large)
    for solver in _SMALL_SOLVERS:
        add(f"krylov.engine.small_solve_us.{solver}", "us", "lower",
            "krylov.engine",
            "p50 of registry solve at grid 8, fault-free, 200 calls",
            "work_per_s on replicas_seq, tables")
    add("krylov.engine.kernel_s", "s", "lower", "krylov.engine",
        "sum of info['kernels']['seconds'] over the large solves", large)
    add("krylov.engine.self_s", "s", "lower", "krylov.engine",
        "large-solve wall - kernel_s: interpreter/dispatch remainder", large)
    add("krylov.engine.self_frac.small", "ratio", "lower", "krylov.engine",
        "1 - kernel seconds / wall over the grid-8 solves",
        "work_per_s on replicas_seq, replicas_batch")
    add("krylov.engine.self_frac.large", "ratio", "lower", "krylov.engine",
        "self_s / large-solve wall; should stay < 0.2", large)
    add("krylov.engine.iterations", "count", "lower", "krylov.engine",
        "solver iterations the timed section reports (SolveResult."
        "iterations, or the 'iterations' column of executed tables)",
        "a change is a numerics change, not a speed-up",
        exact=True, per_workload=True)
    add("krylov.engine.converged_frac", "ratio", "higher", "krylov.engine",
        "converged / attempted over the probe solves", "numerics",
        exact=True)
    add("krylov.engine.batch_solve_ms.s48", "ms", "lower", "krylov.engine",
        "p50 of batch_solve('gmres', A, bs) with 48 lanes at n=64",
        "work_per_s on replicas_batch")
    add("krylov.engine.batch_speedup.s48", "ratio", "higher",
        "krylov.engine", "48 * small_solve_us.gmres / batch_solve_ms.s48",
        "work_per_s on replicas_batch")

    add("krylov.registry.resolve_us", "us", "lower", "krylov.registry",
        "p50 of default_solver_registry().get(n) + resolve_policy",
        "work_per_s on replicas_seq, tables")

    # reliability / precond / skeptical / ftgmres
    small = "work_per_s on replicas_seq, tables"
    add("reliability.resolve_us", "us", "lower", "reliability",
        "p50 of resolve_faults('bitflip:p=0.02,bits=52..62')", small)
    add("reliability.unreliable_matvec_us.n64", "us", "lower", "reliability",
        "p50 of dom.operator(A.matvec)(x) inside unreliable(spec); wrapper "
        "overhead = this - linalg.matvec_us.n64", small)
    add("reliability.injections", "count", "lower", "reliability",
        "dom.faults_injected() after the 200 unreliable matvecs", "",
        exact=True)
    for kind in ("jacobi", "poly4"):
        add(f"precond.build_us.{kind}", "us", "lower", "precond",
            f"p50 of build_preconditioner('{kind}', A) at n=64",
            "work_per_s on tables (E9 builds one per cell), replicas_seq")
    add("precond.parse_us", "us", "lower", "precond",
        "p50 of parse_precond('ssor:omega=1.2')", small)
    add("skeptical.overhead_frac.small", "ratio", "lower", "skeptical",
        "small_solve_us.sdc_gmres / small_solve_us.gmres - 1",
        "work_per_s on replicas_seq")
    add("skeptical.overhead_frac.large", "ratio", "lower", "skeptical",
        "solve_ms.sdc_gmres / solve_ms.gmres - 1", large)
    add("skeptical.detection_rate", "ratio", "higher", "skeptical",
        "E1 golden summary exponent_skeptical_detection_rate", "",
        exact=True)
    add("ftgmres.inner_frac", "ratio", "lower", "ftgmres",
        "info['kernels']['seconds']['inner_solve'] / ft_gmres wall", large)

    # experiments
    for exp in _EXPERIMENTS:
        add(f"experiments.run_ms.{exp}", "ms", "lower", "experiments",
            "p50 of driver.run(**golden); successor of the legacy "
            "BENCH_PR* rows", "work_per_s on tables")
    for exp in _BATCH_EXPERIMENTS:
        add(f"experiments.replica_ms.{exp}", "ms", "lower", "experiments",
            "p50 of driver.run at the replicas parameters",
            "work_per_s on replicas_seq")
    for exp in _BATCH_EXPERIMENTS:
        add(f"experiments.run_batch_ms.{exp}", "ms", "lower", "experiments",
            "p50 of driver.run_batch over 48 seed replicas",
            "work_per_s on replicas_batch")

    # campaign
    both = "work_per_s on campaign_pool, campaign_cached"
    add("campaign.runner.resolve_us", "us", "lower", "campaign.runner",
        "p50 of CampaignRunner.resolve(scenario)", both)
    add("campaign.runner.scenario_key_us", "us", "lower", "campaign.runner",
        "p50 of scenario_key(experiment, params)", both)
    add("campaign.runner.dispatch_us_per_scenario", "us", "lower",
        "campaign.runner",
        "(in-process run wall - sum of outcome.elapsed) / n on the "
        "696-scenario list", both)
    add("campaign.runner.batch_groups", "count", "lower", "campaign.runner",
        "len(plan_batch_groups(...)) on the 696-scenario list", "",
        exact=True)
    add("campaign.store.append_us", "us", "lower", "campaign.store",
        "p50 of ResultStore.append of an E7 record",
        "work_per_s on campaign_pool; setup_s on campaign_cached")
    add("campaign.store.bytes_per_record", "B", "lower", "campaign.store",
        "store file size / records on the 696-scenario store",
        "work_per_s on campaign_cached")
    add("campaign.store.load_ms.696", "ms", "lower", "campaign.store",
        "p50 of ResultStore(path) on the 696-scenario store",
        "work_per_s on campaign_cached")
    add("campaign.store.load_mb_per_s", "MB/s", "higher", "campaign.store",
        "store file size / load time", "work_per_s on campaign_cached")
    add("campaign.store.ledger_record_us", "us", "lower", "campaign.store",
        "p50 of FailureLedger.record",
        "work_per_s on campaign_pool; setup_s on campaign_cached")
    add("campaign.store.cached_hit_us", "us", "lower", "campaign.store",
        "(warm CampaignRunner.run on the loaded store) / n",
        "work_per_s on campaign_cached")
    pool = "work_per_s, cpu_ms_per_work on campaign_pool"
    add("campaign.executor.spawn_ms", "ms", "lower", "campaign.executor",
        "wall of CampaignRunner(workers=2).run([one E7 cell])",
        "setup_s, work_per_s on campaign_pool")
    add("campaign.executor.ipc_us_per_scenario", "us", "lower",
        "campaign.executor",
        "(workers=2 wall - sum of elapsed / 2) / n on the 600 cheap cells",
        pool)
    add("campaign.executor.speedup_vs_seq", "ratio", "higher",
        "campaign.executor",
        "in-process wall / workers=2 wall on the 96 replicas", pool)
    add("campaign.executor.attempts_per_scenario", "count", "lower",
        "campaign.executor", "sum of outcome.attempts / n (1.0: no retries)",
        pool, exact=True)
    add("campaign.executor.checksum_us", "us", "lower", "campaign.executor",
        "p50 of payload_checksum on a replica result", pool)

    # comm / simmpi
    dist = "work_per_s on dist_solves"
    for backend in _BACKENDS:
        add(f"comm.launch_ms.{backend}", "ms", "lower", "comm",
            "p50 of resolve_backend(b).launch(noop) with procs=2",
            dist + " (its small ops)")
    for backend in _BACKENDS:
        for size in ("8", "64k", "1m"):
            add(f"comm.allreduce_us.{backend}.{size}", "us", "lower", "comm",
                "backend_probe.measure_collectives, 30 iterations",
                dist + " (grid-64 ops); sim also tables (E3-E5)")
    for backend in _BACKENDS:
        add(f"comm.bcast_us.{backend}.64k", "us", "lower", "comm",
            "backend_probe.measure_collectives, 30 iterations", dist)
    for backend in _BACKENDS:
        add(f"comm.barrier_us.{backend}", "us", "lower", "comm",
            "backend_probe.measure_collectives, 30 iterations", dist)
    for backend in _BACKENDS:
        for op in _DIST_OPS:
            add(f"comm.solve_ms.{backend}.{op}", "ms", "lower", "comm",
                "p50 wall of the dist_solves op", dist)
    for backend in _BACKENDS:
        add(f"comm.iter_us.{backend}", "us", "lower", "comm",
            "(solve - launch) / iterations over the four ops", dist)
    add("comm.collectives_per_solve.computed", "count", "lower", "comm",
        "reductions per iteration x iterations, computed (no counters "
        "exist yet; ROADMAP aim 4)", dist, exact=True)

    # harness
    add("unattributed_frac", "ratio", "lower", "harness",
        "(timed wall - the deepest durations the program reports to the "
        "harness) / timed wall", "the explicit remainder line",
        per_workload=True)
    add("trace.overhead_frac", "ratio", "lower", "harness",
        "untraced work_per_s / traced work_per_s - 1", "tracing cost",
        per_workload=True)
    return out


PER_LAYER: Tuple[Metric, ...] = tuple(_per_layer())


def plan_rounds(workload: Workload, seconds: float) -> Tuple[int, int]:
    """``(rounds, passes per round)`` for a measuring time of ``seconds``.

    Counts, not durations, are fixed: the same ``seconds`` always gives
    the same number of operations, so iteration and op counts repeat
    exactly.
    """
    return ROUNDS, max(1, round(seconds / ROUNDS / workload.pass_s))


def metric_index() -> Dict[str, Metric]:
    """Every declared metric by name."""
    return {m.name: m for m in END_TO_END + PER_LAYER}
