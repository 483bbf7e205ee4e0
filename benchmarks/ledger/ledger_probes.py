"""Layer probes of the traced run: one function per layer.

Every number here is taken from outside ``src/repro`` -- by timing the
harness's own calls into a layer's public functions and by reading the
counters those calls return.  Each probe group runs under a span named
after its layer, so ``trace.jsonl`` shows where the traced run's own
time went.  ``run_all`` returns ``{metric name: value}`` for every
workload-independent metric declared in ``ledger_spec.PER_LAYER``.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.campaign import CampaignRunner, ResultStore, default_registry
from repro.campaign.executor import AttemptRecord, FailureLedger, payload_checksum
from repro.campaign.runner import plan_batch_groups
from repro.campaign.spec import scenario_key
from repro.comm.registry import resolve_backend
from repro.experiments.backend_probe import distributed_solve, measure_collectives
from repro.krylov.ops import allocate_basis
from repro.krylov.registry import batch_solve, default_solver_registry
from repro.linalg.matgen import clear_matrix_cache, convection_diffusion_2d, poisson_2d
from repro.precond import build_preconditioner, parse_precond
from repro.reliability import resolve_faults, unreliable

from ledger_workloads import (
    CAMPAIGN_REPLICA_SEEDS,
    LARGE_GRID,
    POOL_WORKERS,
    TOL,
    campaign_scenarios,
    dist_ops,
    large_solve_ops,
    pin_to_cores,
    quiet,
    replica_scenarios,
)

__all__ = ["run_all", "p50_us"]

FAULT_SPEC = "bitflip:p=0.02,bits=52..62"
CALLS = 200
# Reductions per iteration of the distributed solvers, for the computed
# collective count (CG: p.Ap and r.r; pipelined CG: one fused wave;
# GMRES with CGS2: two block dots and a norm).
REDUCTIONS_PER_ITERATION = {"cg": 2, "pipelined_cg": 1, "gmres": 3}


def p50_us(call: Callable[[], object], calls: int = CALLS,
           prepare: Optional[Callable[[], object]] = None) -> float:
    """Median wall time of ``call()`` in microseconds over ``calls`` runs.

    ``prepare`` (untimed) builds the argument for each run when the
    call consumes or overwrites its input.
    """
    samples = []
    for _ in range(calls):
        argument = prepare() if prepare is not None else None
        started = time.perf_counter_ns()
        call(argument) if prepare is not None else call()
        samples.append(time.perf_counter_ns() - started)
    return statistics.median(samples) / 1e3


def _timed(call: Callable[[], object]):
    started = time.perf_counter()
    value = call()
    return time.perf_counter() - started, value


# ----------------------------------------------------------------------
def probe_host(out: Dict[str, float]) -> None:
    out["host.nproc"] = os.cpu_count() or 1
    out["host.loadavg1"] = os.getloadavg()[0]
    # Triad a = b + s*c over three arrays that together match the
    # solves_large working set (41-vector basis + CSR, about 6.7 MB).
    n = (41 * LARGE_GRID * LARGE_GRID + 5 * LARGE_GRID * LARGE_GRID) // 3
    a, b, c = np.zeros(n), np.ones(n), np.full(n, 0.5)

    def triad() -> None:
        np.multiply(c, 1.0001, out=a)
        np.add(a, b, out=a)

    # numpy makes two passes: read c, write a, then read a, b, write a.
    out["host.triad_gbps"] = 5 * n * 8 / (p50_us(triad, 50) * 1e-6) / 1e9

    def pyloop() -> None:
        x = 0
        for i in range(100_000):
            x += i & 3

    out["host.pyloop_ns"] = p50_us(pyloop, 15) * 1e3 / 100_000


def probe_linalg(out: Dict[str, float], seed: int) -> None:
    def cold_matgen() -> None:
        clear_matrix_cache()
        poisson_2d(LARGE_GRID)
        convection_diffusion_2d(LARGE_GRID, peclet=10.0)

    out["linalg.matgen_ms.cold"] = p50_us(cold_matgen, 3) / 1e3
    rng = np.random.default_rng(seed)
    small = poisson_2d(8)
    large = convection_diffusion_2d(LARGE_GRID, peclet=10.0)
    x_small = rng.standard_normal(small.n_rows)
    x_large = rng.standard_normal(large.n_rows)
    out["linalg.matvec_us.n64"] = p50_us(lambda: small.matvec(x_small))
    out["linalg.matvec_us.n16384"] = p50_us(lambda: large.matvec(x_large))
    moved = large.nnz * 16 + (large.n_rows + 1) * 8 + 2 * large.n_rows * 8
    out["linalg.matvec_gbps_computed"] = (
        moved / (out["linalg.matvec_us.n16384"] * 1e-6) / 1e9
    )
    out["linalg.matvec_bw_frac"] = (
        out["linalg.matvec_gbps_computed"] / out["host.triad_gbps"]
    )
    stack = rng.standard_normal((48, small.n_rows))
    out["linalg.matvec_block_us.s48n64"] = p50_us(lambda: small.matvec_block(stack))
    for kind, matrix in (("jacobi", poisson_2d(LARGE_GRID)), ("poly4", large)):
        built = build_preconditioner(parse_precond(kind), matrix)
        out[f"linalg.precond_apply_us.{kind}"] = p50_us(lambda: built.apply(x_large))


def probe_krylov_ops(out: Dict[str, float], seed: int) -> None:
    rng = np.random.default_rng(seed)
    for n, label in ((64, "n64"), (LARGE_GRID * LARGE_GRID, "n16384")):
        basis = allocate_basis(np.zeros(n), 41)
        # Orthonormal columns, as the solvers keep them.
        q, _ = np.linalg.qr(rng.standard_normal((n, 40)))
        for j in range(40):
            basis.append(q[:, j])
        w = rng.standard_normal(n)
        out[f"krylov.ops.cgs2_us.{label}k20"] = p50_us(
            lambda v: basis.orthogonalize(v, "cgs2", k=20), prepare=w.copy
        )
        if n > 64:
            y = rng.standard_normal(40)
            out["krylov.ops.lincomb_us.n16384k40"] = p50_us(
                lambda: basis.lincomb(y, k=40)
            )


def probe_engine(out: Dict[str, float], seed: int, tracer) -> None:
    registry = default_solver_registry()
    attempted = converged = 0

    # The seven large solves, individually timed, two passes.
    ops, matrices, rhs = large_solve_ops(seed)
    wall: Dict[str, List[float]] = {solver: [] for solver, _, _ in ops}
    kernel_s = total_s = 0.0
    matvec_calls = 0
    inner_frac = []
    for index in range(2):
        for solver, key, kwargs in ops:
            with tracer.span(f"solve.{solver}", "krylov.engine"):
                seconds, result = _timed(
                    lambda: registry.get(solver).solve(matrices[key], rhs[key], **kwargs)
                )
            wall[solver].append(seconds)
            kernels = result.info["kernels"]
            total_s += seconds
            kernel_s += sum(kernels["seconds"].values())
            attempted += 1
            converged += bool(result.converged)
            if index == 0:
                matvec_calls += kernels["counts"]["matvec"]
            if solver == "ft_gmres":
                inner_frac.append(kernels["seconds"]["inner_solve"] / seconds)
    for solver, samples in wall.items():
        out[f"krylov.engine.solve_ms.{solver}"] = statistics.median(samples) * 1e3
    out["linalg.matvec_calls"] = matvec_calls
    out["krylov.engine.kernel_s"] = kernel_s
    out["krylov.engine.self_s"] = total_s - kernel_s
    out["krylov.engine.self_frac.large"] = 1.0 - kernel_s / total_s
    out["ftgmres.inner_frac"] = statistics.median(inner_frac)
    out["skeptical.overhead_frac.large"] = (
        out["krylov.engine.solve_ms.sdc_gmres"] / out["krylov.engine.solve_ms.gmres"] - 1.0
    )

    # Grid-8 solves, fault-free: the size campaigns actually run.
    small = poisson_2d(8)
    rng = np.random.default_rng(seed)
    b = small.matvec(rng.standard_normal(small.n_rows))
    small_kernel_s = small_total_s = 0.0
    for solver in ("gmres", "cg", "sdc_gmres"):
        entry = registry.get(solver)
        samples = []
        with tracer.span(f"small_solve.{solver}", "krylov.engine"):
            for _ in range(CALLS):
                seconds, result = _timed(lambda: entry.solve(small, b, tol=TOL))
                samples.append(seconds)
                small_total_s += seconds
                small_kernel_s += sum(result.info["kernels"]["seconds"].values())
                attempted += 1
                converged += bool(result.converged)
        out[f"krylov.engine.small_solve_us.{solver}"] = statistics.median(samples) * 1e6
    out["krylov.engine.self_frac.small"] = 1.0 - small_kernel_s / small_total_s
    out["skeptical.overhead_frac.small"] = (
        out["krylov.engine.small_solve_us.sdc_gmres"]
        / out["krylov.engine.small_solve_us.gmres"] - 1.0
    )
    out["krylov.engine.converged_frac"] = converged / attempted

    lanes = [small.matvec(rng.standard_normal(small.n_rows)) for _ in range(48)]
    with tracer.span("batch_solve.s48", "krylov.engine"):
        batch_us = p50_us(lambda: batch_solve("gmres", small, lanes, tol=TOL), 10)
    out["krylov.engine.batch_solve_ms.s48"] = batch_us / 1e3
    out["krylov.engine.batch_speedup.s48"] = (
        48 * out["krylov.engine.small_solve_us.gmres"] / batch_us
    )


def probe_specs(out: Dict[str, float], seed: int) -> None:
    """Registry, fault-spec and preconditioner resolution: per-solve fixed costs."""
    registry = default_solver_registry()
    out["krylov.registry.resolve_us"] = p50_us(
        lambda: registry.get("gmres").resolve_policy("skeptical")
    )
    out["reliability.resolve_us"] = p50_us(lambda: resolve_faults(FAULT_SPEC))
    small = poisson_2d(8)
    x = np.random.default_rng(seed).standard_normal(small.n_rows)
    with quiet(), unreliable(FAULT_SPEC, seed=seed) as domain:
        operator = domain.operator(small.matvec)
        out["reliability.unreliable_matvec_us.n64"] = p50_us(lambda: operator(x))
        out["reliability.injections"] = domain.faults_injected()
    for kind in ("jacobi", "poly4"):
        spec = parse_precond(kind)
        out[f"precond.build_us.{kind}"] = p50_us(
            lambda: build_preconditioner(spec, small)
        )
    out["precond.parse_us"] = p50_us(lambda: parse_precond("ssor:omega=1.2"))


def probe_experiments(out: Dict[str, float], seed: int, tracer) -> None:
    registry = default_registry()
    with quiet():
        for driver in registry:
            name = driver.experiment.lower()
            with tracer.span(f"run.{name}", "experiments"):
                us = p50_us(lambda: driver.run(**driver.spec.golden), 3)
            out[f"experiments.run_ms.{name}"] = us / 1e3
        detection = registry.get("E1").run(**registry.get("E1").spec.golden)
        out["skeptical.detection_rate"] = detection.summary[
            "exponent_skeptical_detection_rate"
        ]
        replicas = replica_scenarios(seed, 48)
        for k, name in enumerate(("e1", "e8", "e9")):
            driver = registry.get(name)
            params = [dict(s.params) for s in replicas[48 * k:48 * (k + 1)]]
            with tracer.span(f"replica.{name}", "experiments"):
                times = [_timed(lambda: driver.run(**p))[0] for p in params[:5]]
            out[f"experiments.replica_ms.{name}"] = statistics.median(times) * 1e3
            with tracer.span(f"run_batch.{name}", "experiments"):
                us = p50_us(lambda: driver.run_batch(params), 2)
            out[f"experiments.run_batch_ms.{name}"] = us / 1e3


def probe_campaign(out: Dict[str, float], seed: int, workdir: str, tracer) -> None:
    scenarios = campaign_scenarios(seed)
    n_replicas = 3 * CAMPAIGN_REPLICA_SEEDS
    replicas, cells = scenarios[:n_replicas], scenarios[n_replicas:]
    n = len(scenarios)

    runner = CampaignRunner(None)
    out["campaign.runner.resolve_us"] = p50_us(lambda: runner.resolve(replicas[0]))
    out["campaign.runner.scenario_key_us"] = p50_us(
        lambda: scenario_key(replicas[0].experiment, replicas[0].params)
    )
    out["campaign.runner.batch_groups"] = len(
        plan_batch_groups([runner.resolve(s) for s in scenarios])
    )

    # Write side, in-process: populate one store with the whole list.
    path = os.path.join(workdir, "probe.jsonl")
    store = ResultStore(path)
    with tracer.span("populate", "campaign.runner"):
        seq_replicas_s, first = _timed(lambda: CampaignRunner(store).run(replicas))
        cells_s, second = _timed(lambda: CampaignRunner(store).run(cells))
    populated = first + second
    out["campaign.runner.dispatch_us_per_scenario"] = (
        (seq_replicas_s + cells_s - sum(o.elapsed for o in populated)) / n * 1e6
    )

    # Read side: load and re-run the stored campaign.
    size = os.path.getsize(path)
    out["campaign.store.bytes_per_record"] = size / n
    with tracer.span("load", "campaign.store"):
        load_us = p50_us(lambda: ResultStore(path), 5)
    out["campaign.store.load_ms.696"] = load_us / 1e3
    out["campaign.store.load_mb_per_s"] = size / load_us
    loaded = ResultStore(path)
    with tracer.span("cached_rerun", "campaign.runner"):
        hit_us = p50_us(lambda: CampaignRunner(loaded).run(scenarios), 5)
    out["campaign.store.cached_hit_us"] = hit_us / n

    # Single appends and ledger records, on scratch files of their own.
    cell = populated[-1]
    scratch = ResultStore(os.path.join(workdir, "append.jsonl"))
    keys = iter(range(CALLS))
    out["campaign.store.append_us"] = p50_us(
        lambda: scratch.append(
            f"{next(keys):016x}", experiment="E7", tag="probe",
            params=cell.scenario.params, result=cell.result, elapsed=cell.elapsed,
        )
    )
    ledger = FailureLedger(os.path.join(workdir, "append.ledger.jsonl"))
    record = AttemptRecord(key=cell.key, experiment="E7", attempt=1, status="ok",
                           outcome="completed", elapsed=cell.elapsed, wall_time=0.0)
    out["campaign.store.ledger_record_us"] = p50_us(lambda: ledger.record(record))
    out["campaign.executor.checksum_us"] = p50_us(
        lambda: payload_checksum(populated[0].result)
    )

    # Supervised workers (no store: the executor alone).
    pool = lambda: CampaignRunner(None, workers=POOL_WORKERS)
    with tracer.span("spawn", "campaign.executor"):
        out["campaign.executor.spawn_ms"] = p50_us(lambda: pool().run(cells[:1]), 3) / 1e3
    with tracer.span("pool.cells", "campaign.executor"):
        pool_cells_s, cell_outcomes = _timed(lambda: pool().run(cells))
    out["campaign.executor.ipc_us_per_scenario"] = (
        (pool_cells_s - sum(o.elapsed for o in cell_outcomes) / POOL_WORKERS)
        / len(cells) * 1e6
    )
    with tracer.span("pool.replicas", "campaign.executor"):
        pool_replicas_s, replica_outcomes = _timed(lambda: pool().run(replicas))
    out["campaign.executor.speedup_vs_seq"] = seq_replicas_s / pool_replicas_s
    pooled = cell_outcomes + replica_outcomes
    out["campaign.executor.attempts_per_scenario"] = (
        sum(o.attempts for o in pooled) / len(pooled)
    )


def _noop(comm) -> int:
    return comm.rank


def probe_comm(out: Dict[str, float], seed: int, tracer) -> None:
    sizes = {8: "8", 65536: "64k", 1048576: "1m"}
    collectives = 0
    for backend in ("sim", "shmem"):
        spec = f"{backend}:procs={POOL_WORKERS}"
        bound = resolve_backend(spec)
        with tracer.span(f"launch.{backend}", "comm"):
            launch_us = p50_us(lambda: bound.launch(_noop), 5)
        out[f"comm.launch_ms.{backend}"] = launch_us / 1e3
        with tracer.span(f"collectives.{backend}", "comm"):
            measured = measure_collectives(
                spec, nbytes_list=tuple(sizes), iterations=30
            )
        for nbytes, label in sizes.items():
            out[f"comm.allreduce_us.{backend}.{label}"] = measured["allreduce"][nbytes] * 1e6
        out[f"comm.bcast_us.{backend}.64k"] = measured["bcast"][65536] * 1e6
        out[f"comm.barrier_us.{backend}"] = measured["barrier"][8] * 1e6

        solve_s = 0.0
        iterations = 0
        for op_backend, label, solver, grid in dist_ops():
            if op_backend != backend:
                continue
            samples = []
            with tracer.span(f"solve.{backend}.{label}", "comm"):
                for _ in range(3):
                    seconds, result = _timed(lambda: distributed_solve(
                        spec, solver, grid=grid, tol=TOL, seed=seed))
                    samples.append(seconds)
            median = statistics.median(samples)
            out[f"comm.solve_ms.{backend}.{label}"] = median * 1e3
            solve_s += median - launch_us * 1e-6
            iterations += result["iterations"]
            if backend == "sim":
                collectives += REDUCTIONS_PER_ITERATION[solver] * result["iterations"]
        out[f"comm.iter_us.{backend}"] = solve_s / iterations * 1e6
    out["comm.collectives_per_solve.computed"] = collectives / 4


def run_all(seed: int, workdir: str, tracer) -> Dict[str, float]:
    out: Dict[str, float] = {}
    # (layer, cores as the workloads that exercise it use them, probe)
    groups = [
        ("host", 1, lambda: probe_host(out)),
        ("linalg", 1, lambda: probe_linalg(out, seed)),
        ("krylov.ops", 1, lambda: probe_krylov_ops(out, seed)),
        ("krylov.engine", 1, lambda: probe_engine(out, seed, tracer)),
        ("specs", 1, lambda: probe_specs(out, seed)),
        ("experiments", 1, lambda: probe_experiments(out, seed, tracer)),
        ("campaign", POOL_WORKERS, lambda: probe_campaign(out, seed, workdir, tracer)),
        # As in dist_solves: both backends' ranks take turns on one core.
        ("comm", 1, lambda: probe_comm(out, seed, tracer)),
    ]
    for layer, cores, probe in groups:
        pin_to_cores(cores)
        with tracer.span(layer, layer):
            probe()
    return {name: float(value) for name, value in out.items()}
