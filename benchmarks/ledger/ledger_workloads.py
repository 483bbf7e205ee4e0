"""The seven workloads, as run inside one round's subprocess.

Each workload has three steps.  ``setup`` generates every input from
the seed and warms the paths it is about to time; ``timed`` is the
fixed-count section (only calls into the program's public functions,
wrapped in harness spans that are free when tracing is off); ``check``
decides afterwards, outside the timed section, which units of work
failed.  Nothing in ``src/repro`` is patched or instrumented: what the
harness knows about the inside of a call is what the call returns
(``SolveResult.info["kernels"]``, ``ScenarioOutcome.elapsed`` ...).
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import resource
import statistics
import sys
import time
import traceback
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.campaign import (
    CampaignRunner,
    ResultStore,
    Scenario,
    Sweep,
    builtin_campaign,
    default_registry,
)
from repro.campaign.spec import canonical_json
from repro.experiments.backend_probe import distributed_solve
from repro.krylov.registry import default_solver_registry
from repro.linalg.matgen import convection_diffusion_2d, poisson_2d

__all__ = [
    "Checked",
    "WORKLOAD_CLASSES",
    "quiet",
    "golden_text",
    "replica_scenarios",
    "cheap_cells",
    "campaign_scenarios",
    "large_solve_ops",
    "dist_ops",
    "table_iterations",
]

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
GOLDEN_DIR = REPO_ROOT / "tests" / "goldens"

TOL = 1e-8
LARGE_GRID = 128
POOL_WORKERS = 2
# Seeds per experiment in the replica lists: 24 x E1/E8/E9 = 72
# scenarios per pass; 32 x 3 = 96 replicas in the campaign lists.
REPLICA_SEEDS = 24
CAMPAIGN_REPLICA_SEEDS = 32


@contextmanager
def quiet():
    """Scope the RuntimeWarnings injected overflows raise to harness calls."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


@dataclass
class Checked:
    """What ``check`` found: units attempted, units failed, exact counts."""

    attempted: int
    failed: int
    iterations: int
    notes: List[str]


# ----------------------------------------------------------------------
# Inputs (pure functions of the seed)
# ----------------------------------------------------------------------
def replica_scenarios(seed: int, n_seeds: int) -> List[Scenario]:
    """E1/E8/E9 x ``n_seeds`` replicas at the ``replicas`` builtin's params."""
    base: Dict[str, dict] = {}
    for scenario in builtin_campaign("replicas"):
        base.setdefault(
            scenario.experiment,
            {k: v for k, v in scenario.params.items() if k != "seed"},
        )
    seeds = tuple(seed + k for k in range(n_seeds))
    scenarios: List[Scenario] = []
    for experiment in ("E1", "E8", "E9"):
        scenarios.extend(
            Sweep(experiment, axes={"seed": seeds}, base=base[experiment],
                  tag="replicas").expand()
        )
    return scenarios


def cheap_cells(seed: int) -> List[Scenario]:
    """600 analytic E7 cells (30 x 20 grid, about 0.5 ms each)."""
    rng = random.Random(seed)
    mtbf = [round(1.0 + 0.25 * i + 0.2 * rng.random(), 6) for i in range(30)]
    checkpoint = [round(30.0 + 15.0 * j + 10.0 * rng.random(), 6) for j in range(20)]
    return Sweep(
        "E7",
        axes={"node_mtbf_years": mtbf, "checkpoint_time": checkpoint},
        tag="cells",
    ).expand()


def campaign_scenarios(seed: int) -> List[Scenario]:
    """The 696-scenario list of ``campaign_pool`` / ``campaign_cached``."""
    return replica_scenarios(seed, CAMPAIGN_REPLICA_SEEDS) + cheap_cells(seed)


def large_solve_ops(seed: int) -> Tuple[List[Tuple[str, str, dict]], Dict[str, Any], Dict[str, np.ndarray]]:
    """The seven ``solves_large`` solves: ``(solver, matrix key, kwargs)``.

    Right-hand sides are ``A @ x_true``, so every solve has a known
    answer of unit scale.  ``x_true`` is a fixed random vector plus a
    seed-drawn perturbation a tenth its size: the inputs differ with
    the seed, but "one solve" stays the same amount of work (iteration
    counts move by well under 1 %; a freshly drawn ``x_true`` moves
    them by 13 %, which would read as noise in ``work_per_s``).
    """
    matrices = {
        "poisson": poisson_2d(LARGE_GRID),
        "convdiff": convection_diffusion_2d(LARGE_GRID, peclet=10.0),
    }
    n = matrices["poisson"].n_rows
    x_true = (
        np.random.default_rng(2013).standard_normal(n)
        + 0.1 * np.random.default_rng(seed).standard_normal(n)
    )
    rhs = {key: matrix.matvec(x_true) for key, matrix in matrices.items()}
    spd = dict(tol=TOL, maxiter=4000, precond="jacobi")
    arnoldi = dict(tol=TOL, maxiter=4000, precond="poly4", restart=40)
    ops = [
        ("cg", "poisson", spd),
        ("pipelined_cg", "poisson", spd),
        ("gmres", "convdiff", arnoldi),
        ("fgmres", "convdiff", arnoldi),
        ("pipelined_gmres", "convdiff", arnoldi),
        ("sdc_gmres", "convdiff", arnoldi),
        ("ft_gmres", "convdiff", dict(tol=TOL)),
    ]
    return ops, matrices, rhs


def dist_ops() -> List[Tuple[str, str, str, int]]:
    """Four distributed solves on each backend: ``(backend, label, solver, grid)``."""
    shapes = [("cg32", "cg", 32), ("pcg32", "pipelined_cg", 32),
              ("gmres16", "gmres", 16), ("cg64", "cg", 64)]
    return [
        (backend, label, solver, grid)
        for backend in ("sim", "shmem")
        for label, solver, grid in shapes
    ]


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def _format_scalar(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def golden_text(result) -> str:
    """The golden rendering ``tests/test_goldens.py`` pins (re-implemented:
    the harness only reads the golden files, so an intentional golden
    update keeps the benchmark green)."""
    lines = [
        f"experiment: {result.experiment}",
        f"claim: {result.claim}",
        f"parameters: {canonical_json(result.parameters)}",
        "",
        result.table.render(),
        "",
        "summary scalars:",
    ]
    for key in sorted(result.summary):
        value = result.summary[key]
        if key == "kernel_seconds" or isinstance(value, dict):
            continue
        if isinstance(value, str) and "\n" in value:
            continue
        lines.append(f"  {key} = {_format_scalar(value)}")
    return "\n".join(lines) + "\n"


def table_iterations(table: dict) -> int:
    """Sum of the integer ``iterations`` column of a serialized table."""
    if "iterations" not in table["columns"]:
        return 0
    at = table["columns"].index("iterations")
    return sum(int(row[at]) for row in table["rows"] if isinstance(row[at], int))


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
ALL_CORES = frozenset(os.sched_getaffinity(0))


def pin_to_cores(count: int) -> None:
    """Restrict this process (and what it forks) to ``count`` cores.

    A stated condition of the measurement, not a tuning knob: a
    workload that is one process is kept on one core.  What it buys is
    steadiness where threads hand work to each other (the simulator's
    ranks, hence E3-E5 and the sim half of dist_solves): on this host
    the same hand-off costs 2.5 times more in spells when the guest's
    two virtual CPUs are far apart, and the spells last minutes.
    Workloads that run two processes keep both cores.
    """
    os.sched_setaffinity(0, set(sorted(ALL_CORES)[:count]))


def cpu_seconds() -> float:
    """User+sys CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Calibrator:
    """A fixed piece of reference work, timed next to every operation.

    The host this runs on is shared: its speed moves by tens of per
    cent over minutes, which no amount of work inside one run averages
    away.  The harness therefore times a fixed composite around every
    operation and reports times in *reference seconds*: seconds scaled
    by ``ledger_spec.REFERENCE_CAL_S`` / (the composite's time around
    that operation).  The composite has four parts of about 8 ms each,
    chosen to load the machine the way the workloads do: a tight
    pure-Python loop, a stdlib mix (JSON, sorting, formatting -- the
    campaign runner and store), small-array numpy calls at n=64 (the
    replica solves) and a CSR-shaped gather + ``reduceat`` with a
    20-vector projection at n=16384 (the large solves).
    """

    MIN_GAP_S = 0.25  # sample at most this often, so short operations stay cheap
    BURST = 5         # back-to-back samples on either side of set-up

    def __init__(self):
        rng = np.random.default_rng(0)
        n = LARGE_GRID * LARGE_GRID
        self._index = rng.integers(0, n, 5 * n)
        self._data = rng.standard_normal(5 * n)
        self._starts = np.arange(0, 5 * n, 5)
        self._basis = rng.standard_normal((20, n))
        self._vector = rng.standard_normal(n)
        self._small = rng.standard_normal((64, 64))
        self._small_basis = rng.standard_normal((21, 64))
        self._document = {
            f"key{i}": {
                "params": {"grid": 8, "seed": i, "faults": "bitflip:p=0.02"},
                "rows": [[i, 0.5 * i, "yes"] for _ in range(6)],
            }
            for i in range(40)
        }
        self.when: List[float] = []     # perf_counter at the end of each sample
        self.seconds: List[float] = []  # wall seconds of each sample
        self.cpu: List[float] = []      # CPU seconds of each sample

    def _work(self) -> None:
        x = 0
        for i in range(200_000):
            x += i & 3
        document = self._document
        for _ in range(24):
            loaded = json.loads(json.dumps(document, sort_keys=True))
            keys = sorted(loaded, key=lambda k: loaded[k]["params"]["seed"], reverse=True)
            ", ".join(f"{k}={loaded[k]['params']['grid']:>4d}" for k in keys)
        v = self._small[0]
        for _ in range(1500):
            w = self._small @ v
            h = self._small_basis @ w
            w = w - h @ self._small_basis
            v = w / float(np.sqrt(w @ w))
        for _ in range(15):
            w = np.add.reduceat(self._data * self._vector[self._index], self._starts)
            h = self._basis @ w
            w -= h @ self._basis

    def sample(self, force: bool = False) -> float:
        """Time the composite once, unless the last sample is fresh enough;
        returns the wall seconds spent (0.0 when skipped)."""
        started = time.perf_counter()
        if not force and self.when and started - self.when[-1] < self.MIN_GAP_S:
            return 0.0
        cpu_before = time.process_time()
        self._work()
        ended = time.perf_counter()
        self.cpu.append(time.process_time() - cpu_before)
        self.when.append(ended)
        self.seconds.append(ended - started)
        return ended - started

    def burst(self) -> float:
        """Median wall seconds of ``BURST`` back-to-back samples."""
        return statistics.median(self.sample(force=True) for _ in range(self.BURST))

    def around(self, started: float, ended: float) -> Tuple[float, float]:
        """``(wall, cpu)`` seconds of the composite around an operation: the
        mean of the last sample before ``started`` and the first after ``ended``."""
        before = max(i for i, t in enumerate(self.when) if t <= started)
        after = min(
            i for i, (t, s) in enumerate(zip(self.when, self.seconds)) if t - s >= ended
        )
        return (
            0.5 * (self.seconds[before] + self.seconds[after]),
            0.5 * (self.cpu[before] + self.cpu[after]),
        )


class _Workload:
    """One round of one workload (see the module docstring).

    A pass is a fixed list of operations; ``timed`` runs ``passes``
    passes and records wall and CPU seconds of every operation, and of
    the calibration composite around it, so the parent can take medians
    per operation (a burst of host interference then costs one sample,
    not the round).  Subclasses name their operations and implement
    ``run_op``/``check``.
    """

    name = ""
    layer = "harness"       # layer the operations call into
    op_names: Sequence[str] = ()
    op_units: Sequence[int] = ()
    # Single-process workloads run pinned to one core (see pin_to_cores).
    cores = 1

    def __init__(self, seed: int, passes: int, workdir: str):
        self.seed = int(seed)
        self.passes = int(passes)
        self.workdir = workdir
        # Seconds the program itself reports for the deepest layer the
        # harness can see; ``timed wall - attributed_s`` is the
        # unattributed remainder.
        self.attributed_s = 0.0
        self.wall: List[List[float]] = []
        self.cpu: List[List[float]] = []
        self.outputs: List[List[Any]] = []
        # (wall, cpu) seconds of the composite around every operation
        self.cal: List[List[Tuple[float, float]]] = []
        self.passes_s = 0.0  # the timed section without the calibration samples
        self.calibrator = Calibrator()

    def setup(self) -> None:
        raise NotImplementedError

    def order(self, index: int) -> Sequence[int]:
        """Operation order of pass ``index`` (results are stored by op)."""
        return range(len(self.op_names))

    def run_op(self, op: int, index: int, tracer) -> Any:
        raise NotImplementedError

    def check(self) -> Checked:
        raise NotImplementedError

    def timed(self, tracer) -> None:
        """Run the passes; the caller has sampled the calibrator just before."""
        n_ops = len(self.op_names)
        calibrator = self.calibrator
        spans: List[List[Tuple[float, float]]] = []
        for index in range(self.passes):
            pass_started = time.perf_counter()
            calibrating = 0.0
            wall = [0.0] * n_ops
            cpu = [0.0] * n_ops
            outputs = [None] * n_ops
            op_spans = [(0.0, 0.0)] * n_ops
            with tracer.span("pass", "harness"):
                for op in self.order(index):
                    cpu_before = cpu_seconds()
                    started = time.perf_counter()
                    with tracer.span(self.op_names[op], self.layer) as span:
                        try:
                            outputs[op] = self.run_op(op, index, tracer)
                        except Exception:
                            # A raise is a failed unit, not a dead round.
                            traceback.print_exc(file=sys.stderr)
                    ended = time.perf_counter()
                    wall[op] = ended - started
                    cpu[op] = cpu_seconds() - cpu_before
                    op_spans[op] = (started, ended)
                    if span is not None:
                        span["counts"] = self.span_counts(outputs[op])
                    with tracer.span("calibrate", "harness"):
                        calibrating += calibrator.sample()
            self.passes_s += time.perf_counter() - pass_started - calibrating
            self.wall.append(wall)
            self.cpu.append(cpu)
            self.outputs.append(outputs)
            spans.append(op_spans)
        calibrator.sample(force=True)  # closes the bracket of the last operation
        self.cal = [[calibrator.around(*span) for span in op_spans] for op_spans in spans]

    def span_counts(self, output) -> dict:
        """Counts recorded on an operation's span (traced runs only)."""
        return {}

    def op_outputs(self):
        """Every ``(op, output)`` of the timed section, pass by pass."""
        for outputs in self.outputs:
            yield from enumerate(outputs)


class Tables(_Workload):
    """All ten drivers at golden parameters; leaf = the ``driver.run`` call."""

    name = "tables"
    layer = "experiments"

    def setup(self) -> None:
        self.drivers = list(default_registry())
        self.op_names = [d.experiment for d in self.drivers]
        self.op_units = [1] * len(self.drivers)
        rng = random.Random(self.seed)
        indices = list(range(len(self.drivers)))
        self.orders = [rng.sample(indices, len(indices)) for _ in range(self.passes)]
        self.goldens = [
            (GOLDEN_DIR / f"{d.experiment.lower()}_{d.name}.txt").read_text(encoding="utf-8")
            for d in self.drivers
        ]
        with quiet():
            for driver in self.drivers:
                driver.run(**driver.spec.golden)

    def order(self, index: int) -> Sequence[int]:
        return self.orders[index]

    def run_op(self, op: int, index: int, tracer):
        driver = self.drivers[op]
        with quiet():
            return driver.run(**driver.spec.golden)

    def check(self) -> Checked:
        failed = iterations = attempted = 0
        notes = []
        for op, result in self.op_outputs():
            attempted += 1
            if result is None or golden_text(result) != self.goldens[op]:
                failed += 1
                notes.append(f"{self.op_names[op]} differs from its golden")
            else:
                iterations += table_iterations(result.table.to_dict())
        self.attributed_s = sum(map(sum, self.wall))
        return Checked(attempted, failed, iterations, notes)


class _Campaign(_Workload):
    """Shared checks of the workloads whose operation is a campaign run."""

    layer = "campaign.runner"
    expected_status = "completed"
    workers = 1

    def span_counts(self, outcomes) -> dict:
        return {"scenarios": len(outcomes or ())}

    def reference_for(self, scenarios: Sequence[Scenario], subset: Sequence[int]) -> List[str]:
        """Sequential in-process results of a few scenarios (and a warm-up)."""
        outcomes = CampaignRunner(None).run([scenarios[i] for i in subset])
        return [canonical_json(o.result) for o in outcomes]

    def check_run(self, outcomes, n: int, subset, reference) -> Tuple[int, int]:
        """``(failed, iterations)`` of one campaign run of ``n`` scenarios."""
        if outcomes is None:
            return n, 0
        failed = max(
            sum(1 for o in outcomes if o.status != self.expected_status),
            sum(
                1 for i, expected in zip(subset, reference)
                if canonical_json(outcomes[i].result) != expected
            ),
        )
        iterations = sum(
            table_iterations(o.result["table"])
            for o in outcomes if o.status == "completed"
        )
        self.attributed_s += sum(o.elapsed for o in outcomes) / self.workers
        return failed, iterations


class ReplicasSeq(_Campaign):
    """E1/E8/E9 x 24 seeds, one scenario at a time; leaf = ``outcome.elapsed``."""

    name = "replicas_seq"
    batch = 1

    def setup(self) -> None:
        scenarios = replica_scenarios(self.seed, REPLICA_SEEDS)
        n = REPLICA_SEEDS
        # One operation per driver: its 24 seed replicas as one campaign.
        self.shards = [scenarios[k * n:(k + 1) * n] for k in range(3)]
        self.op_names = [shard[0].experiment for shard in self.shards]
        self.op_units = [n] * 3
        self.subset = [0, n - 1]
        self.references = [self.reference_for(shard, self.subset) for shard in self.shards]

    def run_op(self, op: int, index: int, tracer):
        runner = CampaignRunner(None, batch=self.batch, progress=tracer.scenario_hook())
        return runner.run(self.shards[op])

    def check(self) -> Checked:
        failed = iterations = attempted = 0
        for op, outcomes in self.op_outputs():
            bad, its = self.check_run(
                outcomes, self.op_units[op], self.subset, self.references[op]
            )
            attempted += self.op_units[op]
            failed += bad
            iterations += its
        notes = [f"{failed} of {attempted} scenarios failed"] if failed else []
        return Checked(attempted, failed, iterations, notes)


class ReplicasBatch(ReplicasSeq):
    """The same scenarios through ``batch=0`` (one lockstep unit per driver)."""

    name = "replicas_batch"
    batch = 0


class CampaignPool(_Campaign):
    """232-scenario campaigns on two supervised workers, each into a fresh
    store + ledger.

    The 696-scenario list is dealt into three campaigns (every third
    scenario: 32 replicas + 200 cells each); pass ``i`` runs campaign
    ``i mod 3``, so three passes cover the whole list and every pass is
    the same amount of work.  Leaf = sum of ``outcome.elapsed`` /
    workers (the time the workers spent inside drivers); the remainder
    is IPC, checksums, supervision and store/ledger appends.
    """

    name = "campaign_pool"
    layer = "campaign.executor"
    workers = POOL_WORKERS
    cores = POOL_WORKERS
    op_names = ("campaign",)

    def setup(self) -> None:
        scenarios = campaign_scenarios(self.seed)
        self.shards = [scenarios[k::3] for k in range(3)]
        self.op_units = [len(self.shards[0])]
        # Per shard: an E1, an E8 and an E9 replica, the first and the last cell.
        self.subset = [0, 11, 22, CAMPAIGN_REPLICA_SEEDS, len(self.shards[0]) - 1]
        self.references = [self.reference_for(shard, self.subset) for shard in self.shards]
        # Worker warm-up: fork, pipe and teardown paths.
        CampaignRunner(None, workers=POOL_WORKERS).run(self.shards[0][-2:])
        self.stores: List[ResultStore] = []

    def run_op(self, op: int, index: int, tracer):
        store = ResultStore(os.path.join(self.workdir, f"pool_{index}.jsonl"))
        self.stores.append(store)
        runner = CampaignRunner(
            store, workers=POOL_WORKERS, progress=tracer.scenario_hook()
        )
        return runner.run(self.shards[index % 3])

    def check(self) -> Checked:
        failed = iterations = attempted = 0
        for index, (outcomes,) in enumerate(self.outputs):
            bad, its = self.check_run(
                outcomes, self.op_units[0], self.subset, self.references[index % 3]
            )
            attempted += self.op_units[0]
            failed += bad
            iterations += its
        stored = sum(len(store) for store in self.stores)
        notes = []
        if stored != attempted:
            notes.append(f"stores hold {stored} of {attempted} scenarios")
            failed = max(failed, attempted - stored)
        return Checked(attempted, failed, iterations, notes)


class CampaignCached(_Campaign):
    """Re-run the fully stored 696-scenario campaign; nothing executes.

    Set-up populates the store in-process (that cost lands in
    ``setup_s``); it uses ``batch=0`` because the stored results are
    byte-identical either way and the populate is paid every round.
    Leaf = the harness's own ``ResultStore(path)`` and ``runner.run``
    calls.  Each re-run is checked on the spot and only its failure
    count is kept, so the round's RSS does not grow with the number of
    passes.
    """

    name = "campaign_cached"
    expected_status = "cached"
    op_names = ("rerun",)

    def setup(self) -> None:
        self.scenarios = campaign_scenarios(self.seed)
        self.op_units = [len(self.scenarios)]
        n = CAMPAIGN_REPLICA_SEEDS
        self.subset = [0, n, 2 * n, 3 * n, 3 * n + 299, len(self.scenarios) - 1]
        self.reference = self.reference_for(self.scenarios, self.subset)
        self.path = os.path.join(self.workdir, "cached.jsonl")
        populated = CampaignRunner(ResultStore(self.path), batch=0).run(self.scenarios)
        self.populate_failures = sum(1 for o in populated if o.status != "completed")

    def run_op(self, op: int, index: int, tracer):
        with tracer.span("load", "campaign.store"):
            store = ResultStore(self.path)
        with tracer.span("run", "campaign.runner"):
            outcomes = CampaignRunner(store).run(self.scenarios)
        return self.check_run(outcomes, len(outcomes), self.subset, self.reference)

    def span_counts(self, checked) -> dict:
        return {"scenarios": len(self.scenarios)}

    def check(self) -> Checked:
        failed = self.populate_failures
        iterations = attempted = 0
        for _, checked in self.op_outputs():
            attempted += len(self.scenarios)
            failed += len(self.scenarios) if checked is None else checked[0]
            iterations += 0 if checked is None else checked[1]
        # Leaf = load + run, i.e. the whole operation.
        self.attributed_s = sum(map(sum, self.wall))
        notes = [f"{failed} of {attempted} scenarios not served from the store"] if failed else []
        return Checked(attempted, failed, iterations, notes)


class SolvesLarge(_Workload):
    """Seven solves to tol=1e-8 at n=16384; leaf = ``info['kernels']``."""

    name = "solves_large"
    layer = "krylov.engine"

    def setup(self) -> None:
        self.ops, self.matrices, self.rhs = large_solve_ops(self.seed)
        self.op_names = [solver for solver, _, _ in self.ops]
        self.op_units = [1] * len(self.ops)
        self.registry = default_solver_registry()
        # Warm-up: every solver once on a small grid (lazy imports,
        # preconditioner and policy resolution).
        small = {"poisson": poisson_2d(8), "convdiff": convection_diffusion_2d(8, peclet=10.0)}
        x = np.random.default_rng(self.seed).standard_normal(64)
        for solver, key, kwargs in self.ops:
            self.registry.get(solver).solve(small[key], small[key].matvec(x), **kwargs)

    def run_op(self, op: int, index: int, tracer):
        solver, key, kwargs = self.ops[op]
        return self.registry.get(solver).solve(self.matrices[key], self.rhs[key], **kwargs)

    def span_counts(self, result) -> dict:
        if result is None:
            return {}
        kernels = result.info["kernels"]
        return {
            "iterations": int(result.iterations),
            "kernel_calls": dict(kernels["counts"]),
            "kernel_s": dict(kernels["seconds"]),
        }

    def check(self) -> Checked:
        import scipy.sparse  # independent of repro.linalg; after the RSS reading

        reference = {
            key: scipy.sparse.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)
            for key, m in self.matrices.items()
        }
        failed = iterations = attempted = 0
        notes = []
        for op, result in self.op_outputs():
            attempted += 1
            if result is None:
                failed += 1
                continue
            solver, key, _ = self.ops[op]
            b = self.rhs[key]
            residual = np.linalg.norm(b - reference[key] @ result.x) / np.linalg.norm(b)
            if not result.converged or not residual <= 10 * TOL:
                failed += 1
                notes.append(f"{solver}: converged={result.converged} residual={residual:.3e}")
            iterations += int(result.iterations)
            self.attributed_s += sum(result.info["kernels"]["seconds"].values())
        return Checked(attempted, failed, iterations, notes)


class DistSolves(_Workload):
    """Launch + SPMD solve + shutdown on both communicator backends.

    Leaf = the op itself.  The round stays pinned to one core, so the
    two ranks of a solve -- threads on ``sim``, forked processes on
    ``shmem`` -- take turns on it.  What is timed is therefore the
    communicator's own work per message (launch, pipes, pickling,
    shared-memory segments, hand-off), not parallel speed-up, of which
    a two-rank grid-64 solve has none to show.  On two cores the same
    shmem solves took up to 2.5 times longer in some ten-minute spells
    than in others (every message waits for the other virtual CPU to be
    scheduled), which no bound of at most 25 % survives.
    """

    name = "dist_solves"
    layer = "comm"

    def setup(self) -> None:
        self.ops = dist_ops()
        self.op_names = [f"{backend}.{label}" for backend, label, _, _ in self.ops]
        self.op_units = [1] * len(self.ops)
        for backend in ("sim", "shmem"):
            self._solve(backend, "gmres", 16)

    def _solve(self, backend: str, solver: str, grid: int) -> dict:
        return distributed_solve(
            f"{backend}:procs={POOL_WORKERS}", solver, grid=grid, tol=TOL,
            seed=self.seed,
        )

    def run_op(self, op: int, index: int, tracer):
        backend, _, solver, grid = self.ops[op]
        return self._solve(backend, solver, grid)

    def span_counts(self, result) -> dict:
        return {} if result is None else {"iterations": result["iterations"]}

    def check(self) -> Checked:
        failed = iterations = attempted = 0
        notes = []
        half = len(self.ops) // 2  # op k on sim is op k + half on shmem
        for outputs in self.outputs:
            for op, result in enumerate(outputs):
                attempted += 1
                twin = outputs[(op + half) % len(outputs)]
                # distributed_solve raises when ranks disagree, so a
                # result here already means all ranks agreed.
                if result is None or not result["converged"]:
                    failed += 1
                # sim and shmem both reduce in rank order, so the residual
                # histories must be equal, not merely close.
                elif twin is None or result["residual_norms"] != twin["residual_norms"]:
                    failed += 1
                    notes.append(f"{self.op_names[op]}: residual history differs across backends")
                else:
                    iterations += int(result["iterations"])
        self.attributed_s = sum(map(sum, self.wall))
        return Checked(attempted, failed, iterations, notes)


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (
        Tables, ReplicasSeq, ReplicasBatch, CampaignPool, CampaignCached,
        SolvesLarge, DistSolves,
    )
}
