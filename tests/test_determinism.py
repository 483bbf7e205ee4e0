"""Determinism of fault injection: same seed => same faults, same work.

A seeded faulty GMRES solve produces an identical fault-event log and
identical ``SolveResult.info["kernels"]`` call counters across repeated
in-process runs, and the same holds when the runs execute in separate
``multiprocessing`` worker processes (no hidden dependence on process
state or hash randomization).  The campaign layer's half -- one result
however a scenario is executed -- is the execution-contract property
(tests/test_execution_contract.py).
"""

from __future__ import annotations

import multiprocessing

from repro.reliability.injector import ArrayInjector
from repro.reliability.schedule import BernoulliPerCallSchedule
from repro.krylov.gmres import gmres
from repro.linalg.matgen import poisson_2d
from repro.utils.rng import RngFactory

SEED = 1234


def run_faulty_solve(seed: int):
    """One seeded GMRES solve with Bernoulli matvec corruption.

    Module-level so it pickles into multiprocessing workers.  Returns
    only deterministic artifacts: the fault-event log (as tuples) and
    the kernel *call counts* (never the seconds).
    """
    matrix = poisson_2d(8)
    factory = RngFactory(seed)
    b = factory.spawn("rhs").standard_normal(matrix.n_rows)
    rng = factory.spawn("faults")
    injector = ArrayInjector(
        schedule=BernoulliPerCallSchedule(0.05, rng=rng), rng=rng,
        target="matvec",
    )
    calls = {"n": 0}

    def unreliable_op(x):
        calls["n"] += 1
        return injector.maybe_inject(matrix.matvec(x), now=float(calls["n"]))

    result = gmres(unreliable_op, b, tol=1e-8, restart=20, maxiter=200)
    events = tuple(
        (e.kind, e.target, e.location, e.bit, e.time, e.magnitude)
        for e in injector.events
    )
    return {
        "events": events,
        "kernel_counts": dict(result.info["kernels"]["counts"]),
        "iterations": result.iterations,
        "residuals": tuple(result.residual_norms),
    }


def test_same_seed_same_faults_in_process():
    first = run_faulty_solve(SEED)
    second = run_faulty_solve(SEED)
    assert first["events"]  # the schedule must actually have fired
    assert first == second


def test_different_seed_different_faults():
    assert run_faulty_solve(SEED)["events"] != run_faulty_solve(SEED + 1)["events"]


def test_same_seed_same_faults_across_processes():
    # A bare Pool is exactly right here: the test checks numeric
    # reproducibility across interpreter processes, not robustness.
    with multiprocessing.Pool(processes=2) as pool:
        results = pool.map(run_faulty_solve, [SEED, SEED])
    assert results[0]["events"]
    assert results[0] == results[1]
    # Workers agree with the parent process too.
    assert results[0] == run_faulty_solve(SEED)
