"""Which engine runs a batch, and what the lockstep engine leaves behind.

``batch_solve`` sends a group of lockstep-capable lanes to the lockstep
engine only from its lane class's measured crossover (the routing
constants ``registry._GMRES_MIN_LANES``, ``registry._SDC_MIN_LANES`` and
``batch._CG_MIN_LANES``), and a lockstep CG batch hands its last lanes
to the sequential step.  This module pins each side of each constant
with spies, checks that a handed-off CG lane is the sequential solve
bit for bit, that a cohort's stacks die with its cycle, and that E1,
which puts two bit classes into each batch, still equals its per-seed
runs.  (The parity suite forces the lockstep engine at any width with
the ``force_lockstep`` fixture; these tests run at the real constants.)
"""

from __future__ import annotations

import collections
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.experiments import e1_sdc_detection
from repro.krylov import registry
from repro.krylov.engine import batch as batch_engine
from repro.krylov.engine.cg import CgScheme
from repro.krylov.gmres import gmres_engine
from repro.krylov.registry import batch_solve, default_solver_registry
from repro.linalg.matgen import poisson_2d
from repro.skeptical.gmres_sdc import SdcLane

from test_goldens import golden_text

_SKEPTICAL = dict(policy="skeptical_restart", check_period=1)

# solver, keywords, the lockstep entry point, the constant's name and owner
_CLASSES = [
    ("gmres", {}, "run_arnoldi_batch", registry, "_GMRES_MIN_LANES"),
    ("sdc_gmres", _SKEPTICAL, "run_arnoldi_batch", registry, "_SDC_MIN_LANES"),
    ("cg", {}, "run_cg_batch", batch_engine, "_CG_MIN_LANES"),
]


@pytest.fixture(scope="module")
def matrix():
    return poisson_2d(8)


def _rhs(matrix, count, seed=500):
    return [np.random.default_rng(seed + i).standard_normal(matrix.n_rows) for i in range(count)]


def _same_solve(r, s):
    assert r.x.tobytes() == s.x.tobytes()
    assert r.residual_norms == s.residual_norms
    assert (r.iterations, r.converged, r.breakdown) == (s.iterations, s.converged, s.breakdown)
    for key in ("alphas", "betas"):
        assert r.info.get(key) == s.info.get(key)
    assert r.info["kernels"]["counts"] == s.info["kernels"]["counts"]


class TestRouting:
    def test_the_measured_crossovers(self):
        # PERFORMANCE.md, "Lockstep engine": the lane counts from which a
        # stacked step beats the sequential steps it replaces at n = 64.
        assert (registry._GMRES_MIN_LANES, registry._SDC_MIN_LANES,
                batch_engine._CG_MIN_LANES) == (5, 4, 3)

    @pytest.mark.parametrize("solver,kwargs,entry,owner,constant", _CLASSES,
                             ids=[c[0] for c in _CLASSES])
    def test_each_side_of_the_crossover(self, matrix, monkeypatch, solver, kwargs, entry,
                                        owner, constant):
        calls = []
        lockstep = getattr(batch_engine, entry)
        monkeypatch.setattr(
            batch_engine, entry, lambda lanes: calls.append(len(lanes)) or lockstep(lanes)
        )
        threshold = getattr(owner, constant)
        sequential = default_solver_registry().get(solver)
        bs = _rhs(matrix, threshold)
        for lanes, expected in ((threshold - 1, []), (threshold, [threshold])):
            calls.clear()
            results = batch_solve(solver, matrix, bs[:lanes], tol=1e-8, **kwargs)
            assert calls == expected, lanes
            for r, b in zip(results, bs):
                _same_solve(r, sequential.solve(matrix, b, tol=1e-8, **kwargs))


def _hand_off(iterations, min_lanes):
    """(step, lanes) of a lockstep CG run whose lanes take ``iterations``
    (no breakdowns): the first step with fewer than ``min_lanes`` lanes
    active, and how many are; ``None`` when it never comes."""
    for step in range(max(iterations, default=0)):
        active = sum(its > step for its in iterations)
        if active < min_lanes:
            return step, active
    return None


def _resumed(call):
    """Run ``call()``; return its value and the iteration every
    :meth:`CgScheme.run` it made started from."""
    starts = []
    run = CgScheme.run

    def spy(self, attempt):
        starts.append(attempt.iteration)
        return run(self, attempt)

    with mock.patch.object(CgScheme, "run", spy):
        return call(), starts


class TestCgHandOff:
    def test_the_last_lanes_finish_on_the_sequential_step(self, matrix):
        # Staggered tolerances: the lanes leave one by one, and the two
        # still running when a third leaves resume where lockstep left them.
        tols = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10]
        bs = _rhs(matrix, 1) * len(tols)
        lane_params = [{"tol": tol} for tol in tols]
        results, starts = _resumed(
            lambda: batch_solve("cg", matrix, bs, lane_params=lane_params, maxiter=400)
        )
        iterations = [r.iterations for r in results]
        step, active = _hand_off(iterations, batch_engine._CG_MIN_LANES)
        assert len(set(iterations)) == len(tols) and active == batch_engine._CG_MIN_LANES - 1
        assert starts == [step] * active and step > 0
        entry = default_solver_registry().get("cg")
        for r, b, extra in zip(results, bs, lane_params):
            _same_solve(r, entry.solve(matrix, b, maxiter=400, **extra))

    def test_lanes_that_finish_together_stay_in_lockstep(self, matrix):
        bs = _rhs(matrix, batch_engine._CG_MIN_LANES)
        results, starts = _resumed(lambda: batch_solve("cg", matrix, bs * 2, tol=1e-8))
        assert starts == []
        assert len({r.iterations for r in results}) < len(results)

    @example(lanes=[(1, 2, 400), (1, 4, 400), (1, 10, 400)], precond=None, observer="hook")
    @example(lanes=[(2, 3, 400), (3, 12, 7), (4, 12, 400), (5, 6, 400)], precond="jacobi",
             observer="guard")
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        lanes=st.lists(
            st.tuples(
                st.integers(0, 3),                     # rhs seed
                st.integers(2, 12),                    # tolerance exponent
                st.sampled_from([2, 7, 20, 400]),      # maxiter
            ),
            min_size=3,
            max_size=6,
        ),
        precond=st.sampled_from([None, "jacobi", "ssor"]),
        observer=st.sampled_from([None, "hook", "guard"]),
    )
    def test_handed_off_lanes_are_the_sequential_solve(self, lanes, precond, observer):
        matrix = poisson_2d(6)
        bs = [np.random.default_rng(seed).standard_normal(matrix.n_rows) for seed, _, _ in lanes]
        kwargs = {} if precond is None else {"precond": precond}
        if observer == "guard":
            kwargs["policy"] = "residual_guard"

        def lane_params(logs):
            params = []
            for (_, exponent, maxiter), log in zip(lanes, logs):
                extra = {"tol": 10.0 ** -exponent, "maxiter": maxiter}
                if observer == "hook":
                    extra["iteration_hook"] = lambda event, log=log: log.append(
                        (event.total_iteration, event.residual_norm)
                    )
                params.append(extra)
            return params

        batch_logs = [[] for _ in lanes]
        results, starts = _resumed(
            lambda: batch_solve("cg", matrix, bs, lane_params=lane_params(batch_logs), **kwargs)
        )
        entry = default_solver_registry().get("cg")
        solo_logs = [[] for _ in lanes]
        for r, b, extra in zip(results, bs, lane_params(solo_logs)):
            _same_solve(r, entry.solve(matrix, b, **dict(kwargs, **extra)))
        assert batch_logs == solo_logs
        hand_off = _hand_off([r.iterations for r in results], batch_engine._CG_MIN_LANES)
        step, active = hand_off if hand_off is not None else (None, 0)
        assert starts == [step] * active


class TestCohortStorage:
    @pytest.mark.parametrize("solver", ["gmres", "sdc_gmres"])
    def test_a_cohorts_stacks_die_with_its_cycle(self, matrix, monkeypatch, solver):
        # The lanes outlive the batch (the caller holds them); the stacked
        # basis and Hessenberg of every cohort they were in must not.
        stacks = []
        view = batch_engine._basis_view
        lsq = batch_engine._LaneLsq

        def basis_view(rows):
            stacks.append(weakref.ref(rows.base))
            return view(rows)

        def lane_lsq(hessenberg, g):
            stacks.append(weakref.ref(hessenberg.base))
            return lsq(hessenberg, g)

        monkeypatch.setattr(batch_engine, "_basis_view", basis_view)
        monkeypatch.setattr(batch_engine, "_LaneLsq", lane_lsq)
        bs = _rhs(matrix, 6)
        if solver == "gmres":
            lanes = [
                batch_engine.ArnoldiLane(gmres_engine(matrix, tol=1e-8, restart=10), b)
                for b in bs
            ]
        else:
            lanes = [SdcLane(matrix, b, tol=1e-8, restart=10, check_period=1) for b in bs]
        results = batch_engine.run_arnoldi_batch(lanes)
        assert all(r.converged for r in results)
        assert len(stacks) > 2 * len(lanes)  # more than one cycle each
        assert [ref for ref in stacks if ref() is not None] == []


class TestE1Batching:
    CONFIG = dict(grid=5, n_trials=1, inject_at=4)

    @pytest.mark.parametrize("seeds", [1, 3, 24])
    def test_run_batch_is_the_per_seed_run(self, seeds):
        params = [dict(self.CONFIG, seed=300 + k) for k in range(seeds)]
        batched = e1_sdc_detection.run_batch(params)
        assert [golden_text(r) for r in batched] == [
            golden_text(e1_sdc_detection.run(**p)) for p in params
        ]

    @pytest.mark.parametrize("seeds", [1, 24])
    def test_two_bit_classes_share_each_batch(self, monkeypatch, seeds):
        solves = collections.Counter()  # (solver, lanes) -> batch_solve calls
        lockstep = []
        solve = e1_sdc_detection.batch_solve
        run = batch_engine.run_arnoldi_batch

        def counted(solver, matrix, bs, **kw):
            solves[solver, len(bs)] += 1
            return solve(solver, matrix, bs, **kw)

        monkeypatch.setattr(e1_sdc_detection, "batch_solve", counted)
        monkeypatch.setattr(batch_engine, "run_arnoldi_batch",
                            lambda lanes: lockstep.append(len(lanes)) or run(lanes))
        e1_sdc_detection.run_batch([dict(self.CONFIG, seed=300 + k) for k in range(seeds)])
        classes = len(e1_sdc_detection._BIT_CLASSES)
        per_batch = e1_sdc_detection._CLASSES_PER_BATCH
        assert per_batch == 2
        # The baseline, then per solver one call per class pair and trial.
        trials = classes // per_batch * self.CONFIG["n_trials"]
        assert solves == {("gmres", seeds): 1, ("gmres", per_batch * seeds): trials,
                          ("sdc_gmres", per_batch * seeds): trials}
        if seeds == 1:  # two lanes: below both crossovers
            assert lockstep == []
        else:
            assert lockstep == [seeds] + [per_batch * seeds] * (2 * trials)
