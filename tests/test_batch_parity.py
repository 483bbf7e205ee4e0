"""Batched-vs-sequential differential suite (lockstep batch execution).

The batch layer's contract is bit-identity: ``batch_solve`` must equal
``S`` separate ``solve()`` calls, driver ``run_batch`` must equal ``S``
separate ``run()`` calls, and a batched campaign must persist exactly
what a sequential campaign persists.  This module pins that contract at
every layer:

* engine -- the solver x policy x preconditioner x fault-hook matrix,
  including mid-batch divergence (mixed per-lane tolerances), a
  non-converging lane, and the cycle tail's stacked solves beside a
  happy breakdown and a zeroed pivot;
* drivers -- E1/E8/E9/E10 ``run_batch`` against sequential ``run``;
* runner -- ``plan_batch_groups`` chunking and per-scenario outcomes
  (the batched store against the scenario-at-a-time one is the
  execution-contract property, tests/test_execution_contract.py);
* engine, beyond the fixed fixtures -- a bounded Hypothesis fuzz of
  ``batch_solve`` against ``S`` separate ``solve`` calls (slot swaps,
  many cycle boundaries, degenerate right-hand sides, fault hooks), one
  table of inputs both engines must accept or refuse alike, spies on
  the cycle boundary, event builder, skeptical attempt loop and check
  set the two engines share, and the lockstep engine's cost shape as counts (``GmresState`` built only when a hook
  can act, seconds that add up to the stacked spans, no per-lane back
  substitution or matvec at a stacked cycle boundary);
* properties (Hypothesis) -- ``plan_batch_groups`` partitions without
  dropping or duplicating scenarios, and the lockstep convergence mask
  freezes finished lanes' iterates for good;
* ledger -- a quarantined key completed later (e.g. by a batch
  sibling's unit) leaves ``failed_keys()`` once the store holds it.

``batch_solve`` goes lockstep only from a lane class's measured
crossover; the classes whose subject is the lockstep engine at 2-5
lanes take the ``force_lockstep`` fixture (the routing constants at 1),
and ``tests/test_lockstep_routing.py`` pins the real constants.
"""

from __future__ import annotations

import collections
import itertools
import types

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.campaign.executor import AttemptRecord, FailureLedger
from repro.campaign.registry import default_registry
from repro.campaign.runner import CampaignRunner, plan_batch_groups
from repro.campaign.spec import Scenario, canonical_json
from repro.campaign.store import ResultStore
from repro.experiments import (
    e1_sdc_detection,
    e8_solvers,
    e9_precond,
    e10_precision,
)
from repro.krylov.engine import batch as batch_engine
from repro.krylov.engine import core as engine_core
from repro.krylov import ops as krylov_ops
from repro.krylov.engine import IterationEvent, ResidualGuardPolicy
from repro.krylov.cg import cg_engine
from repro.krylov.engine.batch import run_cg_batch
from repro.krylov.engine.core import ArnoldiAttempt
from repro.krylov.registry import batch_solve, default_solver_registry
from repro.linalg.blas import givens_rotation, givens_rotation_many
from repro.linalg.matgen import poisson_2d
from repro.utils import timing
from repro.reliability.models import BasisBitflipFaults
from repro.reliability.spec import FaultSpec
from repro.skeptical.gmres_sdc import SdcAttempts, SdcChecks


@pytest.fixture(scope="module")
def matrix():
    return poisson_2d(12)


@pytest.fixture(scope="module")
def rhs(matrix):
    return [
        np.random.default_rng(100 + i).standard_normal(matrix.n_rows)
        for i in range(5)
    ]


def assert_lane_parity(results, seq_results):
    """Bit-identity of a batched result list against sequential solves."""
    assert len(results) == len(seq_results)
    for r, s in zip(results, seq_results):
        assert r.x.tobytes() == s.x.tobytes()
        assert r.residual_norms == s.residual_norms
        assert r.iterations == s.iterations
        assert r.converged == s.converged
        assert r.breakdown == s.breakdown
        r_info = {k: v for k, v in r.info.items() if k != "kernels"}
        s_info = {k: v for k, v in s.info.items() if k != "kernels"}
        assert r_info == s_info
        # Wall-clock seconds differ; the call counts must not.
        assert r.info["kernels"]["counts"] == s.info["kernels"]["counts"]


# ----------------------------------------------------------------------
# Engine layer: batch_solve vs S sequential solve() calls.
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("force_lockstep")
class TestEngineParity:
    @pytest.mark.parametrize(
        "solver,kwargs",
        [
            ("gmres", dict(tol=1e-8, restart=30, maxiter=600)),
            ("gmres", dict(tol=1e-8, restart=25, maxiter=500, policy="residual_guard")),
            ("gmres", dict(tol=1e-8, restart=30, maxiter=600, precond="jacobi")),
            ("cg", dict(tol=1e-10, maxiter=400)),
            ("cg", dict(tol=1e-10, maxiter=400, precond="jacobi")),
            ("cg", dict(tol=1e-10, maxiter=400, policy="residual_guard")),
            ("sdc_gmres", dict(policy="skeptical_restart", tol=1e-8, restart=30,
                               maxiter=600, check_period=2)),
            # Sequential-fallback configurations must agree too.
            ("pipelined_gmres", dict(tol=1e-8, maxiter=400)),
            ("fgmres", dict(tol=1e-8, maxiter=300, precond="jacobi")),
            ("pipelined_cg", dict(tol=1e-10, maxiter=400)),
            ("ft_gmres", dict(tol=1e-8, outer_maxiter=30, inner_maxiter=10)),
        ],
        ids=["gmres", "gmres-guard", "gmres-jacobi", "cg",
             "cg-jacobi", "cg-guard", "sdc", "pipelined-fallback",
             "fgmres-fallback", "pipelined-cg-fallback", "ft-gmres-fallback"],
    )
    def test_solver_policy_precond_matrix(self, matrix, rhs, solver, kwargs):
        registry = default_solver_registry()
        # ... and no right-hand side is zero separate solves: an empty list.
        for bs in (rhs, []):
            batched = batch_solve(solver, matrix, bs, **kwargs)
            sequential = [registry.get(solver).solve(matrix, b, **kwargs) for b in bs]
            assert_lane_parity(batched, sequential)

    @pytest.mark.parametrize(
        "solver,kwargs",
        [
            ("gmres", dict(tol=1e-8, restart=30, maxiter=600)),
            ("cg", dict(tol=1e-10, maxiter=400)),
            ("sdc_gmres", dict(policy="skeptical_restart", tol=1e-8, restart=30,
                               maxiter=600, check_period=2)),
        ],
        ids=["gmres", "cg", "sdc"],
    )
    def test_single_lane_takes_the_sequential_engine(
        self, matrix, rhs, solver, kwargs, monkeypatch
    ):
        # One lane through the lockstep engine costs 2-3x the sequential
        # one (PERFORMANCE.md), so batch_solve picks by lane count.
        def lockstep(*args, **kw):
            raise AssertionError("a single lane entered the lockstep engine")

        monkeypatch.setattr(batch_engine, "run_arnoldi_batch", lockstep)
        monkeypatch.setattr(batch_engine, "run_cg_batch", lockstep)
        batched = batch_solve(solver, matrix, rhs[:1], **kwargs)
        sequential = default_solver_registry().get(solver).solve(
            matrix, rhs[0], **kwargs
        )
        assert_lane_parity(batched, [sequential])

    def test_fault_hooks_draw_identical_streams(self, matrix, rhs):
        registry = default_solver_registry()
        model = BasisBitflipFaults(FaultSpec("basis_bitflip", {"bits": (30, 55)}))

        def hook(seed):
            return model.iteration_hook(np.random.default_rng(seed), at=5)

        kwargs = dict(policy="skeptical_restart", tol=1e-8, restart=30,
                      maxiter=600, check_period=1)
        batched = batch_solve(
            "sdc_gmres", matrix, rhs, **kwargs,
            lane_params=[{"iteration_hook": hook(7 + i)} for i in range(len(rhs))],
        )
        sequential = [
            registry.get("sdc_gmres").solve(matrix, b, **kwargs, iteration_hook=hook(7 + i))
            for i, b in enumerate(rhs)
        ]
        assert_lane_parity(batched, sequential)

    def test_mid_batch_divergence_mixed_tolerances(self, matrix):
        # Per-lane tolerances force staggered exits: the tightest lane
        # keeps iterating long after the loosest froze.
        registry = default_solver_registry()
        tols = [1e-4, 1e-6, 1e-8, 1e-10, 1e-12]
        lane_params = [{"tol": tols[i % 5]} for i in range(10)]
        bs = [
            np.random.default_rng(40 + i).standard_normal(matrix.n_rows)
            for i in range(10)
        ]
        for solver, kwargs in [
            ("gmres", dict(restart=30, maxiter=600)),
            ("sdc_gmres", dict(policy="skeptical_restart", restart=30,
                               maxiter=600, check_period=1)),
        ]:
            batched = batch_solve(solver, matrix, bs, **kwargs,
                                  lane_params=lane_params)
            sequential = [
                registry.get(solver).solve(matrix, b, **kwargs, **lane_params[i])
                for i, b in enumerate(bs)
            ]
            iterations = {r.iterations for r in batched}
            assert len(iterations) > 1, "tolerance mix should stagger exits"
            assert_lane_parity(batched, sequential)

    @pytest.mark.parametrize("solver", ["gmres", "sdc_gmres"])
    def test_tail_groups_staggered_exits_happy_and_zero_pivot_lanes(
        self, matrix, monkeypatch, solver
    ):
        # The cycle tail solves the lanes of equal step count as one
        # stack.  Lanes here leave at different steps (mixed tolerances,
        # each right-hand side twice, so step counts are shared), one
        # breaks down happily at its first step (an eigenvector
        # right-hand side), and one lane's hook zeroes its first
        # Hessenberg pivot: the stacked solve of that lane's group raises,
        # and its update breaks down as the sequential one does.
        class ZeroPivot:
            fire_at = 5

            def __call__(self, state):
                state.hessenberg[0, 0] = 0.0

        grid = np.arange(1, 13) / 13.0
        eigenvector = np.outer(np.sin(2 * np.pi * grid), np.sin(3 * np.pi * grid)).ravel()
        bs = [np.random.default_rng(60 + i // 2).standard_normal(matrix.n_rows) for i in range(8)]
        bs.append(eigenvector)
        tols = [1e-4, 1e-4, 1e-6, 1e-6, 1e-8, 1e-8, 1e-10, 1e-10, 1e-8]
        kwargs = dict(restart=30, maxiter=600)
        if solver == "sdc_gmres":
            kwargs["policy"] = "skeptical_restart"

        def lane_params():
            params = [{"tol": tol} for tol in tols]
            params[1]["iteration_hook"] = ZeroPivot()
            return params

        stacked = []  # (lanes, raised) per stacked solve
        many = batch_engine.back_substitution_many

        def spy(upper, rhs):
            try:
                ys = many(upper, rhs)
            except np.linalg.LinAlgError:
                stacked.append((len(rhs), True))
                raise
            stacked.append((len(rhs), False))
            return ys

        monkeypatch.setattr(batch_engine, "back_substitution_many", spy)
        batched = batch_solve(solver, matrix, bs, lane_params=lane_params(), **kwargs)
        entry = default_solver_registry().get(solver)
        sequential = [
            entry.solve(matrix, b, **kwargs, **params) for b, params in zip(bs, lane_params())
        ]
        assert_lane_parity(batched, sequential)
        assert len({r.iterations for r in batched}) > 3
        assert batched[1].breakdown and not batched[0].breakdown
        assert batched[-1].iterations == 1
        assert any(raised for _, raised in stacked)  # the zeroed pivot's group
        assert any(lanes > 1 and not raised for lanes, raised in stacked)

    def test_non_converging_lane(self, matrix, rhs):
        # A lane that exhausts maxiter must report non-convergence with
        # the exact sequential history, without stalling its siblings.
        registry = default_solver_registry()
        kwargs = dict(tol=1e-14, restart=20, maxiter=40, precond="jacobi")
        batched = batch_solve("gmres", matrix, rhs, **kwargs)
        sequential = [registry.get("gmres").solve(matrix, b, **kwargs) for b in rhs]
        assert any(not r.converged for r in batched)
        assert_lane_parity(batched, sequential)


# ----------------------------------------------------------------------
# Engine layer, beyond the fixed fixtures: fuzz, bad input, cost shape.
# ----------------------------------------------------------------------
def _canonical(value):
    """NaN-tolerant, order-preserving form of a result field for ``==``."""
    if isinstance(value, (float, np.floating)):
        return float(value) if value == value else "nan"
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def _bitflip_hook(bits, seed, at):
    model = BasisBitflipFaults(FaultSpec("basis_bitflip", {"bits": bits}))
    return model.iteration_hook(np.random.default_rng(seed), at=at)


_BIT_CLASSES = [(0, 25), (26, 51), (52, 62), (63, 63)]
_RHS_SCALES = {"zero": 0.0, "tiny": 1e-300, "large": 1e150, "huge": 1e200}
_RHS_KINDS = ["normal", "normal", "normal", "nan", "inf", *_RHS_SCALES]
_fuzz_lane = st.fixed_dictionaries(
    {
        "rhs_seed": st.integers(0, 10_000),
        "rhs_kind": st.sampled_from(_RHS_KINDS),
        "x0": st.booleans(),
        "maxiter": st.sampled_from([1, 4, 9, 60, 200]),
        "tol": st.sampled_from([None, 1e-2, 1e-6, 1e-10]),
        "hook": st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from(_BIT_CLASSES), st.integers(0, 2**30), st.integers(0, 8)
            ),
        ),
    }
)


def _lane(rhs_seed, rhs_kind="normal", hook=None):
    return {"rhs_seed": rhs_seed, "rhs_kind": rhs_kind, "x0": False,
            "maxiter": 200, "tol": None, "hook": hook}


@pytest.mark.usefixtures("force_lockstep")
class TestLockstepFuzz:
    # Pinned cases for the branches a random draw rarely reaches: a
    # happy breakdown beside ordinary lanes (the masked basis append),
    # and skeptical detections of each kind (non-finite basis,
    # Hessenberg bound, orthogonality) abandoning cycles mid-cohort.
    @example(solver="gmres", restart=30, precond=None, guard=True, check_period=1,
             lanes=[_lane(1, "large"), _lane(2), _lane(3)])
    @example(solver="sdc_gmres", restart=30, precond=None, guard=False, check_period=1,
             lanes=[_lane(1, hook=((52, 62), 7, 3)), _lane(2, hook=((52, 62), 8, 5)),
                    _lane(3, "large"), _lane(4, hook=((26, 51), 9, 2))])
    @example(solver="sdc_gmres", restart=5, precond=None, guard=False, check_period=1,
             lanes=[_lane(10, hook=((52, 62), 110, 5)), _lane(11, hook=((52, 62), 210, 2)),
                    _lane(12)])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        solver=st.sampled_from(["gmres", "sdc_gmres", "cg"]),
        restart=st.sampled_from([2, 3, 5, 30]),
        precond=st.sampled_from([None, None, "jacobi", "ssor"]),
        guard=st.booleans(),
        check_period=st.sampled_from([1, 2, 3]),
        lanes=st.lists(_fuzz_lane, min_size=2, max_size=5),
    )
    def test_batch_solve_equals_separate_solves(
        self, solver, restart, precond, guard, check_period, lanes
    ):
        matrix = poisson_2d(5)
        n = matrix.n_rows
        kwargs = {"tol": 1e-8}
        if solver != "cg":
            kwargs["restart"] = restart
        if precond is not None:
            kwargs["precond"] = precond
        if solver == "sdc_gmres":
            kwargs.update(policy="skeptical_restart", check_period=check_period)
        elif guard:
            kwargs["policy"] = "residual_guard"

        bs, x0s = [], []
        for lane in lanes:
            rng = np.random.default_rng(lane["rhs_seed"])
            b = rng.standard_normal(n)
            kind = lane["rhs_kind"]
            if kind in _RHS_SCALES:  # "large" breaks down happily at step 0
                b *= _RHS_SCALES[kind]
            elif kind != "normal":
                b[lane["rhs_seed"] % n] = np.nan if kind == "nan" else np.inf
            bs.append(b)
            x0s.append(rng.standard_normal(n) if lane["x0"] else None)

        def lane_params():
            # Hooks are stateful (their own RNG, a fired flag): build a
            # fresh, identically seeded set for each engine.
            params = []
            for lane in lanes:
                extra = {"maxiter": lane["maxiter"]}
                if lane["tol"] is not None:
                    extra["tol"] = lane["tol"]
                if lane["hook"] is not None and solver != "cg":
                    extra["iteration_hook"] = _bitflip_hook(*lane["hook"])
                params.append(extra)
            return params

        entry = default_solver_registry().get(solver)
        # Degenerate right-hand sides and flipped exponents overflow by design.
        with np.errstate(all="ignore"):
            sequential = [
                entry.solve(matrix, b, x0, **dict(kwargs, **extra))
                for b, x0, extra in zip(bs, x0s, lane_params())
            ]
            batched = batch_solve(
                solver, matrix, bs, x0s, lane_params=lane_params(), **kwargs
            )
        for r, s in zip(batched, sequential):
            assert np.array_equal(r.x, s.x, equal_nan=True)
            assert _canonical(r.residual_norms) == _canonical(s.residual_norms)
            assert (r.iterations, r.converged, r.breakdown, r.detected_faults) == (
                s.iterations, s.converged, s.breakdown, s.detected_faults
            )
            r_info = {k: v for k, v in r.info.items() if k != "kernels"}
            s_info = {k: v for k, v in s.info.items() if k != "kernels"}
            assert _canonical(r_info) == _canonical(s_info)
            assert r.info["kernels"]["counts"] == s.info["kernels"]["counts"]


_SKEPTICAL = dict(policy="skeptical_restart")


def _no_op_hook(state):
    pass


@pytest.mark.usefixtures("force_lockstep")
class TestBadInputAgreement:
    @pytest.mark.parametrize(
        "solver,kwargs,refused",
        [
            ("sdc_gmres", dict(_SKEPTICAL, maxiter=0), True),
            ("sdc_gmres", dict(_SKEPTICAL, maxiter=-3), True),
            ("sdc_gmres", dict(_SKEPTICAL, restart=0), True),
            ("sdc_gmres", dict(_SKEPTICAL, operator_norm=-1.0), True),
            ("sdc_gmres", dict(_SKEPTICAL, operator_norm=float("nan")), True),
            ("sdc_gmres", dict(_SKEPTICAL, check_period=0), True),
            ("sdc_gmres", dict(_SKEPTICAL, tol=0.0), True),
            ("gmres", dict(maxiter=0), True),
            ("gmres", dict(restart=0), True),
            ("gmres", dict(tol=-1.0), True),
            ("gmres", dict(atol=float("nan")), True),
            ("cg", dict(maxiter=0), True),
            ("cg", dict(tol=-1.0), True),
            ("cg", dict(tol=float("nan")), True),
            # Legal: a zero tolerance runs to maxiter on both engines.
            ("gmres", dict(tol=0.0, maxiter=7), False),
            ("cg", dict(tol=0.0, maxiter=7), False),
            # Keywords the solver function does not take are refused by
            # the solver function, whatever the lane count: no solver has
            # a gram_schmidt (CGS2 is the one kernel) or a fault_hook (the
            # hook is iteration_hook everywhere), the skeptical solver has
            # no monitor, and nobody has a bogus.
            ("sdc_gmres", dict(_SKEPTICAL, gram_schmidt="classical"), TypeError),
            ("sdc_gmres", dict(_SKEPTICAL, fault_hook=_no_op_hook), TypeError),
            ("sdc_gmres", dict(_SKEPTICAL, monitor=object()), TypeError),
            ("sdc_gmres", dict(_SKEPTICAL, bogus=1), TypeError),
            ("gmres", dict(bogus=1), TypeError),
            ("gmres", dict(policy="residual_guard", bogus=1), TypeError),
            ("cg", dict(bogus=1), TypeError),
            # "gmres" under the skeptical policy runs the skeptical solver
            # on the same keywords: nothing a caller asked for is dropped.
            ("gmres", dict(_SKEPTICAL, gram_schmidt="modified"), TypeError),
            ("gmres", dict(_SKEPTICAL, iteration_hook=_no_op_hook, fault_hook=_no_op_hook),
             TypeError),
            # Legal: the hook has one name, on every solver.
            ("sdc_gmres", dict(_SKEPTICAL, iteration_hook=_no_op_hook), False),
            ("gmres", dict(_SKEPTICAL, iteration_hook=_no_op_hook), False),
        ],
    )
    def test_one_lane_and_two_lanes_agree(self, matrix, rhs, solver, kwargs, refused):
        # One lane takes the sequential engine, two the lockstep one:
        # same exception type and message, or the same result.
        def outcome(n_lanes):
            try:
                result = batch_solve(solver, matrix, [rhs[0]] * n_lanes, **kwargs)[0]
            except Exception as error:  # the outcome under test
                return type(error), str(error)
            return result.converged, result.iterations, result.residual_norms, result.x.tobytes()

        one = outcome(1)
        assert one == outcome(2)
        # refused: False (accepted), True (a ValueError) or the exception type.
        expected = {False: None, True: ValueError}.get(refused, refused)
        assert (one[0] if isinstance(one[0], type) else None) is expected


@pytest.mark.usefixtures("force_lockstep")
class TestSharedBoundary:
    """The engines differ in their inner step only: the cycle boundary,
    the event a policy sees and the skeptical attempt loop are the same
    function objects, entered the same number of times per lane, and
    both run each lane's checks through the same per-lane decisions."""

    ATTEMPT = ["begin_cycle", "start_cycle", "update_solution", "close_cycle", "result"]
    DRIVER = ["next_engine", "abandon", "complete", "result"]
    CASCADE = ["cheap", "orthogonality", "consistency"]  # SdcChecks' per-lane decisions

    @pytest.fixture
    def calls(self, monkeypatch, rhs):
        """(lane, "Class.method") -> number of calls, the lane told by its ``b``."""
        counts = collections.Counter()

        def spy(owner, name):
            method = getattr(owner, name)

            def counted(self, *args, **kw):
                lane = next(i for i, b in enumerate(rhs) if b is self.b)
                counts[lane, f"{owner.__name__}.{name}"] += 1
                return method(self, *args, **kw)

            monkeypatch.setattr(owner, name, counted)

        for name in self.ATTEMPT + ["observe"]:
            spy(ArnoldiAttempt, name)
        for name in self.DRIVER:
            spy(SdcAttempts, name)
        return counts

    @pytest.mark.parametrize("solver", ["gmres", "sdc_gmres"])
    def test_both_engines_enter_the_same_boundary(self, matrix, rhs, calls, monkeypatch, solver):
        swept = collections.defaultdict(set)  # decision -> the SdcChecks it ran for
        for name in self.CASCADE:
            decide = getattr(SdcChecks, name)

            def counted(checks, *args, _decide=decide, _name=name):
                swept[_name].add(checks)
                return _decide(checks, *args)

            monkeypatch.setattr(SdcChecks, name, counted)

        def run(lanes):
            calls.clear()
            swept.clear()
            results = []
            for start in range(0, 3, lanes):
                if solver == "gmres":  # an undeclared hook: observed every step
                    kwargs = dict(iteration_hook=_no_op_hook)
                    lane_params = None
                else:  # an exponent flip at step 4: one detection, one restart
                    kwargs = dict(_SKEPTICAL)
                    lane_params = [
                        {"iteration_hook": _bitflip_hook((52, 62), i, 4)}
                        for i in range(start, start + lanes)
                    ]
                with np.errstate(all="ignore"):
                    results += batch_solve(
                        solver, matrix, rhs[start:start + lanes], tol=1e-8, restart=10,
                        maxiter=600, lane_params=lane_params, **kwargs,
                    )
            return results, dict(calls), {name: len(sets) for name, sets in swept.items()}

        sequential, one_lane, one_swept = run(1)
        lockstep, three_lanes, three_swept = run(3)
        assert_lane_parity(lockstep, sequential)
        if solver == "gmres":
            assert one_swept == three_swept == {}
        else:  # every lane's checks ran the one cascade, under either engine (the
            # lockstep cohort decides a step every lane passed without it)
            assert one_swept == dict.fromkeys(self.CASCADE, 3)
            assert three_swept["orthogonality"] == three_swept["consistency"] == 3
            for one, three in zip(sequential, lockstep):
                assert one.detected_faults == three.detected_faults == 1
                for name in ("checks_run", "check_flops", "detection_restarts"):
                    assert one.info[name] == three.info[name], name
        # What both engines must enter equally often.  The event builder
        # counts for gmres only: the sequential engine reaches the checks
        # through its policy's event, the lockstep one directly, so there
        # the fault hook is the one lockstep observer.
        shared = [f"ArnoldiAttempt.{name}" for name in self.ATTEMPT]
        if solver == "gmres":
            shared.append("ArnoldiAttempt.observe")
        else:
            shared += [f"SdcAttempts.{name}" for name in self.DRIVER]
        for lane, result in enumerate(sequential):
            for name in shared:
                assert one_lane[lane, name] == three_lanes[lane, name] > 0, (lane, name)
            assert one_lane[lane, "ArnoldiAttempt.start_cycle"] >= 3
            if solver == "gmres":
                assert one_lane[lane, "ArnoldiAttempt.observe"] == result.iterations
            else:
                assert result.info["detection_restarts"] == 1
                assert one_lane[lane, "SdcAttempts.abandon"] == 1
                assert one_lane[lane, "SdcAttempts.complete"] == 1
                assert one_lane[lane, "SdcAttempts.next_engine"] == 3
                # The hook is due at step 4 of the abandoned attempt and of
                # its successor; the sequential policy observes every step.
                assert three_lanes[lane, "ArnoldiAttempt.observe"] == 2
                assert one_lane[lane, "ArnoldiAttempt.observe"] > result.iterations

    @pytest.mark.parametrize("lanes", [1, 3], ids=["sequential", "lockstep"])
    def test_a_policy_gets_the_event_shape_it_declares(self, matrix, rhs, monkeypatch, lanes):
        seen = []
        guard_observe = ResidualGuardPolicy.observe

        def observe(self, event):
            seen.append(type(event))
            guard_observe(self, event)

        monkeypatch.setattr(ResidualGuardPolicy, "observe", observe)
        kwargs = dict(tol=1e-8, restart=10, maxiter=600)
        guarded = batch_solve("gmres", matrix, rhs[:lanes], policy="residual_guard", **kwargs)
        # needs_arnoldi_state = False: the scalar event, on either engine.
        assert set(seen) == {IterationEvent}
        assert len(seen) == sum(r.iterations for r in guarded)
        seen.clear()
        hooked = batch_solve(
            "gmres", matrix, rhs[:lanes], **kwargs,
            iteration_hook=lambda state: seen.append(type(state)),
        )
        assert set(seen) == {engine_core.GmresState}
        assert len(seen) == sum(r.iterations for r in hooked)


class TestLockstepCostShape:
    """The engine's cost shape, pinned as counts rather than timings."""

    LANES = 24

    @pytest.fixture
    def many_rhs(self, matrix):
        return [
            np.random.default_rng(300 + i).standard_normal(matrix.n_rows)
            for i in range(self.LANES)
        ]

    @pytest.fixture
    def state_count(self, monkeypatch):
        built = []

        class CountedState(engine_core.GmresState):
            def __init__(self, *args, **kw):
                built.append(kw.get("total_iteration"))
                super().__init__(*args, **kw)

        monkeypatch.setattr(engine_core, "GmresState", CountedState)  # both engines' builder
        return built

    @pytest.mark.parametrize("lanes", [LANES, 1], ids=["lockstep", "sequential"])
    def test_due_hook_builds_one_state_per_lane(
        self, matrix, many_rhs, state_count, lanes
    ):
        # E1's hooks can act at one iteration only and say so: neither
        # engine builds a GmresState for any other step.
        fire_at = 4
        iterations = 0
        for start in range(0, self.LANES, lanes):
            hooks = [_bitflip_hook((0, 25), 50 + start + i, fire_at) for i in range(lanes)]
            results = batch_solve(
                "gmres", matrix, many_rhs[start:start + lanes], tol=1e-8,
                restart=30, maxiter=600,
                lane_params=[{"iteration_hook": hook} for hook in hooks],
            )
            iterations += sum(r.iterations for r in results)
        assert state_count == [fire_at] * self.LANES
        assert iterations > 10 * self.LANES  # once per lane, not per lane-step

    @pytest.mark.parametrize("lanes", [LANES, 1], ids=["lockstep", "sequential"])
    def test_undeclared_hook_sees_every_lane_step(
        self, matrix, many_rhs, state_count, lanes
    ):
        seen = []
        iterations = 0
        for start in range(0, self.LANES, lanes):
            results = batch_solve(
                "gmres", matrix, many_rhs[start:start + lanes], tol=1e-8,
                restart=30, maxiter=600,
                lane_params=[
                    {"iteration_hook": lambda state: seen.append(state.total_iteration)}
                ] * lanes,
            )
            iterations += sum(r.iterations for r in results)
        assert len(seen) == len(state_count) == iterations

    def test_cycle_boundary_is_stacked(self, matrix, many_rhs, monkeypatch):
        # A 24-lane cohort on one CsrMatrix, every lane good and every
        # step count shared (each right-hand side twice): no per-lane
        # back substitution at the tail, no per-lane matvec at a cycle
        # head or tail, and one stacked back substitution per distinct
        # step count of a tail.
        bs = [b for b in many_rhs[: self.LANES // 2] for _ in range(2)]
        calls = collections.Counter()
        expected = []

        def counted(module, name):
            function = getattr(module, name)

            def spy(*args, **kw):
                calls[name] += 1
                return function(*args, **kw)

            monkeypatch.setattr(module, name, spy)

        counted(batch_engine, "back_substitution")
        counted(batch_engine, "back_substitution_many")
        counted(krylov_ops, "matvec")
        tail = batch_engine._batched_cycle_tail

        def counted_tail(members, hess, g):
            used = {lane.attempt.inner_used for lane in members} - {0}
            expected.append(len(used))
            return tail(members, hess, g)

        monkeypatch.setattr(batch_engine, "_batched_cycle_tail", counted_tail)
        kwargs = dict(tol=1e-8, restart=30, maxiter=600)
        batched = batch_solve("gmres", matrix, bs, **kwargs)
        monkeypatch.undo()
        assert len(expected) > 1  # more than one cycle
        assert calls["back_substitution"] == calls["matvec"] == 0
        assert calls["back_substitution_many"] == sum(expected)
        entry = default_solver_registry().get("gmres")
        assert_lane_parity(batched, [entry.solve(matrix, b, **kwargs) for b in bs])

    @pytest.mark.parametrize("solver", ["gmres", "cg"])
    def test_lane_seconds_add_up_to_the_stacked_spans(
        self, matrix, many_rhs, monkeypatch, solver
    ):
        # A clock that only runs inside the stacked matvec, one second a
        # call: the lanes' shares must add up to the number of calls.
        clock = types.SimpleNamespace(now=0.0, calls=0)
        fake_time = types.SimpleNamespace(perf_counter=lambda: clock.now)
        stacked = batch_engine.batched_matvec

        def timed(operator, X):
            clock.now += 1.0
            clock.calls += 1
            return stacked(operator, X)

        monkeypatch.setattr(batch_engine, "time", fake_time)
        monkeypatch.setattr(timing, "time", fake_time)
        monkeypatch.setattr(batch_engine, "batched_matvec", timed)
        kwargs = dict(tol=1e-9, maxiter=300)
        lane_params = [{"tol": 10.0 ** -(3 + i % 7)} for i in range(self.LANES)]
        batched = batch_solve(solver, matrix, many_rhs, lane_params=lane_params, **kwargs)
        monkeypatch.undo()
        total = sum(r.info["kernels"]["seconds"]["matvec"] for r in batched)
        assert clock.calls > 10
        assert total == pytest.approx(clock.calls, rel=1e-6)
        entry = default_solver_registry().get(solver)
        for r, b, extra in zip(batched, many_rhs, lane_params):
            sequential = entry.solve(matrix, b, **dict(kwargs, **extra))
            assert r.info["kernels"]["counts"] == sequential.info["kernels"]["counts"]


def test_givens_rotation_many_matches_scalar_elementwise():
    # Both divide branches, zeros of either sign, infinities and NaN in
    # one vector (the swap and the zero patch both run), then vectors
    # that need neither.
    values = [0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 1e-320, 1e308, np.inf, -np.inf, np.nan]
    pairs = list(itertools.product(values, values))
    small = [(3.0, 1.0), (-2.0, 0.5), (1e5, -7.0)]
    with np.errstate(all="ignore"):
        for batch in (pairs, small, [(b, a) for a, b in small]):
            a = np.array([p[0] for p in batch])
            b = np.array([p[1] for p in batch])
            c, s = givens_rotation_many(a, b)
            for i, (a_i, b_i) in enumerate(batch):
                c_i, s_i = givens_rotation(a_i, b_i)
                assert np.array_equal([c[i], s[i]], [c_i, s_i], equal_nan=True)
                assert np.signbit(c[i]) == np.signbit(c_i) or c_i != c_i
                assert np.signbit(s[i]) == np.signbit(s_i) or s_i != s_i


# ----------------------------------------------------------------------
# Driver layer: run_batch vs S sequential run() calls.
# ----------------------------------------------------------------------
def assert_driver_parity(module, config, seeds):
    batched = module.run_batch([dict(config, seed=s) for s in seeds])
    sequential = [module.run(**dict(config, seed=s)) for s in seeds]
    assert len(batched) == len(sequential)
    for b, s in zip(batched, sequential):
        assert canonical_json(b.to_dict()) == canonical_json(s.to_dict())


@pytest.mark.usefixtures("force_lockstep")
class TestDriverParity:
    def test_e1_matches_sequential(self):
        assert_driver_parity(
            e1_sdc_detection,
            dict(grid=6, n_trials=2, inject_at=4),
            seeds=[101, 102, 103],
        )

    def test_e8_matches_sequential(self):
        assert_driver_parity(
            e8_solvers,
            dict(grid=6, solvers=("gmres", "cg", "sdc_gmres"),
                 policy="skeptical", faults="bitflip:p=0.02,bits=52..62"),
            seeds=[101, 102, 103],
        )

    def test_e8_fallback_solvers_match_sequential(self):
        # Non-batchable solvers (pipelined, flexible, ft_gmres) take
        # the sequential-fallback path inside the batch driver.
        assert_driver_parity(
            e8_solvers,
            dict(grid=6, solvers=("pipelined_gmres", "fgmres", "ft_gmres"),
                 policy="guard", faults="bitflip:p=0.02,bits=52..62"),
            seeds=[101, 102],
        )

    @pytest.mark.parametrize("target", ["precond", "operator"])
    def test_e9_matches_sequential(self, target):
        assert_driver_parity(
            e9_precond,
            dict(grid=6, solvers=("gmres", "cg"), preconds=("none", "jacobi"),
                 faults="bitflip:p=0.05,bits=52..62", target=target),
            seeds=[101, 102, 103],
        )

    def test_e10_matches_sequential(self):
        assert_driver_parity(
            e10_precision,
            dict(grid=6, solvers=("gmres", "cg"), precisions=("fp64", "fp32"),
                 preconds=("none", "jacobi"),
                 faults="bitflip:p=0.05,bits=52..62", target="inner"),
            seeds=[2013, 2014, 2015],
        )

    @pytest.mark.parametrize(
        "module", [e1_sdc_detection, e8_solvers, e9_precond, e10_precision],
        ids=["E1", "E8", "E9", "E10"],
    )
    def test_run_and_run_batch_record_equal_parameters(self, module):
        # Mixed seeds (one left to its default), a fault spec in a
        # non-canonical spelling, and the smoke parameters as reloaded
        # from JSON (lists where the spec has tuples): every lane records
        # exactly what run() records.
        smoke = dict(module.SPEC.smoke)
        faulty = dict(smoke, faults="bitflip:p=0.05,bits=52..62")
        reloaded = {k: list(v) if isinstance(v, tuple) else v for k, v in smoke.items()}
        params = [dict(smoke, seed=5), faulty, dict(reloaded, seed=3),
                  dict(faulty, seed=5), smoke]
        batched = module.run_batch(params)
        assert [b.parameters for b in batched] == [module.run(**p).parameters for p in params]

    def test_empty_and_singleton_batches(self):
        assert e8_solvers.run_batch([]) == []
        config = dict(grid=6, solvers=("gmres",), policy="none", seed=77)
        single = e8_solvers.run_batch([config])
        assert canonical_json(single[0].to_dict()) == canonical_json(
            e8_solvers.run(**config).to_dict()
        )

    def test_mixed_signatures_keep_input_order(self):
        # Two signatures interleaved: each forms its own lockstep group,
        # and the results come back in input order.
        gmres = dict(grid=6, solvers=("gmres",), policy="none")
        cg = dict(grid=6, solvers=("cg",), policy="none")
        params = [dict(gmres, seed=1), dict(cg, seed=1),
                  dict(gmres, seed=2), dict(cg, seed=2)]
        batched = e8_solvers.run_batch(params)
        sequential = [e8_solvers.run(**p) for p in params]
        assert [canonical_json(b.to_dict()) for b in batched] == [
            canonical_json(s.to_dict()) for s in sequential
        ]

    def test_tuple_and_list_params_share_a_lockstep_group(self, monkeypatch):
        # Params reloaded from JSON carry lists where the spec had
        # tuples; the runner's grouping and the drivers' must agree that
        # those are the same scenario shape.
        params = [
            dict(grid=6, solvers=("gmres",), policy="none", seed=1),
            dict(grid=6, solvers=["gmres"], policy="none", seed=2),
        ]
        assert plan_batch_groups([Scenario("E8", p) for p in params]) == [[0, 1]]

        lane_counts = []
        lockstep = batch_engine.run_arnoldi_batch

        def spy(lanes, *args, **kw):
            lane_counts.append(len(lanes))
            return lockstep(lanes, *args, **kw)

        monkeypatch.setattr(batch_engine, "run_arnoldi_batch", spy)
        batched = e8_solvers.run_batch(params)
        assert lane_counts == [2]
        sequential = [e8_solvers.run(**p) for p in params]
        assert [canonical_json(b.to_dict()) for b in batched] == [
            canonical_json(s.to_dict()) for s in sequential
        ]


# ----------------------------------------------------------------------
# Runner layer: batch groups and per-scenario outcomes.
# ----------------------------------------------------------------------
def _replica_scenarios():
    base = {"grid": 6, "solvers": ("gmres", "cg"), "policy": "none"}
    scenarios = [
        Scenario("E8", dict(base, seed=200 + i)) for i in range(4)
    ]
    # A non-batchable driver mixed in: grouped as singletons, results
    # unchanged.
    scenarios.append(Scenario("E7", {"node_mtbf_years": 1.0}))
    return scenarios


class TestRunnerBatchMode:
    def test_batch_cap_chunks_groups(self):
        groups = plan_batch_groups(_replica_scenarios(), limit=3)
        assert sorted(len(g) for g in groups) == [1, 1, 3]

    def test_batched_outcomes_report_per_scenario(self):
        scenarios = _replica_scenarios()
        outcomes = CampaignRunner(batch=0).run(scenarios)
        assert len(outcomes) == len(scenarios)
        assert all(o.status == "completed" for o in outcomes)
        keys = {o.key for o in outcomes}
        assert len(keys) == len(scenarios)

    def test_negative_batch_rejected(self):
        with pytest.raises(ValueError):
            CampaignRunner(batch=-1)


# ----------------------------------------------------------------------
# Properties: grouping partitions; convergence masks freeze lanes.
# ----------------------------------------------------------------------
_experiment = st.sampled_from(["E1", "E7", "E8", "E9"])
_params = st.fixed_dictionaries(
    {"seed": st.integers(0, 5)},
    optional={"grid": st.sampled_from([6, 8]), "policy": st.sampled_from(["none", "guard"])},
)


@st.composite
def _scenario_lists(draw):
    pairs = draw(
        st.lists(st.tuples(_experiment, _params), min_size=0, max_size=20)
    )
    return [Scenario(experiment, params) for experiment, params in pairs]


class TestBatchGroupingProperties:
    @settings(max_examples=60, deadline=None)
    @given(scenarios=_scenario_lists(), limit=st.sampled_from([0, 1, 2, 3]))
    def test_groups_partition_scenarios(self, scenarios, limit):
        registry = default_registry()
        groups = plan_batch_groups(scenarios, limit=limit)
        flat = [index for group in groups for index in group]
        # Nothing dropped, nothing duplicated.
        assert sorted(flat) == list(range(len(scenarios)))
        for group in groups:
            if limit:
                assert len(group) <= limit
            members = [scenarios[i] for i in group]
            driver = registry.get(members[0].experiment)
            if len(members) > 1:
                # Only shape-compatible scenarios of a batch-capable
                # driver share a group: same experiment, same params
                # except the seed.
                assert driver.run_batch is not None
                reference = {
                    k: v for k, v in members[0].params.items() if k != "seed"
                }
                for member in members[1:]:
                    assert member.experiment == members[0].experiment
                    assert {
                        k: v for k, v in member.params.items() if k != "seed"
                    } == reference

    @settings(max_examples=30, deadline=None)
    @given(scenarios=_scenario_lists())
    def test_grouping_is_deterministic(self, scenarios):
        assert plan_batch_groups(scenarios) == plan_batch_groups(scenarios)

    @settings(max_examples=30, deadline=None)
    @given(scenarios=_scenario_lists())
    def test_non_batchable_drivers_stay_singleton(self, scenarios):
        registry = default_registry()
        for group in plan_batch_groups(scenarios):
            driver = registry.get(scenarios[group[0]].experiment)
            if driver.run_batch is None:
                assert len(group) == 1


class TestMaskFreezeProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        lanes=st.lists(
            st.tuples(
                st.integers(0, 10_000),          # rhs seed
                st.integers(2, 10),              # tolerance exponent
                st.sampled_from([5, 30, 200]),   # maxiter
            ),
            min_size=2,
            max_size=6,
        )
    )
    def test_converged_lane_rows_never_change(self, lanes):
        # Once a lane leaves the advancing set (converged, broken down,
        # out of budget, or handed to the sequential step with the
        # batch's last lanes), its rows of the stacked iterate/residual
        # arrays must stay frozen for the rest of the lockstep run.
        matrix = poisson_2d(5)

        def specs():
            return [
                (
                    cg_engine(matrix, tol=10.0 ** -exponent, maxiter=maxiter),
                    np.random.default_rng(seed).standard_normal(matrix.n_rows),
                    None,
                )
                for seed, exponent, maxiter in lanes
            ]

        snapshots = {}
        advanced_steps = collections.Counter()

        def trace(step, advanced, X, R):
            advancing = set(advanced)
            for lane in range(len(lanes)):
                if lane in advancing:
                    advanced_steps[lane] += 1
                    snapshots[lane] = (X[lane].copy(), R[lane].copy())
                elif lane in snapshots:
                    x_frozen, r_frozen = snapshots[lane]
                    assert np.array_equal(X[lane], x_frozen)
                    assert np.array_equal(R[lane], r_frozen)

        results = run_cg_batch(specs(), trace=trace)
        for lane, (result, (engine, b, _)) in enumerate(zip(results, specs())):
            # A lane that left in lockstep (its iterations are its
            # lockstep steps) returned exactly its frozen row; every lane,
            # a handed-off one included, returned the sequential solve.
            if lane in snapshots and result.iterations == advanced_steps[lane]:
                assert np.array_equal(result.x, snapshots[lane][0])
            sequential = engine.solve(b)
            assert result.x.tobytes() == sequential.x.tobytes()
            assert result.residual_norms == sequential.residual_norms
            assert (result.iterations, result.converged, result.breakdown) == (
                sequential.iterations, sequential.converged, sequential.breakdown
            )


# ----------------------------------------------------------------------
# Ledger reconciliation: the store is authoritative for completion.
# ----------------------------------------------------------------------
class TestLedgerReconciliation:
    def test_quarantined_key_cleared_by_cached_store_hit(self, tmp_path):
        # A scenario quarantined in one run (e.g. its batch unit was
        # killed) but whose result reached the store -- a sibling's
        # unit completed it, or a later solo run journaled elsewhere --
        # must not linger in failed_keys() forever.
        store_path = tmp_path / "s.jsonl"
        scenarios = [Scenario("E7", {"node_mtbf_years": 1.0})]
        outcomes = CampaignRunner(ResultStore(str(store_path))).run(scenarios)
        key = outcomes[0].key

        ledger_path = FailureLedger.path_for(str(store_path))
        FailureLedger(ledger_path).record(
            AttemptRecord(key=key, experiment="E7", attempt=3,
                          status="crashed", outcome="quarantined")
        )
        assert key in FailureLedger(ledger_path).failed_keys()

        rerun = CampaignRunner(ResultStore(str(store_path))).run(scenarios)
        assert rerun[0].status == "cached"
        reconciled = FailureLedger(ledger_path)
        assert key not in reconciled.failed_keys()
        assert reconciled._records[-1].status == "reconciled"

    def test_mark_completed_clears_failed_key(self, tmp_path):
        ledger = FailureLedger(str(tmp_path / "ledger.jsonl"))
        ledger.record(
            AttemptRecord(key="k1", experiment="E8", attempt=2,
                          status="timeout", outcome="timeout")
        )
        assert ledger.failed_keys() == ["k1"]
        ledger.mark_completed("k1", "E8")
        assert ledger.failed_keys() == []
        # Append-only history survives the reconciliation.
        assert [r.outcome for r in ledger._records] == ["timeout", "completed"]
