"""Contract tests for the solver registry and engine strategy wiring.

Every :class:`~repro.krylov.registry.RegisteredSolver` must honor the
``SolveResult`` contract regardless of which resilience policy it runs
under: a converged flag that means what it says, a residual history
that starts at the initial residual and ends at (or below) the target,
and the canonical kernel-counter schema the engine guarantees.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.krylov import SolveResult, cg, gmres
from repro.krylov.cg import cg_engine
from repro.krylov.gmres import gmres_engine
from repro.krylov.registry import batch_solve, default_solver_registry
from repro.krylov.engine import (
    CallbackPolicy,
    GmresState,
    IterationEvent,
    ResidualGuardPolicy,
    batch,
)
from repro.krylov.engine.core import CANONICAL_KERNELS
from repro.skeptical.gmres_sdc import (
    SdcAttempts,
    SdcChecks,
    estimate_operator_norm,
    sdc_detecting_gmres,
)
from repro.comm.distributed import DistributedRowMatrix, DistributedVector
from repro.linalg import poisson_2d
from repro.comm.sim import run_spmd

REGISTRY = default_solver_registry()


def _problem(grid: int = 8, seed: int = 17):
    matrix = poisson_2d(grid)
    rng = np.random.default_rng(seed)
    return matrix, rng.standard_normal(matrix.n_rows)


def _solver_params(solver, tol: float = 1e-8) -> dict:
    if solver.name == "ft_gmres":
        return {"tol": tol, "outer_maxiter": 30, "inner_maxiter": 10}
    return {"tol": tol, "maxiter": 400}


def _assert_contract(result: SolveResult, tol: float = 1e-8) -> None:
    assert isinstance(result, SolveResult)
    assert isinstance(result.converged, bool)
    assert result.iterations >= 0
    assert result.detected_faults >= 0
    # Residual history: present, starts at the initial residual, and the
    # recorded final residual must meet the target when converged.
    history = result.residual_norms
    assert history and history[0] > 0.0
    assert history[-1] <= history[0] * (1 + 1e-12)
    target = result.info.get("target")
    if result.converged and target is not None:
        assert history[-1] <= target * (1 + 1e-12)
    # Canonical counter schema: every engine solve reports the same
    # kernel keys (possibly at zero), in both counts and seconds.
    kernels = result.info["kernels"]
    for kernel in CANONICAL_KERNELS:
        assert kernel in kernels["counts"], f"missing counter {kernel}"
        assert kernel in kernels["seconds"], f"missing timer {kernel}"


class TestRegistryLookup:
    def test_names_cover_all_six_engine_wrappers(self):
        assert {"gmres", "fgmres", "pipelined_gmres", "cg", "pipelined_cg",
                "ft_gmres"} <= set(default_solver_registry().names())

    def test_unknown_solver_raises_with_known_names(self):
        with pytest.raises(KeyError, match="gmres"):
            REGISTRY.get("bicgstab")

    def test_lookup_is_case_insensitive(self):
        assert REGISTRY.get("GMRES").name == "gmres"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="does not support"):
            REGISTRY.get("cg").resolve_policy("tmr_everything")

    def test_generic_policies_resolve_everywhere(self):
        for solver in REGISTRY:
            for generic in ("none", "guard", "skeptical"):
                resolved = solver.resolve_policy(generic)
                assert resolved in solver.policies


@pytest.mark.parametrize("name", default_solver_registry().names())
class TestSolveResultContract:
    def test_default_policy_contract(self, name):
        solver = REGISTRY.get(name)
        matrix, b = _problem()
        result = solver.solve(matrix, b, **_solver_params(solver))
        _assert_contract(result)
        assert result.converged
        assert result.info["solver_name"] == name
        assert result.info["policy_name"] == solver.default_policy
        residual = np.linalg.norm(matrix.matvec(np.asarray(result.x)) - b)
        assert residual <= 1e-6 * np.linalg.norm(b)

    def test_every_supported_policy_contract(self, name):
        solver = REGISTRY.get(name)
        matrix, b = _problem(grid=6)
        for policy in solver.policies:
            result = solver.solve(matrix, b, policy=policy, **_solver_params(solver))
            _assert_contract(result)
            assert result.info["policy_name"] == policy

    def test_gmres_family_residuals_monotone_within_cycles(self, name):
        solver = REGISTRY.get(name)
        if solver.family != "gmres" or name == "sdc_gmres":
            pytest.skip("within-cycle monotonicity is a GMRES-cycle property")
        matrix, b = _problem()
        result = solver.solve(matrix, b, **_solver_params(solver))
        history = result.residual_norms
        assert all(
            history[i + 1] <= history[i] * (1 + 1e-12) for i in range(len(history) - 1)
        )


class TestRegistryBackedWrappers:
    def test_registry_gmres_is_bitwise_the_wrapper(self):
        matrix, b = _problem()
        via_registry = REGISTRY.get("gmres").solve(matrix, b, tol=1e-9, restart=15,
                                                   maxiter=300)
        direct = gmres(matrix, b, tol=1e-9, restart=15, maxiter=300)
        assert np.array_equal(np.asarray(via_registry.x), np.asarray(direct.x))
        assert via_registry.residual_norms == direct.residual_norms

    def test_residual_guard_unit_mechanics(self):
        from repro.krylov.engine import IterationEvent

        guard = ResidualGuardPolicy()
        for i, r in enumerate((8.0, 4.0, 1.0, 0.5, 4e3)):
            guard.observe(IterationEvent(total_iteration=i + 1, residual_norm=r))
        assert guard.detections == 0  # 4e3 is within 1e4 times the best, 0.5
        guard.observe(IterationEvent(total_iteration=6, residual_norm=6e3))
        guard.observe(IterationEvent(total_iteration=7, residual_norm=float("nan")))
        assert guard.detections == 2
        assert [e["iteration"] for e in guard.events] == [6, 7]

    @pytest.mark.parametrize("name", ["gmres", "fgmres", "pipelined_gmres"])
    def test_residual_guard_flags_corrupted_recurrence(self, name):
        # A NaN written into the next Arnoldi basis vector makes the
        # following step's recurrence residual non-finite, which the
        # solver-agnostic guard flags at its default growth factor.  (A
        # finite corruption of a CG-type recurrence seldom grows the
        # residual 1e4-fold: the next step length renormalises it.)
        matrix, b = _problem()

        def corrupt(state):
            if state.total_iteration == 5:
                state.basis[state.inner + 1][3] = np.nan

        result = REGISTRY.get(name).solve(
            matrix, b, policy="residual_guard", iteration_hook=corrupt, tol=1e-10, maxiter=300
        )
        assert result.detected_faults == result.info["residual_guard"]["detections"] == 1
        assert [e["iteration"] for e in result.info["residual_guard"]["events"]] == [6]

    def test_residual_guard_inert_on_clean_run(self):
        matrix, b = _problem()
        result = REGISTRY.get("cg").solve(
            matrix, b, policy="guard", tol=1e-10, maxiter=300
        )
        assert result.converged
        assert result.detected_faults == 0
        assert result.info["residual_guard"]["detections"] == 0

    def test_distributed_entries_run_on_simulated_runtime(self):
        matrix_global = poisson_2d(6)
        rng = np.random.default_rng(3)
        b_global = rng.standard_normal(matrix_global.n_rows)
        distributed = [s.name for s in REGISTRY if s.distributed]

        def program(comm):
            matrix = DistributedRowMatrix.from_global(comm, matrix_global)
            b = DistributedVector.from_global(comm, b_global)
            outcomes = {}
            for name in distributed:
                solver = REGISTRY.get(name)
                result = solver.solve(matrix, b, tol=1e-8, maxiter=300)
                _assert_contract(result)
                outcomes[name] = result.converged
            return outcomes

        for outcomes in run_spmd(4, program):
            assert all(outcomes.values())


# ----------------------------------------------------------------------
# The declared solver surface
# ----------------------------------------------------------------------

_GMRES = ("tol", "atol", "restart", "maxiter", "preconditioner", "iteration_hook", "policy")
_CG = ("tol", "atol", "maxiter", "preconditioner", "iteration_hook", "policy")
_SDC = (
    "tol", "atol", "restart", "maxiter", "preconditioner", "check_period", "policy",
    "operator_norm",
)

#: The keyword parameters of every registered solver function (a
#: ``**options`` read as the keywords of the builder it forwards them to)
#: and of ``SdcAttempts``, in signature order.  A new option shows up as
#: an edit of this table.
SOLVER_SURFACE = {
    "gmres": _GMRES,
    "fgmres": ("tol", "atol", "restart", "maxiter", "inner_solve", "iteration_hook", "policy"),
    "pipelined_gmres": _GMRES,
    "cg": _CG,
    "pipelined_cg": _CG,
    "sdc_gmres": ("iteration_hook", *_SDC),
    "ft_gmres": (
        "tol", "outer_maxiter", "outer_restart", "inner_tol", "inner_maxiter",
        "inner_restart", "preconditioner", "region",
    ),
}

_FORWARDS = {gmres: gmres_engine, cg: cg_engine, sdc_detecting_gmres: SdcAttempts}

#: The skeptical solver's former tuning keywords, now SdcChecks constants.
_CHECK_CONSTANTS = (
    "orthogonality_period", "residual_check_period", "hessenberg_safety", "orthogonality_tol",
)


def _keywords(function) -> tuple:
    """The keywords ``function`` takes, ``**options`` followed to its builder."""
    names = []
    for param in inspect.signature(function).parameters.values():
        if param.kind is param.KEYWORD_ONLY:
            names.append(param.name)
        elif param.kind is param.VAR_KEYWORD:
            names.extend(_keywords(_FORWARDS[function]))
    return tuple(names)


class TestDeclaredSurface:
    def test_every_solver_takes_the_declared_keywords(self):
        assert {solver.name: _keywords(solver.function) for solver in REGISTRY} == SOLVER_SURFACE
        assert _keywords(SdcAttempts) == _SDC

    @pytest.mark.parametrize("solver, keyword", [
        *[("sdc_gmres", name) for name in (*_CHECK_CONSTANTS, "max_restarts_on_detection")],
        *[("ft_gmres", name) for name in ("fault_probability", "bit_range", "seed", "cost_model")],
        ("pipelined_gmres", "reorthogonalize"),
    ])
    def test_a_removed_solver_keyword_is_refused(self, solver, keyword):
        matrix, b = _problem(grid=4)
        with pytest.raises(TypeError, match=keyword):
            REGISTRY.get(solver).solve(matrix, b, **{keyword: 1})

    def test_the_removed_tuning_keywords_are_refused(self):
        matrix, b = _problem(grid=4)
        for build, keyword in (
            *[(lambda **kw: SdcChecks(1.0, check_period=1, **kw), name)
              for name in _CHECK_CONSTANTS],
            (lambda **kw: estimate_operator_norm(matrix, b, **kw), "n_samples"),
            (lambda **kw: CallbackPolicy(print, **kw), "style"),
            (lambda **kw: ResidualGuardPolicy(**kw), "growth_factor"),
        ):
            with pytest.raises(TypeError, match=keyword):
                build(**{keyword: 1})


# ----------------------------------------------------------------------
# One hook signature: the iteration event, on every solver
# ----------------------------------------------------------------------

_HOOKED = [name for name, keywords in SOLVER_SURFACE.items() if "iteration_hook" in keywords]


def _recorder(log):
    def hook(event):
        log.append((type(event), event.total_iteration, event.inner, event.outer,
                    event.residual_norm))
    return hook


@pytest.mark.usefixtures("force_lockstep")  # two lanes, below every crossover
@pytest.mark.parametrize("name", _HOOKED)
def test_every_hook_gets_one_event_per_iteration(name, monkeypatch):
    solver = REGISTRY.get(name)
    matrix, b = _problem()
    params = _solver_params(solver)
    solo = []
    result = solver.solve(matrix, b, iteration_hook=_recorder(solo), **params)
    event_type = IterationEvent if solver.family == "cg" else GmresState
    assert {kind for kind, *_ in solo} == {event_type}
    assert [total for _, total, *_ in solo] == list(range(1, result.iterations + 1))

    lockstep = []
    for engine in ("run_arnoldi_batch", "run_cg_batch"):
        run = getattr(batch, engine)
        monkeypatch.setattr(batch, engine, lambda lanes, run=run: lockstep.append(lanes) or run(lanes))
    lanes = [[], []]
    batch_solve(name, matrix, [b, b], **params,
                lane_params=[{"iteration_hook": _recorder(log)} for log in lanes])
    assert lanes == [solo, solo]
    assert bool(lockstep) == (name in ("gmres", "cg", "sdc_gmres"))


def test_ft_gmres_takes_no_iteration_hook():
    matrix, b = _problem()
    with pytest.raises(TypeError, match="iteration_hook"):
        REGISTRY.get("ft_gmres").solve(matrix, b, iteration_hook=print)
