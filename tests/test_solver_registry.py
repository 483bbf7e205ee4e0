"""Contract tests for the solver registry and engine strategy wiring.

Every :class:`~repro.krylov.registry.RegisteredSolver` must honor the
``SolveResult`` contract regardless of which resilience policy it runs
under: a converged flag that means what it says, a residual history
that starts at the initial residual and ends at (or below) the target,
and the canonical kernel-counter schema the engine guarantees.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.krylov import SolveResult, gmres, pipelined_cg
from repro.krylov.registry import default_solver_registry, solver_names
from repro.krylov.engine import ResidualGuardPolicy
from repro.krylov.engine.core import CANONICAL_KERNELS
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
                "ft_gmres"} <= set(solver_names())

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


@pytest.mark.parametrize("name", solver_names())
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

        guard = ResidualGuardPolicy(growth_factor=10.0)
        for i, r in enumerate((8.0, 4.0, 1.0, 0.5)):
            guard.observe(IterationEvent(total_iteration=i + 1, residual_norm=r))
        assert guard.detections == 0
        guard.observe(IterationEvent(total_iteration=5, residual_norm=50.0))
        guard.observe(IterationEvent(total_iteration=6, residual_norm=float("nan")))
        assert guard.detections == 2
        assert [e["iteration"] for e in guard.events] == [5, 6]

    def test_residual_guard_flags_corrupted_recurrence(self):
        # Corrupt ONE operator application mid-solve: the pipelined-CG
        # recurrence drifts and its observed residuals jump, which the
        # solver-agnostic guard must flag.  (The GMRES recurrence
        # residual is monotone by construction, which is exactly why
        # the full skeptical checks inspect the Arnoldi state instead;
        # classic CG breaks down immediately on the same fault.)  At the
        # default growth factor of 1e4 this jump is not flagged.
        matrix, b = _problem()
        calls = {"n": 0}

        def flaky_operator(v):
            calls["n"] += 1
            out = matrix.matvec(np.asarray(v, dtype=np.float64))
            if calls["n"] == 8:
                out = out + 1e2
            return out

        result = pipelined_cg(
            flaky_operator, b, policy=ResidualGuardPolicy(growth_factor=10.0),
            tol=1e-10, maxiter=300,
        )
        assert result.detected_faults > 0
        assert result.info["residual_guard"]["detections"] == result.detected_faults

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
