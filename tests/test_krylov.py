"""Tests for the Krylov solvers (sequential and distributed)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.krylov import (
    cg,
    fgmres,
    gmres,
    pipelined_cg,
    pipelined_gmres,
)
from repro.comm.distributed import DistributedRowMatrix, DistributedVector
from repro.krylov.engine import cg as cg_module
from repro.krylov.registry import batch_solve
from repro.linalg import (
    JacobiPreconditioner,
    NeumannPolynomialPreconditioner,
    poisson_2d,
)
from repro.comm.sim import run_spmd


def relative_residual(matrix, x, b):
    return float(np.linalg.norm(matrix.matvec(np.asarray(x)) - b) / np.linalg.norm(b))


class TestGmres:
    def test_live_basis_stays_orthonormal_over_a_cycle(self, poisson_small, rng):
        # The basis an iteration_hook sees is the solver's own; it stays
        # orthonormal to 1e-10 at every step of a cycle, on the sequential
        # engine (one lane) and on the lockstep one (three).
        for lanes in (1, 3):
            defects = []

            def hook(state):
                v = state.basis.matrix()
                assert v.shape[1] == state.inner + 2
                defects.append(np.max(np.abs(v.T @ v - np.eye(v.shape[1]))))

            bs = [rng.standard_normal(poisson_small.n_rows) for _ in range(lanes)]
            results = batch_solve(
                "gmres", poisson_small, bs, tol=1e-10, restart=8, maxiter=8,
                iteration_hook=hook,
            )
            assert len(defects) == sum(r.iterations for r in results) == 8 * lanes
            assert max(defects) < 1e-10

    def test_converges_on_spd(self, poisson_small, rng):
        b = rng.standard_normal(poisson_small.n_rows)
        result = gmres(poisson_small, b, tol=1e-10, restart=40, maxiter=600)
        assert result.converged
        assert relative_residual(poisson_small, result.x, b) < 1e-9

    def test_converges_on_nonsymmetric(self, convdiff_small, rng):
        b = rng.standard_normal(convdiff_small.n_rows)
        result = gmres(convdiff_small, b, tol=1e-9, restart=30, maxiter=600)
        assert result.converged
        assert relative_residual(convdiff_small, result.x, b) < 1e-8

    def test_residual_history_monotone(self, poisson_small, rng):
        b = rng.standard_normal(poisson_small.n_rows)
        result = gmres(poisson_small, b, tol=1e-10, restart=100, maxiter=100)
        history = result.residual_norms
        # Within one cycle GMRES residuals are non-increasing.
        assert all(history[i + 1] <= history[i] * (1 + 1e-12) for i in range(len(history) - 1))

    def test_preconditioning_reduces_iterations(self, poisson_small, rng):
        b = rng.standard_normal(poisson_small.n_rows)
        plain = gmres(poisson_small, b, tol=1e-8, restart=30, maxiter=600)
        precond = gmres(
            poisson_small, b, tol=1e-8, restart=30, maxiter=600,
            preconditioner=NeumannPolynomialPreconditioner(poisson_small, degree=3),
        )
        assert precond.converged
        assert precond.iterations < plain.iterations
        assert relative_residual(poisson_small, precond.x, b) < 1e-7

    def test_initial_guess_respected(self, poisson_small, rng):
        b = rng.standard_normal(poisson_small.n_rows)
        exact = gmres(poisson_small, b, tol=1e-12, restart=50, maxiter=800).x
        warm = gmres(poisson_small, b, x0=exact, tol=1e-10)
        assert warm.iterations <= 1

    def test_zero_rhs(self, poisson_tiny):
        result = gmres(poisson_tiny, np.zeros(poisson_tiny.n_rows), tol=1e-10)
        assert result.converged
        assert np.allclose(result.x, 0.0)

    def test_iteration_hook_called(self, poisson_tiny, rng):
        b = rng.standard_normal(poisson_tiny.n_rows)
        calls = []
        gmres(poisson_tiny, b, tol=1e-10, iteration_hook=lambda s: calls.append(s.total_iteration))
        assert calls and calls == sorted(calls)

    def test_maxiter_respected(self, poisson_small, rng):
        b = rng.standard_normal(poisson_small.n_rows)
        result = gmres(poisson_small, b, tol=1e-14, restart=5, maxiter=7)
        assert result.iterations <= 7
        assert not result.converged or result.iterations <= 7

    def test_callable_operator(self, poisson_tiny, rng):
        b = rng.standard_normal(poisson_tiny.n_rows)
        result = gmres(lambda v: poisson_tiny.matvec(v), b, tol=1e-10)
        assert result.converged

    def test_parameter_validation(self, poisson_tiny):
        b = np.ones(poisson_tiny.n_rows)
        with pytest.raises(ValueError):
            gmres(poisson_tiny, b, restart=0)
        with pytest.raises(ValueError):
            gmres(poisson_tiny, b, maxiter=0)
        with pytest.raises(TypeError):  # CGS2 is the one Arnoldi kernel
            gmres(poisson_tiny, b, gram_schmidt="cgs2")


class TestCg:
    def test_converges_and_matches_direct(self, poisson_small, rng):
        b = rng.standard_normal(poisson_small.n_rows)
        result = cg(poisson_small, b, tol=1e-12, maxiter=1000)
        assert result.converged
        direct = np.linalg.solve(poisson_small.to_dense(), b)
        assert np.allclose(np.asarray(result.x), direct, atol=1e-8)

    def test_alphas_positive_for_spd(self, poisson_small, rng):
        b = rng.standard_normal(poisson_small.n_rows)
        result = cg(poisson_small, b, tol=1e-10)
        assert all(alpha > 0 for alpha in result.info["alphas"])

    def test_jacobi_preconditioning(self, rng):
        matrix = poisson_2d(7)
        b = rng.standard_normal(matrix.n_rows)
        plain = cg(matrix, b, tol=1e-10, maxiter=2000)
        precond = cg(matrix, b, tol=1e-10, maxiter=2000,
                     preconditioner=JacobiPreconditioner(matrix))
        assert precond.converged and plain.converged
        for result in (plain, precond):  # the preamble's application counted too
            counts = result.info["kernels"]["counts"]
            assert (counts["matvec"], counts["preconditioner"]) == (result.iterations + 1, result.iterations)
        assert plain.info["kernels"]["seconds"]["preconditioner"] == 0.0  # z is r

    def test_breakdown_on_indefinite(self):
        # Zero curvature at the first step: (p, Ap) = 1 - 1.
        result = cg(np.diag([1.0, -1.0]), np.ones(2), tol=1e-10, maxiter=50)
        assert (result.breakdown, result.iterations) == (True, 0)
        # A finite curvature whose step overflows r: the residual check stops it.
        with np.errstate(over="ignore", invalid="ignore"):
            result = cg(np.array([[1e-10, 0.0], [1e300, 0.0]]), np.array([1.0, 0.0]), tol=1e-10, maxiter=50)
        assert (result.breakdown, result.iterations, result.info["kernels"]["counts"]["preconditioner"]) == (True, 1, 1)
        # A preconditioner that turns non-finite: the (r, z) check stops it.
        scale = iter([1.0, np.inf])
        with np.errstate(over="ignore", invalid="ignore"):
            result = cg(np.diag([1.0, 2.0]), np.ones(2), tol=1e-12, maxiter=5,
                        preconditioner=lambda v: v * next(scale))
        assert (result.breakdown, result.iterations, result.info["betas"]) == (True, 1, [])
        scale = iter([1.0, np.inf])  # pipelined: the fused (r, u), (w, u) check stops it
        with np.errstate(over="ignore", invalid="ignore"):
            result = pipelined_cg(np.diag([1.0, 2.0, 3.0]), np.ones(3), tol=1e-12, maxiter=5,
                                  preconditioner=lambda v: v * next(scale, np.inf))
        assert (result.breakdown, result.iterations) == (True, 1)
        # Pipelined stops at: a zero denominator, a zero step (r is
        # orthogonal to M r), an overflowed residual (before step 1's matvec).
        for b, preconditioner, operator, iterations, matvecs in (
            (np.ones(2), lambda v: 0.0 * v, np.eye(2), 0, 3),
            (np.array([1.0, 0.0]), lambda v: v[::-1].copy(), np.eye(2), 1, 4),
            (np.array([1.0, 0.0]), None, np.array([[1e-10, 0.0], [1e300, 0.0]]), 1, 3),
        ):
            with np.errstate(over="ignore", invalid="ignore"):
                result = pipelined_cg(operator, b, tol=1e-12, maxiter=5, preconditioner=preconditioner)
            assert (result.breakdown, result.iterations, result.info["kernels"]["counts"]["matvec"]) == (
                True, iterations, matvecs)

    def test_iteration_hook(self, poisson_tiny, rng):
        b = rng.standard_normal(poisson_tiny.n_rows)
        residuals = []
        cg(poisson_tiny, b, tol=1e-10,
           iteration_hook=lambda event: residuals.append(event.residual_norm))
        assert residuals and residuals[-1] < residuals[0]

    def test_exact_after_n_iterations(self, rng):
        matrix = poisson_2d(4)
        b = rng.standard_normal(matrix.n_rows)
        result = cg(matrix, b, tol=1e-12, maxiter=60)
        assert result.converged and result.iterations <= 40


class TestCgFireAt:
    """Both CG schemes honour ``ResiliencePolicy.fire_at``: a hook that
    declares the one iteration it acts at is called there only, and the
    bare solver (``NullPolicy``, ``fire_at = 0``) builds no event."""

    SOLVERS = {"cg": cg, "pipelined_cg": pipelined_cg}

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_a_declared_hook_is_called_once_at_its_iteration(self, name, poisson_small, rng):
        b = rng.standard_normal(poisson_small.n_rows)
        seen = []

        def hook(event):
            seen.append(event.total_iteration)

        hook.fire_at = 5
        result = self.SOLVERS[name](poisson_small, b, tol=1e-10, iteration_hook=hook)
        assert result.iterations > 10
        assert seen == [5]

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_the_bare_solver_builds_no_event(self, name, poisson_small, rng, monkeypatch):
        built = []

        class CountedEvent(cg_module.IterationEvent):
            def __init__(self, **fields):
                built.append(fields["total_iteration"])
                super().__init__(**fields)

        monkeypatch.setattr(cg_module, "IterationEvent", CountedEvent)
        b = rng.standard_normal(poisson_small.n_rows)
        result = self.SOLVERS[name](poisson_small, b, tol=1e-10)
        assert result.converged and result.iterations > 10
        assert built == []


class TestPipelinedVariants:
    def test_pipelined_cg_matches_cg(self, poisson_small, rng):
        b = rng.standard_normal(poisson_small.n_rows)
        classic = cg(poisson_small, b, tol=1e-10, maxiter=800)
        pipelined = pipelined_cg(poisson_small, b, tol=1e-10, maxiter=800)
        assert pipelined.converged
        assert abs(pipelined.iterations - classic.iterations) <= 3
        assert relative_residual(poisson_small, pipelined.x, b) < 1e-9

    def test_pipelined_cg_overlap_counter(self, poisson_tiny, rng):
        b, x0 = rng.standard_normal(poisson_tiny.n_rows), np.full(poisson_tiny.n_rows, 0.5)
        result = pipelined_cg(poisson_tiny, b, x0, tol=1e-10)
        assert relative_residual(poisson_tiny, result.x, b) < 1e-9  # from a nonzero x0
        k = result.iterations
        assert result.info["overlapped_reductions"] == k  # one per step
        counts = result.info["kernels"]["counts"]  # the preamble's r and w, then one each per step
        assert (counts["matvec"], counts["preconditioner"]) == (k + 2, k + 1)
        assert pipelined_cg(poisson_tiny, b, maxiter=1).iterations == 1

    def test_pipelined_gmres_matches_gmres(self, convdiff_small, rng):
        b = rng.standard_normal(convdiff_small.n_rows)
        classic = gmres(convdiff_small, b, tol=1e-9, restart=40, maxiter=400)
        pipelined = pipelined_gmres(convdiff_small, b, tol=1e-9, restart=40, maxiter=400)
        assert pipelined.converged
        assert abs(pipelined.iterations - classic.iterations) <= 3
        assert relative_residual(convdiff_small, pipelined.x, b) < 1e-8

    def test_pipelined_gmres_fewer_reduction_waves(self, poisson_small, rng):
        b = rng.standard_normal(poisson_small.n_rows)
        result = pipelined_gmres(poisson_small, b, tol=1e-8, restart=30, maxiter=300)
        assert result.info["reduction_waves"] < result.info["mgs_equivalent_reductions"]

    def test_pipelined_gmres_runs_two_fused_waves_per_step(self, poisson_small, rng):
        # CGS2: every Arnoldi step projects twice, each projection one
        # fused reduction, where MGS would reduce once per coefficient
        # plus once for the norm.
        b = rng.standard_normal(poisson_small.n_rows)
        result = pipelined_gmres(poisson_small, b, tol=1e-8, restart=10, maxiter=300)
        assert result.converged and result.iterations > 10
        assert result.info["reduction_waves"] == 2 * result.iterations
        assert result.info["mgs_equivalent_reductions"] == sum(
            step % 10 + 2 for step in range(result.iterations)
        )

    def test_pipelined_cg_preconditioned(self, poisson_small, rng):
        b = rng.standard_normal(poisson_small.n_rows)
        result = pipelined_cg(poisson_small, b, tol=1e-10,
                              preconditioner=JacobiPreconditioner(poisson_small))
        assert result.converged

    @pytest.mark.parametrize("solver, kwargs, message", [
        (pipelined_gmres, dict(restart=0), "restart and maxiter must be positive"),
        (pipelined_gmres, dict(maxiter=0), "restart and maxiter must be positive"),
        (fgmres, dict(maxiter=-1), "restart and maxiter must be positive"),
        (pipelined_cg, dict(maxiter=0), "maxiter must be positive"),
    ])
    def test_scheme_refuses_a_bad_budget_before_the_operator_runs(
        self, poisson_tiny, solver, kwargs, message
    ):
        applied = []

        def operator(v):
            applied.append(1)
            return poisson_tiny.matvec(v)

        with pytest.raises(ValueError, match=message):
            solver(operator, np.ones(poisson_tiny.n_rows), **kwargs)
        assert applied == []


class TestFgmres:
    def test_unpreconditioned_equals_gmres(self, convdiff_small, rng):
        b = rng.standard_normal(convdiff_small.n_rows)
        result = fgmres(convdiff_small, b, tol=1e-9, restart=40, maxiter=400)
        assert result.converged
        assert relative_residual(convdiff_small, result.x, b) < 1e-8

    def test_inner_gmres_preconditioner(self, convdiff_small, rng):
        b = rng.standard_normal(convdiff_small.n_rows)

        def inner(v):
            return gmres(convdiff_small, v, tol=1e-2, restart=10, maxiter=10).x

        outer = fgmres(convdiff_small, b, tol=1e-9, restart=30, maxiter=60, inner_solve=inner)
        plain = gmres(convdiff_small, b, tol=1e-9, restart=30, maxiter=600)
        assert outer.converged
        assert outer.iterations < plain.iterations

    def test_discards_nonfinite_inner_results(self, poisson_small, rng):
        b = rng.standard_normal(poisson_small.n_rows)

        def broken_inner(v):
            out = np.array(v, copy=True)
            out[0] = np.nan
            return out

        result = fgmres(poisson_small, b, tol=1e-9, restart=40, maxiter=200,
                        inner_solve=broken_inner)
        assert result.converged
        assert relative_residual(poisson_small, result.x, b) < 1e-8

    def test_discards_zero_and_huge_inner_results(self, poisson_small, rng):
        b = rng.standard_normal(poisson_small.n_rows)
        calls = {"n": 0}

        def weird_inner(v):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                return np.zeros_like(np.asarray(v))
            if calls["n"] % 3 == 1:
                return np.asarray(v) * 1e200
            return np.array(v, copy=True)

        # Screening the 1e200-scaled inner result overflows its norm by design.
        with np.errstate(over="ignore"):
            result = fgmres(poisson_small, b, tol=1e-9, restart=40, maxiter=200,
                            inner_solve=weird_inner)
        assert result.converged

    def test_z_norm_bookkeeping(self, poisson_tiny, rng):
        b = rng.standard_normal(poisson_tiny.n_rows)
        result = fgmres(poisson_tiny, b, tol=1e-10, maxiter=50)
        assert len(result.info["z_norms"]) == result.iterations

    def test_validation(self, poisson_tiny):
        with pytest.raises(ValueError):
            fgmres(poisson_tiny, np.ones(poisson_tiny.n_rows), restart=0)


class TestDistributedSolvers:
    def test_distributed_cg_matches_sequential(self, poisson_small, rng):
        b_global = rng.standard_normal(poisson_small.n_rows)
        sequential = cg(poisson_small, b_global, tol=1e-10, maxiter=800)

        def program(comm):
            matrix = DistributedRowMatrix.from_global(comm, poisson_small)
            b = DistributedVector.from_global(comm, b_global)
            result = cg(matrix, b, tol=1e-10, maxiter=800)
            return result.converged, result.iterations, result.x.gather_global()

        for converged, iterations, x in run_spmd(4, program):
            assert converged
            assert iterations == sequential.iterations
            assert np.allclose(x, np.asarray(sequential.x), atol=1e-10)

    def test_distributed_gmres_matches_sequential(self, poisson_small, rng):
        b_global = rng.standard_normal(poisson_small.n_rows)
        sequential = gmres(poisson_small, b_global, tol=1e-8, restart=25, maxiter=300)

        def program(comm):
            matrix = DistributedRowMatrix.from_global(comm, poisson_small)
            b = DistributedVector.from_global(comm, b_global)
            result = gmres(matrix, b, tol=1e-8, restart=25, maxiter=300)
            return result.converged, result.iterations

        for converged, iterations in run_spmd(3, program):
            assert converged
            assert iterations == sequential.iterations

    def test_distributed_pipelined_cg(self, poisson_small, rng):
        b_global = rng.standard_normal(poisson_small.n_rows)

        def program(comm):
            matrix = DistributedRowMatrix.from_global(comm, poisson_small)
            b = DistributedVector.from_global(comm, b_global)
            result = pipelined_cg(matrix, b, tol=1e-9, maxiter=800)
            residual = np.linalg.norm(
                poisson_small.matvec(result.x.gather_global()) - b_global
            ) / np.linalg.norm(b_global)
            return result.converged, residual

        for converged, residual in run_spmd(4, program):
            assert converged and residual < 1e-8
