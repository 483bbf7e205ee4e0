"""Tests for the SkP (skeptical) and SRP (selective reliability) layers,
including the SDC-detecting GMRES and FT-GMRES."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import pytest

from repro.reliability import ArrayInjector, DeterministicSchedule
from repro.reliability.bitflip import flip_bit_array
from repro.krylov import ft_gmres
from repro.linalg import poisson_2d, convection_diffusion_2d
from repro.skeptical import (
    SkepticalAbort,
    finite_check,
    hessenberg_bound_check,
    monotonicity_check,
    orthogonality_check,
    residual_consistency_check,
    sdc_detecting_gmres,
)
from repro.reliability import (
    Region,
    ReliabilityCostModel,
    reliable,
    resolve_faults,
)


class TestChecks:
    def test_finite_check(self):
        assert finite_check(np.ones(5)).passed
        bad = finite_check(np.array([1.0, np.nan, np.inf]))
        assert not bad.passed and bad.measure == 2.0

    def test_orthogonality_check_detects_corruption(self, rng):
        basis = np.linalg.qr(rng.standard_normal((30, 6)))[0]
        assert orthogonality_check(basis).passed
        corrupted = basis.copy()
        corrupted[:, 2] *= 1.5
        assert not orthogonality_check(corrupted).passed

    def test_orthogonality_check_empty_basis(self):
        assert orthogonality_check(np.zeros((5, 0))).passed

    def test_hessenberg_bound_check(self):
        h = np.array([[1.0, 2.0], [0.5, 1.5], [0.0, 0.3]])
        assert hessenberg_bound_check(h, operator_norm_estimate=3.0).passed
        h_bad = h.copy()
        h_bad[0, 1] = 1e8
        assert not hessenberg_bound_check(h_bad, operator_norm_estimate=3.0).passed
        h_nan = h.copy()
        h_nan[1, 0] = np.nan
        assert not hessenberg_bound_check(h_nan, operator_norm_estimate=3.0).passed

    def test_residual_consistency(self):
        assert residual_consistency_check(1.0e-3, 1.0001e-3).passed
        assert not residual_consistency_check(1.0e-3, 1.0).passed
        assert not residual_consistency_check(float("nan"), 1.0).passed

    def test_monotonicity_check(self):
        assert monotonicity_check([1.0, 0.5, 0.25]).passed
        assert not monotonicity_check([1.0, 0.5, 5.0]).passed
        assert monotonicity_check([1.0]).passed
        assert not monotonicity_check([1.0, float("nan")]).passed

    @pytest.mark.parametrize("window", [0, -1, 1.5, True])
    def test_monotonicity_check_rejects_a_nonsensical_window(self, window):
        # window=-1 used to compare against the whole history and pass.
        with pytest.raises((ValueError, TypeError), match="window"):
            monotonicity_check([1.0, 0.5, 5.0], window=window)

    def test_orthogonality_check_rejects_negative_n_vectors(self):
        with pytest.raises(ValueError, match="n_vectors"):
            orthogonality_check(np.eye(3), n_vectors=-1)

    def test_check_result_is_immutable_and_truthy_on_passed(self):
        passed = finite_check(np.ones(3))
        failed = finite_check(np.array([np.nan]))
        assert passed and not failed
        assert bool(passed) is True and bool(failed) is False
        with pytest.raises(AttributeError):
            passed.passed = False
        with pytest.raises(AttributeError):
            failed.measure = 0.0
        with pytest.raises(TypeError):
            passed.details["k"] = 1


class TestSdcDetectingGmres:
    def test_fault_free_converges_without_detection(self, poisson_small, rng):
        b = rng.standard_normal(poisson_small.n_rows)
        result = sdc_detecting_gmres(poisson_small, b, tol=1e-8, restart=30, maxiter=400)
        assert result.converged
        assert result.detected_faults == 0

    def test_exponent_flip_detected_and_recovered(self, poisson_small, rng):
        b = rng.standard_normal(poisson_small.n_rows)
        injected = {"done": False}

        def fault_hook(state):
            if not injected["done"] and state.total_iteration == 5:
                target = np.asarray(state.basis[state.inner + 1])
                flip_bit_array(target, 3, 62, inplace=True)
                injected["done"] = True

        # The flipped exponent overflows the orthogonality Gram by design.
        with np.errstate(over="ignore"):
            result = sdc_detecting_gmres(
                poisson_small, b, tol=1e-8, restart=30, maxiter=600, iteration_hook=fault_hook
            )
        assert injected["done"]
        assert result.detected_faults >= 1
        assert result.converged
        residual = np.linalg.norm(poisson_small.matvec(np.asarray(result.x)) - b)
        assert residual / np.linalg.norm(b) < 1e-7

    def test_abort_policy_raises(self, poisson_small, rng):
        b = rng.standard_normal(poisson_small.n_rows)

        def fault_hook(state):
            if state.total_iteration == 3:
                np.asarray(state.basis[state.inner + 1])[0] = np.inf

        with pytest.raises(SkepticalAbort):
            sdc_detecting_gmres(poisson_small, b, tol=1e-8, maxiter=200,
                                iteration_hook=fault_hook, policy="abort")

    def test_invalid_policy(self, poisson_tiny):
        with pytest.raises(ValueError):
            sdc_detecting_gmres(poisson_tiny, np.ones(poisson_tiny.n_rows), policy="ignore")

    def test_invalid_policy_is_refused_before_the_operator_is_applied(self, poisson_tiny):
        # The norm estimate's matvecs would advance a fault-injecting
        # operator's random stream before the refusal.
        applied = []

        def operator(x):
            applied.append(1)
            return poisson_tiny.matvec(x)

        with pytest.raises(ValueError, match="policy"):
            sdc_detecting_gmres(operator, np.ones(poisson_tiny.n_rows), policy="ignore")
        assert applied == []

    def test_check_accounting(self, poisson_small, rng):
        b = rng.standard_normal(poisson_small.n_rows)
        result = sdc_detecting_gmres(poisson_small, b, tol=1e-8, restart=20, maxiter=200)
        assert result.info["checks_run"] > 0
        assert result.info["check_flops"] > 0


class _CountingHistory(Sequence):
    """A residual history that counts how many entries are read."""

    def __init__(self, values):
        self._values = list(values)
        self.reads = 0

    def __len__(self):
        return len(self._values)

    def __getitem__(self, index):
        picked = self._values[index]
        self.reads += len(picked) if isinstance(index, slice) else 1
        return picked


class TestCheckCostShape:
    """What the skeptical path costs, as counts rather than timings."""

    @pytest.mark.parametrize("window", [1, 3, 10])
    def test_monotonicity_reads_only_its_window(self, window):
        history = _CountingHistory(1.0 / (k + 1) for k in range(500))
        assert monotonicity_check(history, window=window).passed
        assert 2 <= history.reads <= window + 1

    def test_one_check_result_per_check_run(self, poisson_small, rng, monkeypatch):
        # The sweep decides every check without a result object; a
        # fault-free solve builds one only where the check function is
        # the decision, residual consistency.
        import repro.skeptical.checks as checks

        built = []

        class Counted(checks.CheckResult):
            def __new__(cls, *args, **kwargs):
                built.append(kwargs["name"])
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(checks, "CheckResult", Counted)
        b = rng.standard_normal(poisson_small.n_rows)
        result = sdc_detecting_gmres(poisson_small, b, tol=1e-8)
        assert result.converged and result.detected_faults == 0
        assert result.info["checks_run"] > 4 * result.iterations
        assert built == ["residual_consistency"] * (result.iterations // 10)

    def test_policy_observe_never_enters_the_import_machinery(self, monkeypatch):
        import builtins

        from repro.krylov.engine.core import GmresState
        from repro.krylov.ops import allocate_basis
        from repro.skeptical.gmres_sdc import SdcChecks, SdcPolicy

        n, m = 6, 4
        basis = allocate_basis(np.zeros(n), m + 1)
        for i in range(m + 1):
            basis.append(np.eye(n)[i])
        hessenberg = np.zeros((m + 1, m))
        checks = SdcChecks(1.0, check_period=1)
        # The 10th observation is the first at which all six checks are due.
        checks.observations = 9
        policy = SdcPolicy(checks, operator=None, b=np.ones(n), response="restart")
        imported = []
        real_import = builtins.__import__

        def spy(name, *args, **kwargs):
            imported.append(name)
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", spy)
        for k in range(3):
            policy.observe(GmresState(
                outer=0, inner=k, total_iteration=k + 1, basis=basis,
                hessenberg=hessenberg, residual_norm=1.0 / (k + 1),
            ))
        monkeypatch.undo()
        assert imported == []
        assert checks.residual_history == [1.0, 0.5, 1.0 / 3]
        assert (checks.observations, checks.checks_run, checks.detections) == (12, 14, 0)

    @pytest.mark.parametrize("seeds", [[2013], [2013, 2014]])
    def test_e1_estimates_the_operator_norm_once_per_scenario(self, seeds, monkeypatch):
        import repro.experiments.e1_sdc_detection as e1
        import repro.skeptical.gmres_sdc as gmres_sdc

        estimate = gmres_sdc.estimate_operator_norm
        calls = []

        def counted(operator, probe, *args, **kwargs):
            calls.append(probe.size)
            return estimate(operator, probe, *args, **kwargs)

        skeptical_solves = []
        batch_solve = e1.batch_solve

        def recorded(solver, *args, **kwargs):
            results = batch_solve(solver, *args, **kwargs)
            if solver == "sdc_gmres":
                skeptical_solves.extend(results)
            return results

        monkeypatch.setattr(gmres_sdc, "estimate_operator_norm", counted)
        monkeypatch.setattr(e1, "estimate_operator_norm", counted, raising=False)
        monkeypatch.setattr(e1, "batch_solve", recorded)
        golden = dict(e1.SPEC.golden)
        golden.pop("seed")
        e1.run_batch([dict(golden, seed=seed) for seed in seeds])
        monkeypatch.undo()

        grid, n_trials = golden["grid"], golden["n_trials"]
        # once per batch: the estimate reads only the size of ``b``
        assert calls == [grid * grid]
        assert len(skeptical_solves) == 4 * n_trials * len(seeds)
        # ... and it is the estimate each solve would have made on its own.
        own = estimate(poisson_2d(grid), np.empty(grid * grid))
        assert {r.info["operator_norm_estimate"] for r in skeptical_solves} == {own}


class TestSrp:
    def test_reliable_domain_never_corrupts(self):
        region = reliable()
        identity = region.preconditioner(None)
        for _ in range(10):
            data = identity(np.ones(64))
        assert np.all(data == 1.0)
        assert region.faults_injected() == 0

    def test_unreliable_domain_corrupts_per_schedule(self):
        region = Region(ArrayInjector(DeterministicSchedule([1.0, 2.0]), rng=0))
        identity = region.preconditioner(None)
        for now in (1.0, 2.0):
            region.now = now
            identity(np.ones(128))
        assert region.faults_injected() == 2

    def test_environment_summary_and_cost(self):
        region = resolve_faults("bitflip:p=0.0").environment(seed=0)
        region.operator(lambda x: x, flops_per_call=900.0)(np.ones(4))
        summary = region.summary(reliable_flops=100.0)
        assert summary["reliable_fraction_flops"] == pytest.approx(0.1)
        cost = region.cost_summary(reliable_flops=100.0)
        assert cost["all_reliable_cost"] == region.cost_model.execution_cost(1000.0, 0.0)
        assert cost["savings_factor"] == pytest.approx(
            region.cost_model.speedup_vs_all_reliable(100.0, 900.0)
        )
        assert cost["savings_factor"] > 1.0

    def test_environment_injects(self):
        region = resolve_faults("bitflip:p=1.0").environment(seed=3)
        region.operator(np.copy)(np.ones(32))
        assert region.faults_injected() == 1

    def test_cost_model(self):
        model = ReliabilityCostModel(reliable_compute_factor=3.0)
        assert model.execution_cost(10.0, 90.0) == pytest.approx(120.0)
        assert model.speedup_vs_all_reliable(10.0, 90.0) == pytest.approx(300.0 / 120.0)
        with pytest.raises(ValueError):
            ReliabilityCostModel(reliable_compute_factor=0.0)


class TestFtGmres:
    def test_fault_free_matches_plain(self, convdiff_small, rng):
        b = rng.standard_normal(convdiff_small.n_rows)
        result = ft_gmres(convdiff_small, b, tol=1e-8)
        assert result.converged
        residual = np.linalg.norm(convdiff_small.matvec(np.asarray(result.x)) - b)
        assert residual / np.linalg.norm(b) < 1e-7

    def test_converges_under_injection(self, convdiff_small, rng):
        b = rng.standard_normal(convdiff_small.n_rows)
        region = resolve_faults("bitflip:p=0.1").environment(seed=5)
        result = ft_gmres(convdiff_small, b, tol=1e-8, region=region,
                          outer_maxiter=40, inner_maxiter=12)
        assert result.converged
        residual = np.linalg.norm(convdiff_small.matvec(np.asarray(result.x)) - b)
        assert residual / np.linalg.norm(b) < 1e-7

    def test_most_work_is_unreliable(self, convdiff_small, rng):
        b = rng.standard_normal(convdiff_small.n_rows)
        region = resolve_faults("bitflip:p=0.05").environment(seed=2)
        result = ft_gmres(convdiff_small, b, tol=1e-8, region=region)
        assert result.info["unreliable_fraction_flops"] > 0.5
        assert result.info["srp_cost"]["savings_factor"] > 1.0

    def test_inner_solver_stats(self, poisson_small, rng):
        # One region timestamp per inner solve; its flops are the inner
        # matvecs, the outer ones are the reliable share.
        region = resolve_faults("bitflip:p=0.0").environment(seed=0)
        b = rng.standard_normal(poisson_small.n_rows)
        result = ft_gmres(poisson_small, b, inner_maxiter=5, region=region)
        assert region.now == len(result.info["z_norms"]) > 0
        assert region.flops == region.applications * 2.0 * poisson_small.nnz > 0
        summary = result.info["srp_summary"]
        assert summary["unreliable_flops"] == region.flops
        assert summary["reliable_flops"] > 0

    def test_fault_probability_validation(self):
        # ft_gmres names its faults by region, and building one refuses a bad p.
        with pytest.raises(ValueError, match="p must lie in"):
            resolve_faults("bitflip", p=1.5).environment(seed=0)

    @pytest.mark.parametrize("seed", [None, 1])
    def test_default_region_is_the_fault_free_one(self, seed):
        # The default equals the Bernoulli region at p = 0, whose seed
        # selects nothing: same iterations, iterate and SRP accounting.
        matrix = convection_diffusion_2d(10, peclet=8.0)
        b = np.random.default_rng(4).standard_normal(matrix.n_rows)
        default = ft_gmres(matrix, b, tol=1e-8)
        zero = ft_gmres(matrix, b, tol=1e-8,
                        region=resolve_faults("bitflip:p=0").environment(seed=seed))
        assert default.iterations == zero.iterations
        assert np.array_equal(default.x, zero.x)
        for key in ("srp_summary", "srp_cost"):
            assert default.info[key] == zero.info[key]
