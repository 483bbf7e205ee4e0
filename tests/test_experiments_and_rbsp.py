"""Smoke and claim tests for the experiment drivers and the RBSP helpers.

Each experiment is run in a reduced configuration; the assertions check
the *qualitative* claim recorded in EXPERIMENTS.md (who wins, in which
direction), not absolute numbers.
"""

from __future__ import annotations

import warnings

import pytest

from repro.campaign.spec import canonical_json
from repro.experiments import (
    backend_probe,
    e1_sdc_detection,
    e2_abft,
    e3_pipelined,
    e4_lflr_vs_cpr,
    e5_coarse_recovery,
    e6_ftgmres,
    e7_efficiency,
)
from repro.experiments.common import ExperimentResult
from repro.machine import EccStallNoise, MachineModel
from repro.rbsp import (
    IterationTimeModel,
    pipelined_iteration_time,
    scaling_study,
    synchronous_iteration_time,
)


def _rows(table):
    """The table's rows as ``{column: value}`` dicts."""
    return [dict(zip(table.columns, row)) for row in table.rows]


class TestRbspHelpers:
    def test_iteration_time_model_validation(self):
        with pytest.raises(ValueError):
            IterationTimeModel(local_flops=1.0, pipeline_waves=0)
        with pytest.raises(ValueError):
            IterationTimeModel(local_flops=1.0, overlap_fraction=2.0)

    def test_pipelined_never_slower_than_synchronous(self):
        noise = EccStallNoise(10.0, 50e-6, rng=0)
        machine = MachineModel.leadership_class(noise=noise)
        model = IterationTimeModel(local_flops=2e5, n_reductions=3, pipeline_waves=1)
        for p in (16, 1024, 65536):
            sync = synchronous_iteration_time(machine, model, p)
            pipe = pipelined_iteration_time(machine, model, p)
            assert pipe <= sync

    def test_scaling_study_table_shape(self):
        machine = MachineModel.leadership_class()
        model = IterationTimeModel(local_flops=1e5)
        table = scaling_study(machine, model, (4, 64, 1024))
        assert len(table) == 3
        assert table.column("ranks") == [4, 64, 1024]
        with pytest.raises(ValueError):
            scaling_study(machine, model, ())


class TestExperimentE1:
    def test_skeptical_eliminates_sdc_and_crash_for_severe_flips(self):
        result = e1_sdc_detection.run(grid=12, n_trials=4, inject_at=6)
        assert isinstance(result, ExperimentResult)
        rows = _rows(result.table)
        for row in rows:
            if row["solver"] == "skeptical" and row["bit_class"] in ("exponent", "sign"):
                assert row["sdc"] == 0.0
                assert row["crash"] == 0.0
                assert row["detected"] > 0.0
        # Plain GMRES must never be credited with detection.
        assert all(row["detected"] == 0.0 for row in rows if row["solver"] == "plain")
        assert "baseline_iterations" in result.summary

    def test_rejects_non_positive_trials_before_solving(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before validating n_trials")

        monkeypatch.setattr(e1_sdc_detection, "batch_solve", no_solve)
        for n_trials in (0, -1):
            with pytest.raises(ValueError, match="n_trials must be positive"):
                e1_sdc_detection.run(grid=6, n_trials=n_trials)


class TestExperimentE2:
    def test_detection_and_correction_dominate(self):
        result = e2_abft.run(sizes=(16,), n_trials=15)
        rows = [r for r in _rows(result.table) if r["kernel"] == "matmul"]
        for row in rows:
            assert row["detection_rate"] >= 0.5
            assert row["correction_rate"] == row["detection_rate"]
            assert row["false_positive_rate"] == 0.0
            assert row["checksum_overhead"] < 0.5


class TestExperimentE3:
    def test_pipelined_wins_and_gap_grows_with_scale(self):
        result = e3_pipelined.run(rank_counts=(16, 1024, 65536))
        speedups = result.table.column("speedup")
        assert all(s >= 1.0 for s in speedups)
        assert speedups[-1] > 1.5
        # Convergence is not traded away: iteration counts match closely.
        assert abs(result.summary["cg_iterations"]
                   - result.summary["pipelined_cg_iterations"]) <= 3
        assert (result.summary["pipe_efficiency_at_largest_p"]
                > result.summary["sync_efficiency_at_largest_p"])


class TestExperimentE4:
    def test_lflr_correct_and_cheaper_than_cpr(self):
        result = e4_lflr_vs_cpr.run(n_ranks=4, n_global=40, n_steps=25,
                                    failure_counts=(0, 1))
        rows = {row["n_failures"]: row for row in _rows(result.table)}
        assert rows[0]["lflr_correct"] and rows[1]["lflr_correct"]
        assert rows[1]["lflr_recoveries"] == 1
        assert rows[1]["cpr_restarts"] == 1
        # The paper's claim: local recovery costs much less than a global
        # restart with recomputation.
        assert rows[1]["overhead_ratio"] > 1.0


class TestExperimentE5:
    def test_coarse_model_beats_naive_bootstraps(self):
        result = e5_coarse_recovery.run(n_points=96, coarsening_factors=(4,))
        summary = result.summary
        assert summary["coarse_4_error"] < summary["zero_bootstrap_error"]
        assert summary["coarse_4_error"] < summary["neighbor_average_error"]
        assert summary["coarse_4_extra_iters"] <= summary["zero_bootstrap_extra_iters"]


class TestExperimentE6:
    def test_ftgmres_converges_under_faults_with_unreliable_bulk(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = e6_ftgmres.run(grid=10, fault_probabilities=(0.0, 0.1),
                                    n_trials=2)
        assert result.summary["ftgmres_0.1_converged"] == 1.0
        assert result.summary["ftgmres_0.1_unreliable_fraction"] > 0.5


@pytest.mark.parametrize("driver, solver, solve_kwargs", [
    (e3_pipelined, "cg", {"maxiter": 2000}),
    (e6_ftgmres, "gmres", {"maxiter": 400, "restart": 10}),
], ids=["E3", "E6"])
def test_backend_section_is_the_distributed_anchor(driver, solver, solve_kwargs):
    # The backend= branch stores the SPMD anchor and nothing measured,
    # so the result replays byte for byte.
    params = dict(driver.SPEC.smoke, backend="sim:procs=2")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        first, second = (driver.run(**params) for _ in range(2))
    assert first.summary["backend"] == {
        "spec": "sim:procs=2",
        "anchor": backend_probe.distributed_solve(
            "sim:procs=2", solver, grid=params["grid"], tol=1e-8, seed=2013,
            **solve_kwargs,
        ),
    }
    assert canonical_json(first.to_dict()) == canonical_json(second.to_dict())


class TestExperimentE7:
    def test_backend_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            e7_efficiency.run(backend="sim")

    def test_cpr_collapses_while_lflr_stays_high(self):
        result = e7_efficiency.run(node_counts=(1_000, 100_000, 1_000_000))
        assert result.summary["cpr_eff_1000"] > result.summary["cpr_eff_1000000"]
        assert result.summary["lflr_eff_1000000"] > 0.9
        assert result.summary["lflr_eff_1000000"] > result.summary["cpr_eff_1000000"]
        assert result.summary["cpr_below_half_at_nodes"] > 0

    def test_render_contains_table(self):
        result = e7_efficiency.run(node_counts=(1_000,))
        text = result.render()
        assert "E7" in text and "cpr_efficiency" in text
