"""Tests for repro.machine (model, noise, collective costs, efficiency)."""

from __future__ import annotations

import pytest

from repro.machine import (
    EccStallNoise,
    MachineModel,
    NoNoise,
    collective_time,
    cpr_efficiency,
    daly_optimal_interval,
    efficiency_crossover_mtbf,
    lflr_efficiency,
)


class TestMachineModel:
    def test_compute_time_scales_with_flops(self):
        machine = MachineModel(flop_rate=1e9)
        assert machine.compute_time(1e9) == pytest.approx(1.0)
        assert machine.compute_time(0.0) == 0.0

    def test_message_time_alpha_beta(self):
        machine = MachineModel(latency=1e-6, bandwidth=1e9)
        assert machine.message_time(0) == pytest.approx(1e-6)
        assert machine.message_time(1e9) == pytest.approx(1.0 + 1e-6)

    def test_checkpoint_time(self):
        machine = MachineModel(checkpoint_bandwidth=1e6, restart_overhead=2.0)
        assert machine.checkpoint_time(1e6) == pytest.approx(1.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            MachineModel(flop_rate=0.0)
        with pytest.raises(ValueError):
            MachineModel(bandwidth=-1.0)
        with pytest.raises(TypeError):
            MachineModel(noise="loud")

    def test_convenience_constructors(self):
        assert MachineModel.ideal().latency == 0.0
        assert MachineModel.leadership_class().collective_latency_factor > 1.0

    def test_noise_is_added_to_compute(self):
        noisy = MachineModel(flop_rate=1e9, noise=EccStallNoise(1e6, 1e-3, rng=0))
        base = MachineModel(flop_rate=1e9)
        samples = [noisy.compute_time(1e6) for _ in range(50)]
        assert max(samples) > base.compute_time(1e6)


class TestNoiseModels:
    def test_no_noise(self):
        assert NoNoise().sample(1.0) == 0.0
        assert NoNoise().mean_overhead(1.0) == 0.0

    def test_ecc_stall_scales_with_interval(self):
        noise = EccStallNoise(event_rate=100.0, stall=1e-3, rng=0)
        assert noise.mean_overhead(2.0) == pytest.approx(0.2)
        assert noise.sample(0.0) == 0.0


class TestCollectiveCosts:
    def test_allreduce_log_scaling(self):
        machine = MachineModel(latency=1e-6, bandwidth=1e9)
        t2 = collective_time(machine, 2, 8)
        t1024 = collective_time(machine, 1024, 8)
        assert t1024 == pytest.approx(10 * t2, rel=1e-6)

    def test_single_rank_collectives_free(self):
        machine = MachineModel()
        assert collective_time(machine, 1, 8) == 0.0
        assert collective_time(machine, 1, 0) == 0.0

    def test_barrier_is_zero_byte_allreduce(self):
        machine = MachineModel()
        alpha = machine.latency * machine.collective_latency_factor
        assert collective_time(machine, 64, 0) == 6 * alpha

    def test_collective_latency_factor(self):
        slow = MachineModel(latency=1e-6, collective_latency_factor=2.0)
        fast = MachineModel(latency=1e-6, collective_latency_factor=1.0)
        assert collective_time(slow, 16, 8) > collective_time(fast, 16, 8)


class TestEfficiencyModels:
    def test_daly_interval_monotone_in_mtbf(self):
        short = daly_optimal_interval(60.0, 3600.0)
        long = daly_optimal_interval(60.0, 360000.0)
        assert long > short

    def test_daly_degenerate_regime(self):
        assert daly_optimal_interval(100.0, 10.0) == 100.0

    def test_cpr_efficiency_decreases_with_failure_rate(self):
        high_mtbf = cpr_efficiency(60.0, 1e6)
        low_mtbf = cpr_efficiency(60.0, 1e3)
        assert 0 <= low_mtbf < high_mtbf <= 1.0

    def test_cpr_efficiency_zero_floor(self):
        assert cpr_efficiency(300.0, 400.0, restart_time=600.0) == 0.0

    def test_lflr_efficiency_bounds_and_monotonicity(self):
        assert lflr_efficiency(1.0, 1e6) <= 1.0
        assert lflr_efficiency(1.0, 100.0) < lflr_efficiency(1.0, 1e5)
        with pytest.raises(ValueError):
            lflr_efficiency(1.0, 100.0, redundancy_overhead=1.5)

    def test_lflr_beats_cpr_at_low_mtbf(self):
        mtbf = 600.0  # ten minutes
        assert lflr_efficiency(2.0, mtbf) > cpr_efficiency(300.0, mtbf, 600.0)

    def test_crossover_is_bracketed(self):
        crossover = efficiency_crossover_mtbf(300.0, 2.0, 600.0)
        assert 1.0 <= crossover <= 1e9

    def test_efficiencies_meet_at_the_crossover(self):
        crossover = efficiency_crossover_mtbf(300.0, 2.0, 600.0)
        assert cpr_efficiency(300.0, crossover, 600.0) == pytest.approx(
            lflr_efficiency(2.0, crossover), rel=1e-5
        )
        # LFLR wins below the crossover, CPR above it.
        assert lflr_efficiency(2.0, crossover / 2) > cpr_efficiency(300.0, crossover / 2, 600.0)
        assert cpr_efficiency(300.0, crossover * 2, 600.0) > lflr_efficiency(2.0, crossover * 2)

    def test_crossover_clamps_to_the_bracket_floor(self):
        # A checkpoint that costs nothing: CPR is at least as good
        # everywhere in [1, 1e9] s, so the crossover is the floor.
        assert efficiency_crossover_mtbf(1e-9, 2.0, redundancy_overhead=0.5) == 1.0
