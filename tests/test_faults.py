"""Tests for the reliability-layer mechanisms (bit flips, schedules, injectors, process failures)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.reliability import (
    ArrayInjector,
    BernoulliPerCallSchedule,
    DeterministicSchedule,
    ExponentialFailureModel,
    FailurePlan,
    NeverSchedule,
    PoissonSchedule,
    WeibullFailureModel,
    bits_of,
    flip_bit_array,
    flip_bit_float64,
    flip_random_bit,
    relative_perturbation,
)
from repro.experiments.common import classify_outcome
from repro.reliability.process import system_mtbf


class TestBitflip:
    def test_roundtrip_bits(self):
        value = 3.14159
        assert np.array(bits_of(value), dtype=np.uint64).view(np.float64)[()] == value

    def test_flip_is_involution(self):
        value = -42.5
        for bit in (0, 13, 52, 60, 63):
            flipped = flip_bit_float64(value, bit)
            assert flipped != value
            assert flip_bit_float64(flipped, bit) == value

    def test_sign_bit_flip_negates(self):
        assert flip_bit_float64(2.0, 63) == -2.0

    def test_mantissa_flip_small_relative_error(self):
        corrupted = flip_bit_float64(1.0, 0)
        assert abs(corrupted - 1.0) < 1e-15

    def test_exponent_flip_large_error(self):
        corrupted = flip_bit_float64(1.0, 62)
        assert relative_perturbation(1.0, corrupted) > 1e10 or corrupted == 0.0

    def test_invalid_bit_rejected(self):
        with pytest.raises(ValueError):
            flip_bit_float64(1.0, 64)
        with pytest.raises(ValueError):
            flip_bit_float64(1.0, -1)

    def test_flip_bit_array_out_of_place(self):
        arr = np.ones(4)
        out = flip_bit_array(arr, 2, 63)
        assert out[2] == -1.0
        assert arr[2] == 1.0

    def test_flip_bit_array_inplace(self):
        arr = np.ones(4)
        flip_bit_array(arr, 1, 63, inplace=True)
        assert arr[1] == -1.0

    def test_flip_bit_array_multi_index(self):
        arr = np.ones((2, 3))
        out = flip_bit_array(arr, (1, 2), 63)
        assert out[1, 2] == -1.0

    def test_flip_bit_array_float32_native(self):
        arr = np.ones(3, dtype=np.float32)
        out = flip_bit_array(arr, 1, 31)
        assert out.dtype == np.float32
        assert out[1] == -1.0
        assert arr[1] == 1.0  # out of place by default
        # Involution through the 32-bit pattern.
        assert flip_bit_array(out, 1, 31)[1] == 1.0

    def test_flip_bit_array_float32_bit_bounds(self):
        with pytest.raises(ValueError):
            flip_bit_array(np.ones(3, dtype=np.float32), 0, 32)

    def test_flip_bit_array_rejects_non_float(self):
        with pytest.raises(TypeError):
            flip_bit_array(np.ones(3, dtype=np.int64), 0, 1)
        with pytest.raises(TypeError):
            flip_bit_array(np.ones(3, dtype=np.float16), 0, 1)

    def test_flip_bit_array_inplace_non_contiguous(self):
        base = np.ones((4, 4))
        flip_bit_array(base.T[:, :3], (2, 1), 63, inplace=True)
        assert base[1, 2] == -1.0
        assert np.sum(base != 1.0) == 1

    def test_flip_bit_array_bounds(self):
        with pytest.raises(IndexError):
            flip_bit_array(np.ones(3), 5, 1)

    def test_flip_random_bit_deterministic_with_seed(self):
        arr = np.linspace(1, 2, 8)
        out1, idx1, bit1 = flip_random_bit(arr, rng=3)
        out2, idx2, bit2 = flip_random_bit(arr, rng=3)
        assert idx1 == idx2 and bit1 == bit2
        assert np.array_equal(out1, out2)

    def test_flip_random_bit_range_respected(self):
        arr = np.ones(16)
        _, _, bit = flip_random_bit(arr, rng=1, bit_range=(52, 62))
        assert 52 <= bit <= 62

    def test_flip_random_bit_empty_rejected(self):
        with pytest.raises(ValueError):
            flip_random_bit(np.zeros(0))

    def test_relative_perturbation_nonfinite(self):
        assert relative_perturbation(1.0, float("inf")) == float("inf")
        assert relative_perturbation(1.0, float("nan")) == float("inf")


class TestSchedules:
    def test_never(self):
        schedule = NeverSchedule()
        assert schedule.due(1e9) == 0

    def test_deterministic_fires_once_each(self):
        schedule = DeterministicSchedule([1.0, 2.0, 2.0])
        assert schedule.due(0.5) == 0
        assert schedule.due(1.0) == 1
        assert schedule.due(3.0) == 2
        assert schedule.due(10.0) == 0

    def test_deterministic_rejects_negative(self):
        with pytest.raises(ValueError):
            DeterministicSchedule([-1.0])

    def test_poisson_zero_rate_never_fires(self):
        schedule = PoissonSchedule(0.0, rng=1)
        assert schedule.due(1e6) == 0

    def test_poisson_counts_grow_with_rate(self):
        low = PoissonSchedule(0.1, rng=1, horizon=100.0)
        high = PoissonSchedule(10.0, rng=1, horizon=100.0)
        assert high.due(100.0) > low.due(100.0)

    def test_poisson_lazy_mode(self):
        schedule = PoissonSchedule(1.0, rng=5)
        total = schedule.due(50.0)
        assert 10 <= total <= 120  # loose statistical bounds

    def test_bernoulli_probability_zero_and_one(self):
        assert BernoulliPerCallSchedule(0.0, rng=1).due(0) == 0
        always = BernoulliPerCallSchedule(1.0, rng=1)
        assert always.due(0) == 1

    def test_bernoulli_max_faults(self):
        schedule = BernoulliPerCallSchedule(1.0, rng=1, max_faults=2)
        assert sum(schedule.due(i) for i in range(10)) == 2


class TestInjectors:
    def test_array_injector_never_by_default(self):
        arr = np.ones(10)
        ArrayInjector().maybe_inject(arr)
        assert np.all(arr == 1.0)

    def test_array_injector_injects_on_schedule(self):
        injector = ArrayInjector(DeterministicSchedule([1.0]), rng=2, target="v")
        arr = np.ones(10)
        injector.maybe_inject(arr, now=1.0)
        assert injector.n_injected == 1
        assert np.sum(arr != 1.0) == 1
        event = injector.events[0]
        assert event.target == "v" and event.kind == "bitflip"

    def test_array_injector_bit_range(self):
        injector = ArrayInjector(DeterministicSchedule([0.0]), rng=3, bit_range=(63, 63))
        arr = np.ones(5)
        injector.maybe_inject(arr, now=0.0)
        assert np.sum(arr == -1.0) == 1

    def test_array_injector_float32_native(self):
        injector = ArrayInjector(DeterministicSchedule([0.0]), rng=1)
        arr = np.ones(5, dtype=np.float32)
        out = injector.maybe_inject(arr, now=0.0)
        assert out.dtype == np.float32
        assert injector.n_injected == 1
        assert np.sum(out != 1.0) == 1
        assert 0 <= injector.events[0].bit <= 31

    def test_array_injector_float32_clamps_bit_range(self):
        # A float64-centric exponent range keeps working on float32 by
        # clamping into the 32-bit pattern (here: the sign bit).
        injector = ArrayInjector(
            DeterministicSchedule([0.0]), rng=3, bit_range=(52, 62)
        )
        arr = np.ones(5, dtype=np.float32)
        injector.maybe_inject(arr, now=0.0)
        assert np.sum(arr == -1.0) == 1

    def test_array_injector_flips_non_contiguous_views(self):
        # The flip must land in the caller's memory, and the event must
        # describe what happened to it.
        base = np.ones((4, 4))
        sub = base[:, :2]
        injector = ArrayInjector(DeterministicSchedule([0.0]), 0, bit_range=(62, 62))
        injector.maybe_inject(sub, now=1.0)
        assert injector.n_injected == 1
        assert np.sum(base != 1.0) == 1
        assert np.sum(base[:, 2:] != 1.0) == 0
        event = injector.events[0]
        assert sub.flat[event.location] == np.inf
        assert event.magnitude == np.inf

    def test_array_injector_rejects_non_float(self):
        injector = ArrayInjector(DeterministicSchedule([0.0]), rng=1)
        with pytest.raises(TypeError):
            injector.maybe_inject(np.ones(3, dtype=np.int32), now=0.0)



class TestProcessFailureModels:
    def test_exponential_mean(self):
        model = ExponentialFailureModel(100.0)
        assert model.node_mtbf() == 100.0
        rng = np.random.default_rng(0)
        samples = [model.sample_interarrival(rng) for _ in range(2000)]
        assert abs(np.mean(samples) - 100.0) / 100.0 < 0.1

    def test_weibull_mean_matches_formula(self):
        model = WeibullFailureModel(scale=100.0, shape=1.0)
        assert abs(model.node_mtbf() - 100.0) < 1e-9

    def test_system_mtbf_scales_inversely(self):
        assert system_mtbf(1000.0, 10) == 100.0
        with pytest.raises(ValueError):
            system_mtbf(1000.0, 0)

    def test_failure_plan_sampling(self):
        model = ExponentialFailureModel(5.0)
        plan = FailurePlan.sample(model, n_ranks=4, horizon=20.0, rng=1)
        assert all(f.time <= 20.0 for f in plan)
        assert all(0 <= f.rank < 4 for f in plan)
        # sorted by time
        times = [f.time for f in plan]
        assert times == sorted(times)

    def test_failure_plan_single_and_none(self):
        single = FailurePlan.single(1.0, 2)
        assert [(f.time, f.rank) for f in single] == [(1.0, 2)]
        assert single.failures_for_rank(0) == []
        assert len(FailurePlan.none()) == 0

    def test_failure_plan_queries(self):
        plan = FailurePlan([(1.0, 0), (2.0, 1), (3.0, 0)])
        assert [f.time for f in plan.failures_for_rank(0)] == [1.0, 3.0]

    def test_failure_plan_max_failures(self):
        model = ExponentialFailureModel(1.0)
        plan = FailurePlan.sample(model, 4, 50.0, rng=0, max_failures=3)
        assert len(plan) == 3

    def test_failure_plan_validation(self):
        with pytest.raises(ValueError):
            FailurePlan([(-1.0, 0)])
        with pytest.raises(ValueError):
            FailurePlan([(1.0, -2)])


class TestSdcClassification:
    def test_outcomes(self):
        assert classify_outcome(converged=True, error_norm=1e-10, tolerance=1e-6,
                                detected=False) == "benign"
        assert classify_outcome(converged=True, error_norm=1e-10, tolerance=1e-6,
                                detected=True) == "detected"
        assert classify_outcome(converged=True, error_norm=1.0, tolerance=1e-6,
                                detected=False) == "sdc"
        assert classify_outcome(converged=False, error_norm=1.0, tolerance=1e-6,
                                detected=False) == "crash"

    def test_nonfinite_error_is_never_benign(self):
        outcome = classify_outcome(converged=True, error_norm=float("nan"),
                                   tolerance=1e-6, detected=False)
        assert outcome == "sdc"
