"""Tests for the PDE substrate, LFLR store/manager/driver, coarse-model
recovery and the checkpoint/restart baseline."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.checkpoint import CheckpointStore, run_cpr_stepped
from repro.reliability import FailurePlan
from repro.lflr import (
    CoarseModelStore,
    PersistentStore,
    prolong_field,
    restrict_field,
    run_lflr_heat,
)
from repro.machine import MachineModel
from repro.pde import (
    Grid1D,
    HeatProblem1D,
    ImplicitHeatProblem1D,
    backward_euler_matrix,
    gaussian_initial_condition,
    heat_step_distributed,
    heat_step_explicit,
    partition_interval,
    stable_time_step,
)
from repro.comm.sim import run_spmd


#: A commodity InfiniBand cluster, roughly: CPR's checkpoint and restart
#: costs are non-trivial on it.
CLUSTER = MachineModel(flop_rate=5.0e9, latency=2.0e-6, bandwidth=5.0e9)


@pytest.fixture
def lflr_machine():
    """Machine with tiny recovery overhead so failure tests stay fast."""
    return MachineModel(
        flop_rate=1e9, latency=1e-7, bandwidth=1e9,
        local_recovery_overhead=1e-5, restart_overhead=1e-3,
    )


class TestGrid:
    def test_partition_covers_and_balances(self):
        ranges = partition_interval(10, 3)
        assert ranges[0] == (0, 4) and ranges[-1] == (7, 10)
        with pytest.raises(ValueError):
            partition_interval(2, 4)

    def test_sequential_grid_spans_domain(self):
        grid = Grid1D(None, 16)
        assert grid.n_local == 16
        assert grid.exchange_halos(np.ones(16)) == (0.0, 0.0)

    def test_distributed_halo_exchange(self):
        n_global = 12

        def program(comm):
            grid = Grid1D(comm, n_global)
            u = np.full(grid.n_local, float(comm.rank))
            left, right = grid.exchange_halos(u)
            return comm.rank, left, right

        results = run_spmd(3, program)
        assert results[0] == (0, 0.0, 1.0)
        assert results[1] == (1, 0.0, 2.0)
        assert results[2] == (2, 1.0, 0.0)

    def test_gather_field(self):
        def program(comm):
            grid = Grid1D(comm, 9)
            u = grid.local_coordinates()
            return grid.gather_field(u)

        full = run_spmd(3, program)[0]
        assert np.allclose(full, (np.arange(9) + 1) / 10.0)

    def test_wrong_local_length_rejected(self):
        grid = Grid1D(None, 8)
        with pytest.raises(ValueError):
            grid.exchange_halos(np.ones(5))


def total_heat(problem) -> float:
    """The discrete total of a heat field, ``h * sum(u)``."""
    return float(problem.u.sum() * problem.h)


class TestHeat:
    def test_stable_step_formula(self):
        assert stable_time_step(0.1, 1.0, safety=1.0) == pytest.approx(0.005)

    def test_explicit_step_decays_and_stays_bounded(self):
        problem = HeatProblem1D(n_points=64)
        initial_max = problem.u.max()
        problem.step(50)
        assert 0 < problem.u.max() < initial_max
        assert np.all(problem.u >= -1e-12)

    def test_total_heat_decreases_monotonically(self):
        problem = HeatProblem1D(n_points=64)
        totals = [total_heat(problem)]
        for _ in range(5):
            problem.step(10)
            totals.append(total_heat(problem))
        assert all(totals[i + 1] <= totals[i] + 1e-15 for i in range(5))

    def test_distributed_step_matches_sequential(self):
        n_global, n_steps = 24, 15
        problem = HeatProblem1D(n_points=n_global)
        dt = problem.dt
        expected = problem.run(n_steps)

        def program(comm):
            grid = Grid1D(comm, n_global)
            u = gaussian_initial_condition(grid.local_coordinates())
            for _ in range(n_steps):
                u = heat_step_distributed(grid, u, dt, 1.0)
            return grid.gather_field(u)

        for field in run_spmd(4, program):
            assert np.allclose(field, expected, atol=1e-13)

    def test_explicit_step_is_the_dirichlet_stencil(self, rng):
        # Homogeneous Dirichlet boundaries: u + dt * alpha * L u with the
        # second-difference matrix L that drops the outside neighbours.
        u = rng.standard_normal(9)
        dt, h, alpha = 1e-3, 0.1, 2.0
        laplacian = (np.diag(np.full(8, 1.0), -1) - 2.0 * np.eye(9)
                     + np.diag(np.full(8, 1.0), 1)) / (h * h)
        np.testing.assert_allclose(
            heat_step_explicit(u, dt, h, alpha), u + dt * alpha * (laplacian @ u),
            rtol=1e-14, atol=1e-14,
        )

    def test_gaussian_initial_condition_is_centred_with_width_a_tenth(self):
        values = gaussian_initial_condition([0.5, 0.4, 0.6, 0.3])
        np.testing.assert_allclose(
            values, [1.0, np.exp(-0.5), np.exp(-0.5), np.exp(-2.0)], rtol=1e-12
        )

    def test_step_records_history(self):
        problem = HeatProblem1D(n_points=16)
        problem.step(3, record=True)
        assert len(problem.history) == 3

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HeatProblem1D(n_points=0)
        with pytest.raises(ValueError):
            heat_step_explicit(np.ones(4), dt=-1.0, h=0.1, alpha=1.0)

    def test_total_heat_changes_by_the_boundary_flux(self):
        # Zero Dirichlet boundaries: each forward-Euler step changes the
        # total by exactly the boundary flux -dt * alpha * (u_1 + u_n) / h.
        problem = HeatProblem1D(n_points=64)
        before = total_heat(problem)
        flux = 0.0
        for _ in range(10):
            flux -= problem.dt * problem.alpha * (problem.u[0] + problem.u[-1]) / problem.h
            problem.step()
        after = total_heat(problem)
        assert after == pytest.approx(before + flux, rel=1e-8)
        assert after != pytest.approx(before, rel=1e-8)


class TestImplicitHeat:
    def test_matrix_is_spd_and_identity_plus_laplacian(self):
        matrix = backward_euler_matrix(10, dt=1e-3, alpha=1.0)
        dense = matrix.to_dense()
        assert np.allclose(dense, dense.T)
        assert np.all(np.linalg.eigvalsh(dense) >= 1.0 - 1e-12)

    def test_implicit_step_stable_with_large_dt(self):
        problem = ImplicitHeatProblem1D(n_points=64, dt=0.05)
        problem.step(5)
        assert np.all(np.isfinite(problem.u))
        assert problem.u.max() <= 1.0 + 1e-12

    def test_implicit_matches_explicit_for_small_dt(self):
        n = 32
        h = 1.0 / (n + 1)
        dt = stable_time_step(h, 1.0) / 4
        explicit = HeatProblem1D(n_points=n, dt=dt)
        implicit = ImplicitHeatProblem1D(n_points=n, dt=dt)
        explicit.step(20)
        implicit.step(20)
        assert np.allclose(explicit.u, implicit.u, atol=5e-3)

    def test_cg_iterations_recorded(self):
        problem = ImplicitHeatProblem1D(n_points=32, dt=1e-3)
        problem.step(3)
        assert len(problem.cg_iterations) == 3


class TestCoarseModel:
    def test_restrict_prolong_roundtrip_smooth_field(self):
        x = np.linspace(0, 1, 64)
        field = np.sin(np.pi * x)
        coarse = restrict_field(field, 4)
        rebuilt = prolong_field(coarse, 64, 4)
        assert np.max(np.abs(rebuilt - field)) < 0.1

    def test_restrict_factor_one_identity(self):
        field = np.arange(10.0)
        assert np.array_equal(restrict_field(field, 1), field)

    def test_prolong_edge_cases(self):
        assert prolong_field(np.zeros(0), 4, 2).shape == (4,)
        assert np.allclose(prolong_field(np.array([3.0]), 5, 2), 3.0)
        assert prolong_field(np.array([1.0, 2.0]), 0, 2).shape == (0,)

    def test_store_recover_and_overhead(self):
        store = CoarseModelStore(factor=4)
        field = np.sin(np.linspace(0, 3, 32))
        store.store(owner=2, field=field, step=5)
        rebuilt = store.recover(owner=2)
        assert rebuilt.shape == field.shape
        assert np.max(np.abs(rebuilt - field)) < 0.25
        assert store.memory_overhead(2) == pytest.approx(8 / 32)
        assert store.recover(owner=7) is None

    def test_better_than_zero_bootstrap(self):
        field = np.sin(np.linspace(0, 3, 64)) + 1.0
        store = CoarseModelStore(factor=8)
        store.store(owner=0, field=field)
        rebuilt = store.recover(owner=0)
        assert np.linalg.norm(rebuilt - field) < np.linalg.norm(field)

    def test_validation(self):
        with pytest.raises(ValueError):
            CoarseModelStore(factor=0)
        with pytest.raises(ValueError):
            restrict_field(np.ones((2, 2)), 2)


class TestPersistentStore:
    def test_persist_and_mirror_roundtrip(self):
        def program(comm):
            store = PersistentStore(comm, history=3)
            store.persist(0, {"u": np.full(4, float(comm.rank))})
            store.persist(1, {"u": np.full(4, 10.0 + comm.rank)})
            latest = store.own_at_step(1)
            mirrored = store.mirrored_latest(store.mirror_source)
            return (
                latest.step,
                float(latest.state["u"][0]),
                mirrored.step,
                float(mirrored.state["u"][0]),
            )

        results = run_spmd(3, program)
        for rank, (own_step, own_val, mir_step, mir_val) in enumerate(results):
            assert own_step == 1 and own_val == 10.0 + rank
            source = (rank - 1) % 3
            assert mir_step == 1 and mir_val == 10.0 + source

    def test_history_bounded_and_step_lookup(self):
        def program(comm):
            store = PersistentStore(comm, history=2)
            for step in range(4):
                store.persist(step, {"u": np.array([float(step)])})
            retained = [s for s in range(4) if store.own_at_step(s) is not None]
            return retained, store.own_at_step(3).state["u"][0]

        retained, latest = run_spmd(1, program)[0]
        assert retained == [2, 3]
        assert latest == 3.0

    def test_partner_mapping(self):
        def program(comm):
            store = PersistentStore(comm, partner_offset=1)
            return store.partner, store.mirror_source

        results = run_spmd(4, program)
        assert results == [(1, 3), (2, 0), (3, 1), (0, 2)]

    def test_self_partner_rejected(self):
        def program(comm):
            try:
                PersistentStore(comm, partner_offset=2)
                return "ok"
            except ValueError:
                return "rejected"

        assert run_spmd(2, program) == ["rejected", "rejected"]

    def test_snapshot_isolation(self):
        def program(comm):
            store = PersistentStore(comm, history=2)
            data = np.ones(3)
            store.persist(0, {"u": data})
            data[:] = 99.0
            return float(store.own_at_step(0).state["u"][0])

        assert run_spmd(1, program) == [1.0]


class TestLflrHeatDriver:
    def test_fault_free_matches_sequential(self, lflr_machine):
        result = run_lflr_heat(4, n_global=40, n_steps=25, machine=lflr_machine)
        reference = HeatProblem1D(
            n_points=40, dt=stable_time_step(1.0 / 41, 1.0)
        ).run(25)
        assert result.n_recoveries == 0
        assert np.allclose(result.field, reference, atol=1e-13)

    def test_single_failure_recovers_exactly(self, lflr_machine):
        clean = run_lflr_heat(4, n_global=40, n_steps=25, machine=lflr_machine)
        # Rank 0 fails: the designated survivor is the lowest rank never dead.
        plan = FailurePlan.single(clean.virtual_time * 0.4, 0)
        faulty = run_lflr_heat(
            4, n_global=40, n_steps=25, machine=lflr_machine, failure_plan=plan
        )
        assert faulty.n_recoveries == 1
        assert np.allclose(faulty.field, clean.field, atol=1e-13)
        assert faulty.virtual_time > clean.virtual_time
        assert {kind: faulty.events.get(kind) for kind in ("rank_death", "rank_respawn", "epoch_revoked")} == {
            "rank_death": 1, "rank_respawn": 1, "epoch_revoked": 1}

    def test_two_spaced_failures_recover(self, lflr_machine):
        clean = run_lflr_heat(4, n_global=40, n_steps=30, machine=lflr_machine)
        spacing = clean.virtual_time * 0.3 + 100 * lflr_machine.local_recovery_overhead
        plan = FailurePlan([(clean.virtual_time * 0.2, 1),
                            (clean.virtual_time * 0.2 + spacing, 3)])
        faulty = run_lflr_heat(
            4, n_global=40, n_steps=30, machine=lflr_machine, failure_plan=plan
        )
        assert faulty.n_recoveries >= 1
        assert np.allclose(faulty.field, clean.field, atol=1e-13)

    def test_failure_requires_two_ranks(self, lflr_machine):
        with pytest.raises(ValueError):
            run_lflr_heat(1, n_global=8, n_steps=2, machine=lflr_machine,
                          failure_plan=FailurePlan.single(0.1, 0))

    def test_recovery_time_reported(self, lflr_machine):
        clean = run_lflr_heat(3, n_global=30, n_steps=20, machine=lflr_machine)
        plan = FailurePlan.single(clean.virtual_time * 0.5, 1)
        faulty = run_lflr_heat(3, n_global=30, n_steps=20, machine=lflr_machine,
                               failure_plan=plan)
        assert faulty.recovery_time > 0.0
        assert faulty.events.get("lflr_recovery", 0) >= 1


class TestCheckpointRestart:
    def test_store_write_read_roundtrip(self):
        machine = MachineModel(checkpoint_bandwidth=1e6)
        store = CheckpointStore(machine, n_ranks=2)
        store.write(5, {"u": np.arange(4.0)})
        store.write(10, {"u": np.arange(4.0) * 2})
        restored = store.read_latest()
        assert restored.step == 10
        assert np.allclose(restored.state["u"], np.arange(4.0) * 2)
        assert (store.writes, store.reads) == (2, 1)
        assert store.total_write_time > 0

    def test_store_keep_limit(self):
        # Only the latest checkpoint is held: its predecessor is freed.
        store = CheckpointStore(MachineModel(), n_ranks=1)
        first = weakref.ref(store.write(1, {"x": np.zeros(8)}))
        store.write(2, {"x": np.ones(8)})
        gc.collect()
        assert first() is None
        assert store.latest().step == 2

    def test_cpr_fault_free(self):
        result = run_cpr_stepped(
            lambda state, i: {"x": state["x"] + 1.0},
            {"x": 0.0}, 20, machine=CLUSTER, interval=5, step_time=0.01,
        )
        assert result.state["x"] == 20.0
        assert result.n_restarts == 0
        assert result.steps_recomputed == 0
        assert result.info["checkpoints_written"] >= 4

    def test_cpr_failure_restarts_and_still_finishes(self):
        plan = FailurePlan.single(0.14, 2)
        result = run_cpr_stepped(
            lambda state, i: {"x": state["x"] + 1.0},
            {"x": 0.0}, 20, machine=CLUSTER, interval=5, step_time=0.01,
            failure_plan=plan,
        )
        assert result.state["x"] == 20.0
        assert result.n_restarts == 1
        assert result.steps_recomputed > 0
        assert result.restart_time > 0

    def test_cpr_overhead_grows_with_failures(self):
        def step(state, i):
            return {"x": state["x"] + 1.0}

        base = run_cpr_stepped(step, {"x": 0.0}, 30, machine=CLUSTER, interval=10,
                               step_time=0.01)
        plan = FailurePlan([(0.05, 0), (0.21, 1)])
        faulty = run_cpr_stepped(step, {"x": 0.0}, 30, machine=CLUSTER, interval=10,
                                 step_time=0.01,
                                 failure_plan=plan)
        assert faulty.virtual_time > base.virtual_time
        assert faulty.n_restarts == 2

    def test_cpr_matches_heat_reference(self):
        heat = HeatProblem1D(n_points=24)
        reference = heat.run(15)

        def step(state, i):
            return {"u": heat_step_explicit(state["u"], heat.dt, heat.h, 1.0)}

        heat.reset()
        plan = FailurePlan.single(0.03, 1)
        result = run_cpr_stepped(step, {"u": heat.u.copy()}, 15, machine=CLUSTER, interval=4,
                                 step_time=0.01, failure_plan=plan)
        assert np.allclose(result.state["u"], reference, atol=1e-13)

    def test_cpr_validation(self):
        with pytest.raises(ValueError):
            run_cpr_stepped(lambda s, i: s, {"x": 0.0}, 5, machine=CLUSTER, interval=0)
