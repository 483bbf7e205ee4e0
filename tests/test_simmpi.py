"""Tests for the simulated MPI runtime."""

from __future__ import annotations

import pickle
import threading
import time

import numpy as np
import pytest

from repro.comm.errors import (
    CommTimeoutError,
    InvalidRankError,
    RankFailedError,
    SimDeadlockError,
    SimMpiError,
)
from repro.comm.base import copy_payload, portable_error
from repro.comm.ops import MAX, MIN, SUM
from repro.reliability import FailurePlan
from repro.machine import MachineModel
from repro.comm.sim import SimRuntime, run_spmd
from repro.comm.simstate import VirtualClock


class TestVirtualClock:
    def test_advance_and_busy(self):
        clock = VirtualClock()
        assert clock.advance(1.5) == clock.now == clock.busy_time == 1.5

    def test_wait_until_only_moves_forward(self):
        clock = VirtualClock(1.0)
        clock.wait_until(0.5)
        assert clock.now == 1.0
        clock.wait_until(2.0)
        assert clock.now == 2.0 and clock.idle_time == 1.0

    @pytest.mark.parametrize("start, seconds", [(-1.0, 0.0), (0.0, -1.0), (0.0, float("nan"))])
    def test_negative_rejected(self, start, seconds):
        with pytest.raises(ValueError):
            VirtualClock(start).advance(seconds)


class TestReduceOps:
    def test_scalar_ops(self):
        assert SUM.reduce([1, 2, 3]) == 6
        assert MAX.reduce([1, 5, 3]) == 5
        assert MIN.reduce([1, 5, 3]) == 1

    def test_array_ops(self):
        arrays = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        assert np.array_equal(SUM.reduce(arrays), [4.0, 6.0])
        assert np.array_equal(MAX.reduce(arrays), [3.0, 4.0])

    def test_empty_reduce_returns_identity(self):
        assert SUM.reduce([]) == 0
        assert MIN.reduce([]) == float("inf")


class TestCollectives:
    def test_bcast(self):
        def program(comm):
            data = {"value": 42} if comm.rank == 0 else None
            return comm.bcast(data, root=0)

        assert all(v == {"value": 42} for v in run_spmd(3, program))

    def test_allgather(self):
        def program(comm):
            return comm.allgather(comm.rank)

        assert run_spmd(4, program) == [[0, 1, 2, 3]] * 4

    def test_barrier_synchronizes_clocks(self):
        def program(comm):
            comm.advance(0.1 * (comm.rank + 1))
            comm.barrier()
            return comm.now()

        times = run_spmd(4, program, machine=MachineModel.ideal())
        assert all(t == pytest.approx(0.4) for t in times)

    def test_nonblocking_allreduce_overlap(self):
        def program(comm):
            request = comm.iallreduce(float(comm.rank))
            comm.advance(0.5)
            value = request.wait()
            return value, comm.now()

        machine = MachineModel(latency=1e-3)
        results = run_spmd(4, program, machine=machine)
        for value, t in results:
            assert value == 6.0
            # Overlapped work (0.5s) dwarfs the collective latency, so the
            # completion time is essentially the work time.
            assert t == pytest.approx(0.5, rel=1e-3)

    def test_unreducible_allreduce_poisons_every_rank(self):
        def program(comm):
            try:
                comm.allreduce(np.ones(2 + comm.rank))  # shapes (2,) and (3,)
                return "no error"
            except Exception as exc:  # noqa: BLE001
                return type(exc).__name__

        # A collective that raises while completing poisons the slot:
        # both ranks raise the typed error at once.
        start = time.monotonic()
        results = run_spmd(2, program)
        assert results == ["ValueError", "ValueError"]
        assert time.monotonic() - start < 1.0

    def test_collective_time_ignores_arrival_order(self):
        """Both arrival orders of a collective whose contributions differ
        in size (1 MiB against one scalar) charge the same virtual time.

        The cost used to take the last arriver's payload size: 2.1e-4 s
        when the big contributor posted last, 2e-6 s when rank 1 did.
        """
        payload = np.ones(1 << 17)

        def program(comm, first, posted):
            if comm.rank != first:
                assert posted.wait(timeout=30.0)
            request = comm.iallreduce(payload if comm.rank == 0 else 0.0)
            if comm.rank == first:
                posted.set()  # posted: the other rank now arrives last
            request.wait()
            return comm.now()

        machine = MachineModel(flop_rate=5.0e9, latency=2.0e-6, bandwidth=5.0e9)
        times = [
            run_spmd(2, program, first, threading.Event(), machine=machine)
            for first in (0, 1)
        ]
        assert times[0] == times[1]
        assert times[0][0] == times[0][1] > 1e-4


class TestPointToPoint:
    def test_message_ordering_fifo(self):
        def program(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1)
                return None
            return [comm.recv(source=0) for _ in range(5)]

        assert run_spmd(2, program)[1] == [0, 1, 2, 3, 4]

    def test_isend_recv(self):
        def program(comm):
            if comm.rank == 0:
                request = comm.isend({"x": 1}, dest=1)
                request.wait()
                return None
            return comm.recv(source=0)

        assert run_spmd(2, program)[1] == {"x": 1}

    def test_sendrecv_exchange(self):
        def program(comm):
            other = 1 - comm.rank
            return comm.sendrecv(comm.rank, dest=other, source=other)

        assert run_spmd(2, program) == [1, 0]

    def test_send_to_self_rejected(self):
        def program(comm):
            try:
                comm.send(1, dest=comm.rank)
                return "ok"
            except InvalidRankError:
                return "invalid"

        assert run_spmd(2, program) == ["invalid", "invalid"]

    def test_invalid_rank_rejected(self):
        def program(comm):
            refused = []
            for call in (lambda: comm.recv(source=99), lambda: comm.is_alive(-1),
                         lambda: comm.is_alive(True), lambda: comm.is_alive(1.0),
                         lambda: comm.bcast(0, root=2)):
                try:
                    call()
                except InvalidRankError:
                    refused.append(True)
            return refused

        assert run_spmd(2, program) == [[True] * 5] * 2

    def test_sendrecv_pays_the_latency_of_its_send(self):
        # Rank 1's message arrived long before rank 0 sends: only the
        # wait on rank 0's own send moves its clock past 5 s.
        def program(comm):
            if comm.rank == 1:
                comm.send("early", dest=0)
                comm.recv(source=0)
            else:
                comm.advance(5.0)
                comm.sendrecv("late", dest=1, source=1)
            return comm.now()

        machine = MachineModel(flop_rate=1e9, latency=1.0, bandwidth=1e15)
        assert run_spmd(2, program, machine=machine)[0] == pytest.approx(6.0)

    def test_payloads_are_copied_unless_immutable(self):
        nested = {"a": [1.0]}
        assert copy_payload(nested) == nested and copy_payload(nested)["a"] is not nested["a"]
        for value in (1, 2.5, "s", None, np.float64(1.0)):
            assert copy_payload(value) is value

    def test_an_unpicklable_error_travels_as_a_sim_mpi_error(self):
        Local = type("Local", (Exception,), {})  # pickle cannot find it to rebuild it
        error = portable_error(Local("x"), 3)
        assert type(error) is SimMpiError and "rank 3 raised unpicklable" in str(error)

    def test_virtual_time_send_cost(self):
        def program(comm):
            if comm.rank == 0:
                comm.send(np.zeros(1000), dest=1)
            elif comm.rank == 1:
                comm.recv(source=0)
            return comm.now()

        machine = MachineModel(latency=1e-3, bandwidth=1e6)
        times = run_spmd(2, program, machine=machine)
        expected = 1e-3 + 8000 / 1e6
        assert times[0] == pytest.approx(expected)
        assert times[1] == pytest.approx(expected)


def _deadlock_errors(n_ranks, program, **launch):
    """Run ``program`` through :func:`run_spmd`; return each rank's error."""

    def caught(comm):
        try:
            program(comm)
            return "completed"
        except SimDeadlockError as exc:
            return exc

    start = time.monotonic()
    errors = run_spmd(n_ranks, caught, **launch)
    assert time.monotonic() - start < 0.5
    return errors


def _assert_each_rank_names(errors, cycle):
    """Every rank raised, and each error names every blocked operation."""
    for rank, error in enumerate(errors):
        assert isinstance(error, SimDeadlockError)
        assert (error.rank, error.operation) == (rank, cycle[rank])
        assert error.blocked == cycle
        assert all(op in str(error) for op in cycle.values())


class TestDeadlockAndErrors:
    def test_recv_from_returned_rank_fails_fast(self):
        # A receive whose source already returned can never be served;
        # it fails immediately with RankFailedError, not as a deadlock.
        def program(comm):
            if comm.rank == 0:
                try:
                    comm.recv(source=1)
                except RankFailedError:
                    return "failed fast"
            return "done"

        results = SimRuntime(2).run(program)
        assert results[0].value == "failed fast"

    def test_mutual_recv_raises_deadlock(self):
        # A genuine cycle (both ranks blocked receiving from each other)
        # is a bug in the simulated program: both ranks raise at once.
        errors = _deadlock_errors(2, lambda comm: comm.recv(source=1 - comm.rank))
        _assert_each_rank_names(errors, {0: "recv(src=1, tag=0)", 1: "recv(src=0, tag=0)"})

    def test_barrier_and_receive_cycle_raises_deadlock(self):
        def program(comm):
            if comm.rank == 0:
                comm.barrier()
            else:
                comm.recv(source=(comm.rank + 1) % 3, tag=comm.rank)

        errors = _deadlock_errors(3, program)
        _assert_each_rank_names(
            errors, {0: "barrier(0, 0)", 1: "recv(src=2, tag=1)", 2: "recv(src=0, tag=2)"}
        )

    def test_ranks_that_returned_or_died_do_not_hold_off_the_verdict(self):
        def program(comm):
            if comm.rank == 2:
                return
            if comm.rank == 3:
                comm.advance(1.0)  # crosses its scheduled failure
            comm.recv(source=1 - comm.rank)

        errors = _deadlock_errors(
            4, program, faults="proc_fail:times=0.5,ranks=3", timeout=5.0
        )
        cycle = {0: "recv(src=1, tag=0)", 1: "recv(src=0, tag=0)"}
        assert [error.blocked for error in errors[:2]] == [cycle, cycle]
        assert errors[2:] == ["completed", None]

    def test_a_rank_blocked_on_a_sleeping_peer_gets_its_message(self):
        # Blocked is not stuck while a peer still runs, however long.
        def program(comm):
            if comm.rank == 1:
                time.sleep(0.05)
                comm.send("late", dest=0)
                return None
            return comm.recv(source=1)

        assert run_spmd(2, program) == ["late", None]

    def test_a_rank_stuck_in_compute_meets_the_join_bound(self):
        # Not a deadlock (the sleeper still runs): the launcher's
        # timeout bounds the whole join instead.
        def program(comm):
            if comm.rank == 1:
                time.sleep(0.6)
                comm.send("late", dest=0)
                return None
            return comm.recv(source=1)

        start = time.monotonic()
        with pytest.raises(SimMpiError, match="did not finish within 0.2s"):
            run_spmd(2, program, timeout=0.2)
        assert time.monotonic() - start < 0.5

    def test_collective_kind_mismatch_detected(self):
        def program(comm):
            try:
                if comm.rank == 0:
                    comm.allreduce(1)
                else:
                    comm.barrier()
                return "ok"
            except Exception as exc:  # noqa: BLE001
                return type(exc).__name__

        results = SimRuntime(2).run(program)
        values = {r.value for r in results}
        assert "RuntimeError" in values or "SimDeadlockError" in values

    @pytest.mark.parametrize("error, fields", [
        (RankFailedError([3, 1], "allreduce", 2.5),
         {"failed_ranks": frozenset({1, 3}), "operation": "allreduce", "detected_at": 2.5}),
        (SimDeadlockError(1, "recv(src=0, tag=0)", {0: "barrier(0, 0)", 1: "recv(src=0, tag=0)"}),
         {"rank": 1, "operation": "recv(src=0, tag=0)",
          "blocked": {0: "barrier(0, 0)", 1: "recv(src=0, tag=0)"}}),
        (CommTimeoutError(0, "barrier(0, 0)", 30.0),
         {"rank": 0, "operation": "barrier(0, 0)", "waited": 30.0,
          "blocked": {0: "barrier(0, 0)"}}),
    ], ids=["RankFailedError", "SimDeadlockError", "CommTimeoutError"])
    def test_errors_survive_a_process_boundary(self, error, fields):
        # The shmem backend ships rank outcomes through pickling channels.
        twin = pickle.loads(pickle.dumps(error))
        assert type(twin) is type(error)
        assert str(twin) == str(error)
        assert {name: getattr(twin, name) for name in fields} == fields


class TestFailuresAndRecovery:
    def test_dead_rank_detected_in_recv(self, fast_recovery_machine):
        def program(comm):
            if comm.rank == 0:
                try:
                    comm.recv(source=1)
                    return "got message"
                except RankFailedError:
                    return "detected"
            # Rank 1 dies before sending.
            comm.compute(1e9)
            comm.send(1, dest=0)
            return "sent"

        plan = FailurePlan.single(0.001, 1)
        runtime = SimRuntime(2, machine=fast_recovery_machine, failure_plan=plan)
        results = runtime.run(program)
        assert results[0].value == "detected"
        assert results[1].died

    def test_respawn_and_epoch_recovery(self, fast_recovery_machine):
        def finish(comm, role):
            total = comm.allreduce(comm.rank)
            try:  # a ring of receives nobody sends: the respawned job deadlocks
                comm.recv(source=(comm.rank + 1) % comm.size, tag=5)
            except SimDeadlockError:
                return (role, total, comm.alive_ranks())

        def replacement(comm, epoch):
            comm.advance_epoch(epoch)
            return finish(comm, "replacement")

        def program(comm, runtime):
            try:
                for _ in range(20):
                    comm.compute(1e6)
                    comm.allreduce(1.0)
                return "no failure"
            except RankFailedError as error:
                if comm.rank == 0:
                    for dead in sorted(error.failed_ranks):
                        runtime.respawn(dead, replacement, 1)
                    for other in (r for r in comm.alive_ranks() if r != 0):
                        comm.send("go", dest=other, tag=9)
                else:
                    comm.recv(source=0, tag=9)
                comm.advance_epoch(1)
                return finish(comm, "survivor")

        plan = FailurePlan.single(0.004, 2)
        runtime = SimRuntime(4, machine=fast_recovery_machine, failure_plan=plan)
        results = runtime.run(program, runtime)
        final = {r.rank: r.value for r in results if not r.died}
        assert final == {2: ("replacement", 6, [0, 1, 2, 3]),
                         **{rank: ("survivor", 6, [0, 1, 2, 3]) for rank in (0, 1, 3)}}

    def test_leaving_the_epoch_wakes_a_rank_blocked_on_it(self):
        # Rank 1 leaves epoch 0 once rank 0 waits on it there, then waits
        # in epoch 1: only the wake-up of its epoch change fails rank 0's receive.
        def program(comm):
            try:
                if comm.rank == 1:
                    time.sleep(0.05)
                    comm.advance_epoch(1)
                comm.recv(source=1 - comm.rank)
            except RankFailedError:
                return "failed"

        assert run_spmd(2, program, timeout=10.0) == ["failed", "failed"]

    def test_departed_peer_interrupts_blocked_rank(self, fast_recovery_machine):
        # Failure propagation is driven by the deterministic liveness
        # predicate: a blocked receive fails once its source returned
        # (rank 0 here) or stopped communicating in the epoch -- which
        # then cascades (rank 2 aborts, unblocking rank 1).
        def program(comm):
            if comm.rank == 0:
                comm.advance(0.01)
                comm.revoke()  # an event only: the abort comes from rank 0 returning
                return "revoked"
            try:
                if comm.rank == 1:
                    comm.recv(source=2)  # rank 2 aborts without sending
                else:
                    comm.recv(source=0)  # rank 0 returns without sending
                return "received"
            except RankFailedError:
                return "interrupted"

        runtime = SimRuntime(3, machine=fast_recovery_machine)
        results = runtime.run(program)
        assert results[0].value == "revoked"
        assert results[1].value == "interrupted"
        assert results[2].value == "interrupted"

    def test_runtime_event_log_records_death(self, fast_recovery_machine):
        def program(comm):
            try:
                for _ in range(10):
                    comm.compute(1e6)
                    comm.barrier()
                return "ok"
            except RankFailedError:
                return "saw failure"

        plan = FailurePlan.single(0.002, 0)
        runtime = SimRuntime(3, machine=fast_recovery_machine, failure_plan=plan)
        runtime.run(program)
        assert runtime.log.count("rank_death") == 1

    def test_respawn_requires_dead_rank(self):
        runtime = SimRuntime(2)
        runtime.start(lambda comm: comm.barrier())
        with pytest.raises(Exception):
            runtime.respawn(0, lambda comm: None)
        runtime.join()


class TestRuntimeLifecycle:
    def test_run_spmd_returns_rank_order(self):
        assert run_spmd(5, lambda comm: comm.rank) == [0, 1, 2, 3, 4]

    def test_double_start_rejected(self):
        runtime = SimRuntime(2)
        runtime.start(lambda comm: None)
        with pytest.raises(Exception):
            runtime.start(lambda comm: None)
        runtime.join()

    def test_join_before_start_rejected(self):
        with pytest.raises(Exception):
            SimRuntime(2).join()

    def test_exception_in_rank_propagates(self):
        def program(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            try:
                comm.barrier()
            except RankFailedError:
                pass
            return "ok"

        runtime = SimRuntime(2)
        with pytest.raises(ValueError, match="boom"):
            runtime.run(program)

    def test_invalid_n_ranks(self):
        with pytest.raises(ValueError):
            SimRuntime(0)

    def test_max_finish_time(self):
        runtime = SimRuntime(3, machine=MachineModel.ideal())
        runtime.run(lambda comm: comm.advance(0.1 * (comm.rank + 1)))
        assert runtime.max_finish_time() == pytest.approx(0.3)

    def test_rank_results_record_clock_stats(self):
        runtime = SimRuntime(2, machine=MachineModel.ideal())
        results = runtime.run(lambda comm: (comm.advance(0.2), comm.barrier()))
        for result in results:
            assert result.busy_time == pytest.approx(0.2)
            assert result.finish_time >= 0.2


    def test_no_collective_outlives_its_participants(self, fast_recovery_machine):
        """``state.collectives`` lists collectives in flight, nothing else.

        It used to keep every slot ever created -- 791 of them, holding
        6 MB of contribution copies, after one two-rank grid-64 CG solve.
        """
        from repro.experiments.backend_probe import _solve_program

        runtime = SimRuntime(2)
        runtime.run(_solve_program, "cg", 16, 1e-8, 2000, 18, {})
        assert len(runtime.state.collectives) == 0

        # Poisoned (completion raised) and failed (a member died) slots go too.
        def poisoned(comm):
            with pytest.raises(ValueError):
                comm.allreduce(np.ones(2 + comm.rank))

        runtime = SimRuntime(2)
        runtime.run(poisoned)
        assert len(runtime.state.collectives) == 0

        def bereaved(comm):
            comm.advance(1.0)
            with pytest.raises(RankFailedError):
                comm.allreduce(1.0)
            comm.advance_epoch()
            with pytest.raises(RankFailedError):
                comm.barrier()

        plan = FailurePlan.single(0.5, 1)
        runtime = SimRuntime(3, machine=fast_recovery_machine, failure_plan=plan)
        runtime.run(bereaved)
        assert len(runtime.state.collectives) == 0
