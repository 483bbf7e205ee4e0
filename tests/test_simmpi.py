"""Tests for the simulated MPI runtime."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.comm.errors import InvalidRankError, RankFailedError, SimDeadlockError
from repro.comm.ops import LAND, LOR, MAX, MIN, PROD, SUM
from repro.reliability import FailurePlan
from repro.machine import MachineModel
from repro.comm.sim import Comm, SimRuntime, run_spmd
from repro.comm.simstate import VirtualClock


class TestVirtualClock:
    def test_advance_and_busy(self):
        clock = VirtualClock()
        clock.advance(1.5)
        assert clock.now == 1.5 and clock.busy_time == 1.5

    def test_wait_until_only_moves_forward(self):
        clock = VirtualClock(1.0)
        clock.wait_until(0.5)
        assert clock.now == 1.0
        clock.wait_until(2.0)
        assert clock.now == 2.0 and clock.idle_time == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_copy_independent(self):
        clock = VirtualClock()
        clock.advance(1.0)
        clone = clock.copy()
        clone.advance(1.0)
        assert clock.now == 1.0 and clone.now == 2.0


class TestReduceOps:
    def test_scalar_ops(self):
        assert SUM.reduce([1, 2, 3]) == 6
        assert PROD.reduce([2, 3, 4]) == 24
        assert MAX.reduce([1, 5, 3]) == 5
        assert MIN.reduce([1, 5, 3]) == 1
        assert LAND.reduce([True, True, False]) is False
        assert LOR.reduce([False, True]) is True

    def test_array_ops(self):
        arrays = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        assert np.array_equal(SUM.reduce(arrays), [4.0, 6.0])
        assert np.array_equal(MAX.reduce(arrays), [3.0, 4.0])

    def test_empty_reduce_returns_identity(self):
        assert SUM.reduce([]) == 0
        assert MIN.reduce([]) == float("inf")


class TestCollectives:
    def test_allreduce_sum_and_ops(self):
        def program(comm):
            total = comm.allreduce(comm.rank + 1)
            biggest = comm.allreduce(comm.rank, op=MAX)
            smallest = comm.allreduce(comm.rank, op=MIN)
            return total, biggest, smallest

        for values in run_spmd(4, program):
            assert values == (10, 3, 0)

    def test_allreduce_arrays(self):
        def program(comm):
            return comm.allreduce(np.full(3, float(comm.rank)))

        results = run_spmd(3, program)
        for arr in results:
            assert np.array_equal(arr, [3.0, 3.0, 3.0])

    def test_bcast(self):
        def program(comm):
            data = {"value": 42} if comm.rank == 0 else None
            return comm.bcast(data, root=0)

        assert all(v == {"value": 42} for v in run_spmd(3, program))

    def test_reduce_root_only(self):
        def program(comm):
            return comm.reduce(comm.rank, op=SUM, root=1)

        values = run_spmd(3, program)
        assert values[1] == 3
        assert values[0] is None and values[2] is None

    def test_gather_and_allgather(self):
        def program(comm):
            gathered = comm.gather(comm.rank * 10, root=0)
            everywhere = comm.allgather(comm.rank)
            return gathered, everywhere

        values = run_spmd(4, program)
        assert values[0][0] == [0, 10, 20, 30]
        assert values[2][0] is None
        assert all(v[1] == [0, 1, 2, 3] for v in values)

    def test_scatter(self):
        def program(comm):
            chunks = [f"chunk{i}" for i in range(comm.size)] if comm.rank == 0 else None
            return comm.scatter(chunks, root=0)

        assert run_spmd(3, program) == ["chunk0", "chunk1", "chunk2"]

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

    def test_ibarrier_and_ibcast(self):
        def program(comm):
            req_barrier = comm.ibarrier()
            req_bcast = comm.ibcast("hello" if comm.rank == 1 else None, root=1)
            req_barrier.wait()
            return req_bcast.wait()

        assert run_spmd(3, program) == ["hello"] * 3

    def test_single_rank_collectives(self):
        def program(comm):
            return (
                comm.allreduce(5),
                comm.allgather(7),
                comm.bcast(3, root=0),
            )

        assert run_spmd(1, program) == [(5, [7], 3)]

    def test_scatter_requires_enough_chunks(self):
        def program(comm):
            chunks = [1] if comm.rank == 0 else None
            try:
                comm.scatter(chunks, root=0)
                return "no error"
            except Exception as exc:  # noqa: BLE001
                return type(exc).__name__

        # A collective that raises while completing poisons the slot:
        # both ranks raise the typed error at once, nobody waits out the
        # 30 s watchdog (which is what this test used to take).
        start = time.monotonic()
        results = run_spmd(2, program)
        assert results == ["ValueError", "ValueError"]
        assert time.monotonic() - start < 1.0

    def test_collective_time_ignores_arrival_order(self):
        """Both arrival orders of a 1 MiB bcast charge the same virtual time.

        The cost used to take the last arriver's payload size: 2.1e-4 s
        when the root posted last, 2e-6 s when rank 1 did.
        """
        payload = np.ones(1 << 17)

        def program(comm, first, posted):
            if comm.rank != first:
                assert posted.wait(timeout=30.0)
            request = comm.ibcast(payload if comm.rank == 0 else None, root=0)
            if comm.rank == first:
                posted.set()  # posted: the other rank now arrives last
            request.wait()
            return comm.now()

        machine = MachineModel.commodity_cluster()
        times = [
            run_spmd(2, program, first, threading.Event(), machine=machine)
            for first in (0, 1)
        ]
        assert times[0] == times[1]
        assert times[0][0] == times[0][1] > 1e-4


class TestPointToPoint:
    def test_send_recv_roundtrip(self):
        def program(comm):
            if comm.rank == 0:
                comm.send(np.arange(5.0), dest=1, tag=7)
                return None
            received = comm.recv(source=0, tag=7)
            return received

        values = run_spmd(2, program)
        assert np.array_equal(values[1], np.arange(5.0))

    def test_message_ordering_fifo(self):
        def program(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1)
                return None
            return [comm.recv(source=0) for _ in range(5)]

        assert run_spmd(2, program)[1] == [0, 1, 2, 3, 4]

    def test_isend_irecv(self):
        def program(comm):
            if comm.rank == 0:
                request = comm.isend({"x": 1}, dest=1)
                request.wait()
                return None
            request = comm.irecv(source=0)
            return request.wait()

        assert run_spmd(2, program)[1] == {"x": 1}

    def test_sendrecv_exchange(self):
        def program(comm):
            other = 1 - comm.rank
            return comm.sendrecv(comm.rank, dest=other, source=other)

        assert run_spmd(2, program) == [1, 0]

    def test_payload_isolation(self):
        def program(comm):
            if comm.rank == 0:
                data = np.ones(3)
                comm.send(data, dest=1)
                data[:] = 99.0
                return None
            received = comm.recv(source=0)
            return received.copy()

        assert np.array_equal(run_spmd(2, program)[1], np.ones(3))

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
            try:
                comm.recv(source=99)
                return "ok"
            except InvalidRankError:
                return "invalid"

        assert run_spmd(2, program) == ["invalid", "invalid"]

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


class TestDeadlockAndErrors:
    def test_recv_from_returned_rank_fails_fast(self):
        # A receive whose source already returned can never be served;
        # it fails immediately with RankFailedError rather than hanging
        # until the watchdog.
        def program(comm):
            if comm.rank == 0:
                try:
                    comm.recv(source=1)
                except RankFailedError:
                    return "failed fast"
            return "done"

        runtime = SimRuntime(2, watchdog=5.0)
        results = runtime.run(program)
        assert results[0].value == "failed fast"

    def test_mutual_recv_raises_deadlock(self):
        # A genuine cycle (both ranks blocked receiving from each other)
        # is a bug in the simulated program; the watchdog breaks it.
        def program(comm):
            try:
                comm.recv(source=1 - comm.rank)
                return "received"
            except SimDeadlockError:
                return "deadlock"
            except RankFailedError:
                # The other rank broke out (watchdog) first; its exit
                # cascades here as a failed receive.
                return "cascaded"

        runtime = SimRuntime(2, watchdog=0.2)
        results = runtime.run(program)
        values = {results[0].value, results[1].value}
        assert "deadlock" in values
        assert "received" not in values

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

        runtime = SimRuntime(2, watchdog=2.0)
        results = runtime.run(program)
        values = {r.value for r in results}
        assert "RuntimeError" in values or "SimDeadlockError" in values


class TestFailuresAndRecovery:
    def test_dead_rank_detected_in_collective(self, fast_recovery_machine):
        def program(comm):
            try:
                for _ in range(20):
                    comm.compute(1e6)
                    comm.allreduce(1.0)
                return "finished"
            except RankFailedError as error:
                return ("failed", sorted(error.failed_ranks))

        plan = FailurePlan.single(0.005, 1)
        runtime = SimRuntime(4, machine=fast_recovery_machine, failure_plan=plan)
        results = runtime.run(program)
        by_rank = {r.rank: r for r in results}
        assert by_rank[1].died
        for rank in (0, 2, 3):
            assert by_rank[rank].value == ("failed", [1])

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

    def test_send_to_dead_rank_is_buffered(self, fast_recovery_machine):
        # Eager/buffered semantics: a send never detects the peer's
        # death (the outcome must not depend on whether the doomed
        # rank's thread happened to have died yet -- determinism).  The
        # failure surfaces at the next operation that genuinely depends
        # on the peer, here the collective.
        def program(comm):
            if comm.rank == 1:
                comm.compute(1e9)  # dies here
                return "unreachable"
            comm.advance(1.0)  # let rank 1 die first (virtual time irrelevant,
            # but the barrier below orders wall-clock execution)
            try:
                comm.barrier()
            except RankFailedError:
                pass
            comm.send(1, dest=1)  # buffered: must not raise
            try:
                comm.barrier()
                return "second barrier passed"
            except RankFailedError:
                return "collective detected the death"

        plan = FailurePlan.single(0.001, 1)
        runtime = SimRuntime(2, machine=fast_recovery_machine, failure_plan=plan)
        results = runtime.run(program)
        assert results[0].value == "collective detected the death"

    def test_respawn_and_epoch_recovery(self, fast_recovery_machine):
        def replacement(comm, epoch):
            comm.advance_epoch(epoch)
            return ("replacement", comm.allreduce(comm.rank))

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
                return ("survivor", comm.allreduce(comm.rank))

        plan = FailurePlan.single(0.004, 2)
        runtime = SimRuntime(4, machine=fast_recovery_machine, failure_plan=plan)
        results = runtime.run(program, runtime)
        final = {r.rank: r.value for r in results if not r.died}
        assert final[2] == ("replacement", 6)
        for rank in (0, 1, 3):
            assert final[rank] == ("survivor", 6)

    def test_departed_peer_interrupts_blocked_rank(self, fast_recovery_machine):
        # Failure propagation is driven by the deterministic liveness
        # predicate: a blocked receive fails once its source returned
        # (rank 0 here) or stopped communicating in the epoch -- which
        # then cascades (rank 2 aborts, unblocking rank 1).
        def program(comm):
            if comm.rank == 0:
                comm.advance(0.01)
                comm.revoke()  # wakes waiters; the abort comes from rank 0 returning
                return "revoked"
            try:
                if comm.rank == 1:
                    comm.recv(source=2)  # rank 2 aborts without sending
                else:
                    comm.recv(source=0)  # rank 0 returns without sending
                return "received"
            except RankFailedError:
                return "interrupted"

        runtime = SimRuntime(3, machine=fast_recovery_machine, watchdog=10.0)
        results = runtime.run(program)
        assert results[0].value == "revoked"
        assert results[1].value == "interrupted"
        assert results[2].value == "interrupted"

    def test_epoch_advance_interrupts_old_epoch_recv(self, fast_recovery_machine):
        # A rank that moved to a newer epoch (recovery) will never send
        # in the old one; receivers blocked there must fail, not hang.
        def program(comm):
            if comm.rank == 0:
                comm.advance(0.001)
                comm.advance_epoch(1)
                comm.advance(0.01)
                return "advanced"
            try:
                comm.recv(source=0)  # posted in epoch 0; never served
                return "received"
            except RankFailedError:
                return "interrupted"

        runtime = SimRuntime(2, machine=fast_recovery_machine, watchdog=10.0)
        results = runtime.run(program)
        assert results[0].value == "advanced"
        assert results[1].value == "interrupted"

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

        runtime = SimRuntime(2, watchdog=5.0)
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
                comm.scatter([1] if comm.rank == 0 else None, root=0)

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


class TestRequestHelpers:
    """waitall/waitany over the simulated runtime's requests."""

    def test_waitall_returns_results_in_request_order(self):
        from repro.comm.requests import waitall

        def program(comm):
            if comm.rank == 0:
                reqs = [comm.isend(("a", 1), 1, tag=1), comm.isend(("a", 2), 1, tag=2)]
                waitall(reqs)
                return "sent"
            # Issue the receives in reverse tag order: waitall must
            # still return results matching *request* order.
            reqs = [comm.irecv(0, tag=2), comm.irecv(0, tag=1)]
            return waitall(reqs)

        results = run_spmd(2, program)
        assert results[1] == [("a", 2), ("a", 1)]

    def test_waitany_prefers_already_completed(self):
        from repro.comm.requests import CompletedRequest, waitany

        def program(comm):
            if comm.rank == 0:
                comm.send("payload", 1)
                return None
            pending = comm.irecv(0)
            done = CompletedRequest("instant")
            # The blocking request sits first, but waitany must pick
            # the already-completed one without waiting on it.
            index, value = waitany([pending, done])
            assert (index, value) == (1, "instant")
            return pending.wait()

        results = run_spmd(2, program)
        assert results[1] == "payload"

    def test_waitany_waits_when_nothing_is_complete(self):
        from repro.comm.requests import waitany

        def program(comm):
            if comm.rank == 0:
                comm.send("late", 1)
                return None
            index, value = waitany([comm.irecv(0)])
            return (index, value)

        results = run_spmd(2, program)
        assert results[1] == (0, "late")

    def test_waitany_rejects_empty(self):
        from repro.comm.requests import waitany

        with pytest.raises(ValueError):
            waitany([])

    def test_waitall_empty_is_empty(self):
        from repro.comm.requests import waitall

        assert waitall([]) == []
