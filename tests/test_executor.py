"""Tests for the resilient campaign executor (repro.campaign.executor).

Covers the supervisor's whole fault surface with *real* process
faults, not mocks: driver fixtures that call ``os._exit()`` mid-run,
sleep past the timeout, raise, or flip their own result payloads -- and
the chaos harness that injects the same faults into the production
worker loop.  That a chaos run converges to the fault-free store is
the execution-contract property (tests/test_execution_contract.py).
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.campaign.builtin import builtin_campaign
from repro.campaign.cli import main as cli_main
from repro.campaign.executor import (
    FAILURE_OUTCOMES,
    AttemptRecord,
    ChaosFault,
    FailureLedger,
    RetryPolicy,
    SupervisedExecutor,
    parse_chaos,
    payload_checksum,
)
from repro.campaign.report import failure_table, render_report
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import Scenario, Sweep
from repro.campaign.store import ResultStore
from repro.utils.child import Child


# ----------------------------------------------------------------------
# Module-level driver fixtures (picklable under every start method).
# Each returns the executor's (result_dict, error, elapsed) triple.
# ----------------------------------------------------------------------
def _ok_execute(experiment, params, attempt=1):
    """A well-behaved driver: echoes its inputs (attempt excluded)."""
    return {"experiment": experiment, "params": dict(params)}, None, 0.01


def _hard_death_execute(experiment, params, attempt=1):
    """Dies without ceremony (os._exit) on attempts <= crash_attempts."""
    if attempt <= params.get("crash_attempts", 0):
        os._exit(1)
    return _ok_execute(experiment, params, attempt)


def _hang_execute(experiment, params, attempt=1):
    """Sleeps far past any test timeout on attempts <= hang_attempts."""
    if attempt <= params.get("hang_attempts", 0):
        time.sleep(60.0)
    return _ok_execute(experiment, params, attempt)


def _sleep_execute(experiment, params, attempt=1):
    """Takes ``params["sleep"]`` seconds, then echoes its inputs."""
    time.sleep(params["sleep"])
    return _ok_execute(experiment, params, attempt)


def _self_kill_execute(experiment, params, attempt=1):
    """SIGKILLs its own worker on attempt 1."""
    if attempt == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return _ok_execute(experiment, params, attempt)


def _shmem_allreduce_program(comm, base):
    return comm.allreduce(base + comm.rank)


def _shmem_execute(experiment, params, attempt=1):
    """A 2-rank shmem allreduce, launched from wherever this runs."""
    from repro.comm import resolve_backend

    values = resolve_backend("shmem:procs=2").launch(
        _shmem_allreduce_program, params["base"], timeout=10.0
    )
    return {"values": values}, None, 0.0


def _raising_execute(experiment, params, attempt=1):
    """A poison driver: raises deterministically (traceback captured)."""
    if params.get("boom", True):
        return None, "Traceback (most recent call last):\nRuntimeError: boom",  0.0
    return _ok_execute(experiment, params, attempt)


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_classification(self):
        policy = RetryPolicy()
        for status in ("crashed", "timeout", "corrupt"):
            assert policy.classify(status) == "transient"
        assert policy.classify("error") == "poison"

    def test_backoff_is_deterministic_and_exponential(self):
        policy = RetryPolicy(max_attempts=5, backoff=0.1)
        assert policy.delay(1) == 0.0
        assert policy.delay(2) == pytest.approx(0.1)
        assert policy.delay(3) == pytest.approx(0.2)
        assert policy.delay(4) == pytest.approx(0.4)

    def test_should_retry_budget(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry("crashed", 1)
        assert policy.should_retry("timeout", 2)
        assert not policy.should_retry("crashed", 3)
        # Poison is never retried.
        assert not policy.should_retry("error", 1)

    def test_terminal_outcomes(self):
        policy = RetryPolicy()
        assert policy.terminal_outcome("timeout") == "timeout"
        assert policy.terminal_outcome("crashed") == "quarantined"
        assert policy.terminal_outcome("corrupt") == "quarantined"
        assert policy.terminal_outcome("error") == "failed"
        assert set(("failed", "timeout", "quarantined")) == set(FAILURE_OUTCOMES)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-1.0)
        with pytest.raises(TypeError):  # the doubling is a constant
            RetryPolicy(backoff_factor=0.5)


# ----------------------------------------------------------------------
# ChaosFault
# ----------------------------------------------------------------------
class TestChaosFault:
    def test_string_round_trip(self):
        text = "worker_crash:p=0.1+worker_hang:p=0.05,seconds=120.0+result_corrupt:p=0.01"
        spec = parse_chaos(text)
        assert spec.to_string() == text
        assert parse_chaos(spec.to_string()) == spec
        assert parse_chaos({"kind": "compose", "children": [
            {"kind": f.kind, "params": dict(f.params)} for f in spec.children
        ]}) == spec

    def test_none_is_identity(self):
        assert not parse_chaos("none").active
        assert not parse_chaos(None).active
        assert parse_chaos("none").to_string() == "none"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos kind"):
            parse_chaos("worker_explode:p=0.5")  # repro: allow(spec-strings)

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="does not take parameters"):
            # repro: allow(spec-strings) -- deliberately malformed fixture
            parse_chaos("worker_crash:p=0.5,seconds=10")

    def test_probability_validated(self):
        with pytest.raises(ValueError, match="outside"):
            ChaosFault("worker_crash", {"p": 1.5})

    def test_draws_are_deterministic_and_attempt_dependent(self):
        fault = ChaosFault("worker_crash", {"p": 0.5})
        hits = [fault.hits(7, "abc", attempt) for attempt in range(1, 30)]
        assert hits == [fault.hits(7, "abc", a) for a in range(1, 30)]
        # Independent draws per attempt: with p=0.5 over 29 attempts,
        # both outcomes must occur.
        assert True in hits and False in hits

    def test_attempts_limit(self):
        fault = ChaosFault("worker_crash", {"p": 1.0, "attempts": 2})
        assert fault.hits(0, "k", 1) and fault.hits(0, "k", 2)
        assert not fault.hits(0, "k", 3)

    def test_corrupt_result_breaks_checksum(self):
        spec = parse_chaos("result_corrupt:p=1")
        payload = {"summary": {"x": 1.0}}
        checksum = payload_checksum(payload)
        corrupted = spec.corrupt_result(payload, 0, "k", 1)
        assert payload_checksum(corrupted) != checksum
        # p=0 never corrupts.
        clean = parse_chaos("result_corrupt:p=0").corrupt_result(payload, 0, "k", 1)
        assert payload_checksum(clean) == checksum


# ----------------------------------------------------------------------
# FailureLedger
# ----------------------------------------------------------------------
class TestFailureLedger:
    def test_record_and_reload(self, tmp_path):
        path = str(tmp_path / "runs.ledger.jsonl")
        ledger = FailureLedger(path)
        ledger.record(AttemptRecord("k1", "E7", 1, "crashed", worker=123))
        ledger.record(AttemptRecord("k1", "E7", 2, "ok", outcome="completed"))
        reloaded = FailureLedger(path)
        assert len(reloaded) == 2
        assert [r.status for r in reloaded.history()["k1"]] == ["crashed", "ok"]
        assert reloaded.outcomes()["k1"].outcome == "completed"
        assert reloaded.failed_keys() == []

    def test_failed_keys_cleared_by_later_completion(self, tmp_path):
        ledger = FailureLedger(str(tmp_path / "l.jsonl"))
        ledger.record(AttemptRecord("k1", "E7", 3, "crashed", outcome="quarantined"))
        ledger.record(AttemptRecord("k2", "E7", 1, "error", outcome="failed"))
        ledger.record(AttemptRecord("k3", "E7", 2, "timeout", outcome="timeout"))
        assert sorted(ledger.failed_keys()) == ["k1", "k2", "k3"]
        # A later run completes k1: the append-only journal clears it.
        ledger.record(AttemptRecord("k1", "E7", 1, "ok", outcome="completed"))
        assert sorted(ledger.failed_keys()) == ["k2", "k3"]

    def test_partial_trailing_line_tolerated(self, tmp_path):
        path = str(tmp_path / "l.jsonl")
        ledger = FailureLedger(path)
        ledger.record(AttemptRecord("k1", "E7", 1, "ok", outcome="completed"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "k2", "trunc')
        assert len(FailureLedger(path)) == 1

    def test_corrupt_midfile_line_warns_and_neighbours_load(self, tmp_path):
        path = tmp_path / "l.jsonl"
        ledger = FailureLedger(str(path))
        ledger.record(AttemptRecord("k1", "E7", 1, "error", outcome="failed"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{corrupt mid-file line}\n")
        ledger.record(AttemptRecord("k2", "E7", 1, "timeout", outcome="timeout"))
        with pytest.warns(RuntimeWarning, match=r"line 2\)"):
            reloaded = FailureLedger(str(path))
        assert [r.key for r in reloaded._records] == ["k1", "k2"]
        assert sorted(reloaded.failed_keys()) == ["k1", "k2"]

    def test_record_after_interrupted_write_is_not_lost(self, tmp_path):
        path = tmp_path / "l.jsonl"
        ledger = FailureLedger(str(path))
        ledger.record(AttemptRecord("k1", "E7", 1, "ok", outcome="completed"))
        good = path.read_bytes()
        path.write_bytes(good + b'{"key": "k2", "trunc')
        resumed = FailureLedger(str(path))
        assert len(resumed) == 1
        resumed.record(AttemptRecord("k2", "E7", 1, "error", outcome="failed"))
        resumed.record(AttemptRecord("k3", "E7", 1, "ok", outcome="completed"))
        # The partial line is mid-file now: the result store's rule warns.
        with pytest.warns(RuntimeWarning, match=r"line 2\)"):
            reloaded = FailureLedger(str(path))
        # The first record after the partial line starts on a fresh
        # line instead of being glued onto it and dropped with it.
        assert [r.key for r in reloaded._records] == ["k1", "k2", "k3"]
        assert reloaded.failed_keys() == ["k2"]
        assert path.read_bytes().startswith(good + b'{"key": "k2", "trunc\n{')
        assert b"\n\n" not in path.read_bytes()

    def test_clean_and_empty_files_gain_no_blank_line(self, tmp_path):
        records = [
            AttemptRecord("k1", "E7", 1, "crashed", worker=7, wall_time=1.0),
            AttemptRecord("k1", "E7", 2, "ok", outcome="completed", wall_time=2.0),
        ]
        reference = tmp_path / "reference.jsonl"
        one_go = FailureLedger(str(reference))
        for record in records:
            one_go.record(record)
        resumed = tmp_path / "resumed.jsonl"
        for record in records:  # a fresh instance per record
            FailureLedger(str(resumed)).record(record)
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        nested = tmp_path / "not" / "yet" / "there.jsonl"
        for path in (empty, nested):
            ledger = FailureLedger(str(path))
            for record in records:
                ledger.record(record)
        for path in (resumed, empty, nested):
            assert path.read_bytes() == reference.read_bytes()
            assert len(FailureLedger(str(path))) == 2

    def test_directory_created_once_per_instance(self, tmp_path, monkeypatch):
        made = []
        real_makedirs = os.makedirs

        def spy(path, *args, **kwargs):
            made.append(path)
            return real_makedirs(path, *args, **kwargs)

        monkeypatch.setattr(os, "makedirs", spy)
        ledger = FailureLedger(str(tmp_path / "deep" / "l.jsonl"))
        for attempt in (1, 2, 3):
            ledger.record(AttemptRecord("k1", "E7", attempt, "crashed"))
            # Flushed before return: another reader sees every record.
            assert len(FailureLedger(ledger.path)) == attempt
        assert made == [str(tmp_path / "deep")]

    def test_sidecar_path_convention(self):
        assert FailureLedger.path_for("results.jsonl") == "results.ledger.jsonl"
        assert FailureLedger.path_for("x/store") == "x/store.ledger.jsonl"

    def test_file_created_lazily(self, tmp_path):
        path = str(tmp_path / "l.jsonl")
        FailureLedger(path)
        assert not os.path.exists(path)


# ----------------------------------------------------------------------
# SupervisedExecutor against misbehaving drivers
# ----------------------------------------------------------------------
def _tasks(n, **params):
    return [(f"key{i}", "EX", {"i": i, **params}) for i in range(n)]


def _executor(**kwargs):
    kwargs.setdefault("retry", RetryPolicy(max_attempts=3, backoff=0.01))
    kwargs.setdefault("workers", 2)
    return SupervisedExecutor(**kwargs)


def _refuse_to_fork(*args, **kwargs):
    raise AssertionError("workers=0 must not start a child")


def _record_submits(monkeypatch, log):
    """Append each task's ``(slot, attempt)`` to ``log`` as it is sent."""
    real_submit = Child.send

    def recording_submit(handle, task):
        log.append((task[0], task[2]))
        return real_submit(handle, task)

    monkeypatch.setattr(Child, "send", recording_submit)
    return log


class TestSupervisedExecutor:
    def test_clean_run_in_input_order(self):
        results = _executor(execute=_ok_execute).run(_tasks(5))
        assert [r.key for r in results] == [f"key{i}" for i in range(5)]
        assert all(r.status == "completed" and r.attempts == 1 for r in results)
        assert results[3].result["params"]["i"] == 3

    def test_hard_worker_death_is_retried(self, tmp_path):
        # Scenario 1 SIGKILLs its worker on the first attempt; the
        # campaign still completes, the crashed scenario is retried,
        # and sibling scenarios are unaffected.
        ledger = FailureLedger(str(tmp_path / "l.jsonl"))
        tasks = [
            ("crashy", "EX", {"crash_attempts": 1}),
            ("sibling-a", "EX", {}),
            ("sibling-b", "EX", {}),
        ]
        results = _executor(execute=_hard_death_execute, ledger=ledger).run(tasks)
        assert [r.status for r in results] == ["completed"] * 3
        crashy = results[0]
        assert crashy.attempts == 2 and crashy.history == ("crashed", "ok")
        assert [r.attempts for r in results[1:]] == [1, 1]
        # The ledger journals both attempts, the crash with a worker pid.
        history = ledger.history()["crashy"]
        assert [r.status for r in history] == ["crashed", "ok"]
        assert history[0].worker is not None and history[0].outcome is None
        assert history[1].outcome == "completed"

    def test_unrecoverable_crash_is_quarantined(self, tmp_path):
        ledger = FailureLedger(str(tmp_path / "l.jsonl"))
        tasks = [("doomed", "EX", {"crash_attempts": 99}), ("ok", "EX", {})]
        results = _executor(execute=_hard_death_execute, ledger=ledger).run(tasks)
        assert results[0].status == "quarantined"
        assert results[0].attempts == 3
        assert results[0].history == ("crashed",) * 3
        assert results[1].status == "completed"
        assert ledger.failed_keys() == ["doomed"]

    def test_hang_is_killed_and_retried(self):
        # Attempt 1 sleeps past the deadline: the worker is killed and
        # respawned, and attempt 2 completes while siblings finish.
        tasks = [("slow", "EX", {"hang_attempts": 1}), ("fast", "EX", {})]
        start = time.monotonic()
        results = _executor(execute=_hang_execute, timeout=1.0).run(tasks)
        assert [r.status for r in results] == ["completed"] * 2
        assert results[0].history == ("timeout", "ok")
        assert time.monotonic() - start < 30.0  # killed, not slept out

    def test_persistent_hang_times_out_terminally(self, tmp_path):
        ledger = FailureLedger(str(tmp_path / "l.jsonl"))
        tasks = [("stuck", "EX", {"hang_attempts": 99}), ("fine", "EX", {})]
        results = _executor(
            execute=_hang_execute, timeout=0.5,
            retry=RetryPolicy(max_attempts=2, backoff=0.01), ledger=ledger,
        ).run(tasks)
        assert results[0].status == "timeout"
        assert results[0].history == ("timeout", "timeout")
        assert results[1].status == "completed"
        assert ledger.failed_keys() == ["stuck"]
        assert "timeout" in (ledger.outcomes()["stuck"].error or "")

    def test_poison_error_not_retried(self):
        results = _executor(execute=_raising_execute).run(
            [("bad", "EX", {"boom": True}), ("good", "EX", {"boom": False})]
        )
        assert results[0].status == "failed" and results[0].attempts == 1
        assert "RuntimeError" in results[0].error
        assert results[1].status == "completed"

    def test_chaos_crash_inside_production_worker(self):
        # Chaos fires in the real worker loop (not a test fixture):
        # deterministic first-two-attempts crash, third succeeds.
        results = _executor(
            execute=_ok_execute,
            chaos="worker_crash:p=1,attempts=2",
        ).run(_tasks(2))
        assert all(r.status == "completed" for r in results)
        assert all(r.history == ("crashed", "crashed", "ok") for r in results)

    def test_exit_status_reaches_the_ledger(self, tmp_path):
        from repro.campaign.executor import CHAOS_EXIT_CODE

        for execute, chaos, code in (
            (_ok_execute, "worker_crash:p=1,attempts=1", CHAOS_EXIT_CODE),
            (_self_kill_execute, None, -signal.SIGKILL),
        ):
            ledger = FailureLedger(str(tmp_path / f"{code}.jsonl"))
            results = _executor(
                execute=execute, chaos=chaos, ledger=ledger, workers=1
            ).run(_tasks(1))
            assert results[0].history == ("crashed", "ok")
            crash = ledger.history()["key0"][0]
            assert crash.error == (
                f"worker died with exit code {code} while running this scenario"
            )

    def test_shmem_ranks_launch_inside_a_worker(self):
        tasks = [(f"shmem{i}", "EX", {"base": float(i)}) for i in range(3)]
        results = _executor(execute=_shmem_execute).run(tasks)
        assert [r.status for r in results] == ["completed"] * 3
        for (_key, _experiment, params), result in zip(tasks, results):
            assert result.result == _shmem_execute("EX", params)[0]

    def test_chaos_corruption_detected_by_checksum(self):
        results = _executor(
            execute=_ok_execute,
            chaos="result_corrupt:p=1,attempts=1",
        ).run(_tasks(2))
        assert all(r.status == "completed" for r in results)
        assert all(r.history == ("corrupt", "ok") for r in results)
        # The corrupted payload never leaks into the final result.
        assert all("__chaos_corrupted__" not in r.result for r in results)

    def test_dispatch_order_is_min_ready_at_then_slot(self, monkeypatch):
        """The deque + retry heap dispatches exactly as the old scan did.

        The oracle is the rule the executor used to evaluate over the
        whole backlog per dispatch -- ``min(ready, key=(ready_at,
        slot))`` with ``ready`` the tasks whose backoff has expired;
        because ready tasks sort before waiting ones, that is the
        minimum over everything awaiting a worker.  The mirror of the
        backlog is rebuilt from the submits and the journal, not read
        off the executor: a task leaves it when sent, and comes back
        when its attempt is journaled as retrying or when the worker it
        was queued on crashes or times out before starting it.
        """
        from repro.campaign import executor as ex

        states, waiting, mismatches, submits = {}, set(), [], []
        held = {}  # worker pid -> (slot, attempt) sent to it, not journaled
        requeued, unexplained = [], []
        real_state = ex._TaskState

        def recording_state(*args, **kwargs):
            state = real_state(*args, **kwargs)
            states[state.slot] = state
            waiting.add(state.slot)
            return state

        real_submit = Child.send

        def checking_submit(handle, task):
            slot, attempt = task[0], task[2]
            oracle = min(
                (states[s] for s in waiting), key=lambda s: (s.ready_at, s.slot)
            )
            if oracle.slot != slot:
                mismatches.append((len(submits), slot, oracle.slot))
            if (slot, attempt) in submits:
                if (slot, attempt) in requeued:
                    requeued.remove((slot, attempt))
                else:
                    unexplained.append((slot, attempt))
            waiting.discard(slot)
            submits.append((slot, attempt))
            held.setdefault(handle.pid, []).append((slot, attempt))
            return real_submit(handle, task)

        real_journal = ex.SupervisedExecutor._journal

        def watching_journal(self, state, status, outcome, error, elapsed, pid):
            mine = held[pid]
            mine.remove((state.slot, state.attempts))
            if status in ("crashed", "timeout"):
                # Queued behind the charged head, never started.
                for slot, attempt in held.pop(pid):
                    waiting.add(slot)
                    requeued.append((slot, attempt))
            if outcome is None:  # retrying: back into the backlog
                waiting.add(state.slot)
            return real_journal(self, state, status, outcome, error, elapsed, pid)

        monkeypatch.setattr(ex, "_TaskState", recording_state)
        monkeypatch.setattr(Child, "send", checking_submit)
        monkeypatch.setattr(ex.SupervisedExecutor, "_journal", watching_journal)
        results = _executor(
            execute=_ok_execute,
            chaos="worker_crash:p=0.3",
            chaos_seed=18,
            retry=RetryPolicy(max_attempts=8, backoff=0.01),
        ).run(_tasks(40))
        assert all(r.status == "completed" for r in results)
        assert len(set(submits)) == sum(r.attempts for r in results) > 40
        # A repeated (slot, attempt) only re-sends a task that was queued
        # on a worker that crashed; every such task was re-sent.
        assert len(submits) > len(set(submits))
        assert unexplained == [] and requeued == []
        assert submits[:2] == [(0, 1), (1, 1)]
        assert mismatches == []

    def test_queued_task_survives_its_workers_crash(self, tmp_path, monkeypatch):
        ledger = FailureLedger(str(tmp_path / "l.jsonl"))
        submits = _record_submits(monkeypatch, [])
        tasks = [("crashy", "EX", {"crash_attempts": 1}),
                 ("queued", "EX", {}), ("last", "EX", {})]
        results = _executor(
            execute=_hard_death_execute, ledger=ledger, workers=1
        ).run(tasks)
        assert [r.status for r in results] == ["completed"] * 3
        # Sent behind the crashing head, then re-sent as the same attempt.
        assert submits[:2] == [(0, 1), (1, 1)]
        assert submits.count((1, 1)) == 2
        assert [r.history for r in results] == [("crashed", "ok"), ("ok",), ("ok",)]
        # One ledger record per attempt that really ran.
        history = ledger.history()
        assert [(r.attempt, r.status) for r in history["crashy"]] == [(1, "crashed"), (2, "ok")]
        assert [(r.attempt, r.status) for r in history["queued"]] == [(1, "ok")]
        assert len(ledger) == sum(r.attempts for r in results)

    def test_queued_task_survives_its_workers_timeout(self, tmp_path, monkeypatch):
        ledger = FailureLedger(str(tmp_path / "l.jsonl"))
        submits = _record_submits(monkeypatch, [])
        tasks = [("stuck", "EX", {"hang_attempts": 1}),
                 ("queued", "EX", {}), ("last", "EX", {})]
        results = _executor(
            execute=_hang_execute, ledger=ledger, workers=1, timeout=0.5
        ).run(tasks)
        assert [r.history for r in results] == [("timeout", "ok"), ("ok",), ("ok",)]
        assert submits[:2] == [(0, 1), (1, 1)]
        assert submits.count((1, 1)) == 2
        assert [(r.attempt, r.status) for r in ledger.history()["queued"]] == [(1, "ok")]
        assert len(ledger) == sum(r.attempts for r in results)

    def test_queued_task_deadline_starts_when_it_does(self, monkeypatch):
        # Each task sleeps 0.5 s under a 0.8 s budget.  The second waits
        # in the pipe behind the first; were its deadline counted from
        # the send, it would expire 0.2 s before it finishes.
        events = _record_submits(monkeypatch, [])
        tasks = [(f"slow{i}", "EX", {"sleep": 0.5}) for i in range(3)]
        results = _executor(execute=_sleep_execute, workers=1, timeout=0.8).run(
            tasks, completed=lambda slot, r: events.append(("done", slot))
        )
        assert [r.history for r in results] == [("ok",)] * 3
        assert events[:3] == [(0, 1), (1, 1), ("done", 0)]

    def test_no_prefetch_when_units_do_not_outnumber_workers(self, monkeypatch):
        # Three heavy units on two workers: the third waits for the first
        # worker to come free, exactly as with one task per worker.
        sent = []
        real_submit = Child.send

        def timing_submit(handle, task):
            sent.append((task[0], handle.pid, time.monotonic()))
            return real_submit(handle, task)

        monkeypatch.setattr(Child, "send", timing_submit)
        tasks = [(f"heavy{i}", "EX", {"sleep": s}) for i, s in enumerate((0.2, 0.6, 0.2))]
        results = _executor(execute=_sleep_execute).run(tasks)
        assert [r.history for r in results] == [("ok",)] * 3
        assert [slot for slot, _, _ in sent] == [0, 1, 2]
        (_, first, start), _, (_, third, sent_at) = sent
        # Sent when the 0.2 s unit ended (not up front, nor after the
        # 0.6 s one), to the worker it freed.
        assert third == first and 0.15 < sent_at - start < 0.55

    def test_in_process_mode_journals_like_a_worker(self, tmp_path, monkeypatch):
        # workers=0 runs the tasks in input order without a child and
        # journals what one worker does, apart from the worker pid.
        tasks = [("bad", "EX", {"boom": True}), ("good", "EX", {"boom": False}),
                 ("unit", "EX", {"boom": False}, ("m1", "m2"))]

        def run(workers):
            ledger = FailureLedger(str(tmp_path / f"{workers}.jsonl"))
            order = []
            results = _executor(
                execute=_raising_execute, ledger=ledger, workers=workers
            ).run(tasks, completed=lambda slot, r: order.append(slot))
            return results, order, list(ledger._records)

        supervised, _, worker_journal = run(1)
        monkeypatch.setattr(Child, "start", _refuse_to_fork)
        inline, order, journal = run(0)
        assert order == [0, 1, 2]
        assert [r.status for r in inline] == ["failed", "completed", "completed"]
        assert [r.result for r in inline] == [r.result for r in supervised]
        expected = [("bad", 1, "error", "failed"), ("good", 1, "ok", "completed"),
                    ("m1", 1, "ok", "completed"), ("m2", 1, "ok", "completed")]
        for records in (journal, worker_journal):
            assert [(r.key, r.attempt, r.status, r.outcome) for r in records] == expected
        assert all(r.worker is None for r in journal)
        assert all(r.worker is not None for r in worker_journal)
        # Each member journals an even share of the unit's elapsed time.
        assert [r.elapsed for r in journal[2:]] == [0.005, 0.005]

    def test_in_process_mode_refuses_what_it_cannot_enforce(self):
        for refused in ({"timeout": 1.0}, {"chaos": "worker_crash:p=1"}):
            with pytest.raises(ValueError, match="calling process"):
                SupervisedExecutor(workers=0, **refused)

    def test_completed_callback_fires_per_terminal_result(self):
        seen = []
        _executor(execute=_ok_execute).run(
            _tasks(4), completed=lambda slot, res: seen.append((slot, res.key))
        )
        assert sorted(seen) == [(i, f"key{i}") for i in range(4)]


# ----------------------------------------------------------------------
# Runner integration: resilience end to end
# ----------------------------------------------------------------------
def _e7_scenarios(n):
    return Sweep(
        "E7", axes={"node_mtbf_years": tuple(float(i + 1) for i in range(n))},
        tag="resilience",
    ).expand()


class TestRunnerResilience:
    def test_failed_outcomes_survive_the_process(self, tmp_path):
        # A quarantined scenario's history must be re-loadable from
        # disk by a fresh ledger (nothing lives only in memory).
        store_path = str(tmp_path / "s.jsonl")
        runner = CampaignRunner(
            ResultStore(store_path), workers=2,
            retry=RetryPolicy(max_attempts=2, backoff=0.01),
            chaos="worker_crash:p=1",
        )
        scenarios = _e7_scenarios(2)
        outcomes = runner.run(scenarios)
        assert [o.status for o in outcomes] == ["quarantined"] * 2
        reloaded = FailureLedger(FailureLedger.path_for(store_path))
        assert sorted(reloaded.failed_keys()) == sorted(s.key for s in scenarios)
        for records in reloaded.history().values():
            assert [r.status for r in records] == ["crashed", "crashed"]
            assert records[-1].outcome == "quarantined"

    def test_in_process_failures_are_journaled(self, tmp_path):
        store_path = str(tmp_path / "s.jsonl")
        runner = CampaignRunner(ResultStore(store_path), workers=1)
        outcomes = runner.run(
            [Scenario("E2", {"sizes": (0,), "n_trials": 1})] + _e7_scenarios(1)
        )
        assert outcomes[0].status == "failed"
        assert outcomes[1].status == "completed"
        reloaded = FailureLedger(FailureLedger.path_for(store_path))
        assert reloaded.failed_keys() == [outcomes[0].key]
        failed = reloaded.outcomes()[outcomes[0].key]
        assert failed.status == "error" and "Traceback" in failed.error
        assert failed.elapsed >= 0.0 and failed.attempt == 1

    def test_ledger_disabled(self, tmp_path):
        store_path = str(tmp_path / "s.jsonl")
        runner = CampaignRunner(ResultStore(store_path), ledger=False)
        runner.run(_e7_scenarios(1))
        assert not os.path.exists(FailureLedger.path_for(store_path))


# ----------------------------------------------------------------------
# CLI: --timeout/--retries/--chaos/--retry-failed and the report
# ----------------------------------------------------------------------
class TestCliResilience:
    def test_chaos_quarantine_then_retry_failed(self, tmp_path, capsys):
        store = str(tmp_path / "cli.jsonl")
        base = ["run", "smoke", "--experiment", "E7", "--workers", "2",
                "--store", store]
        # Every attempt crashes: both E7 scenarios quarantine, exit 1.
        assert cli_main(base + ["--chaos", "worker_crash:p=1",
                                "--retries", "2", "--backoff", "0.01"]) == 1
        out = capsys.readouterr().out
        assert "QUAR" in out and "2 failed" in out
        assert len(ResultStore(store)) == 0

        # --retry-failed without chaos re-executes exactly that set.
        assert cli_main(base + ["--retry-failed"]) == 0
        out = capsys.readouterr().out
        assert "2 ran" in out and "0 cached" in out
        assert len(ResultStore(store)) == 2

        # Everything recovered: nothing left to retry.
        assert cli_main(base + ["--retry-failed"]) == 0
        assert "nothing to retry" in capsys.readouterr().out

        # A plain re-run is fully cached (nothing re-executed).
        assert cli_main(base) == 0
        assert "0 ran" in capsys.readouterr().out

        # The report surfaces the failure history from the ledger: the
        # quarantine-era crashes plus the recovering retry, with the
        # latest terminal outcome ("completed" after --retry-failed).
        assert cli_main(["report", "--store", store]) == 0
        report = capsys.readouterr().out
        assert "failure history" in report
        assert "crashed>crashed>ok" in report and "completed" in report

    def test_timeout_flag_kills_and_completes_siblings(self, tmp_path, capsys):
        store = str(tmp_path / "cli.jsonl")
        # worker_hang on attempt 1 of every scenario; --timeout reaps
        # them and the retries complete the campaign.
        args = ["run", "smoke", "--experiment", "E7", "--workers", "2",
                "--store", store, "--timeout", "1.0",
                "--chaos", "worker_hang:p=1,attempts=1",
                "--retries", "3", "--backoff", "0.01"]
        assert cli_main(args) == 0
        out = capsys.readouterr().out
        assert "2 ran" in out and "2 retried" in out

    def test_retry_failed_requires_ledger(self, tmp_path, capsys):
        assert cli_main(["run", "smoke", "--experiment", "E7",
                         "--no-store", "--retry-failed"]) == 2
        assert "--retry-failed needs a ledger" in capsys.readouterr().err

    def test_report_with_ledger_only(self, tmp_path, capsys):
        # A ledger full of failures but an empty store still reports.
        store = str(tmp_path / "cli.jsonl")
        ledger = FailureLedger(FailureLedger.path_for(store))
        ledger.record(AttemptRecord("kx", "E7", 1, "error",
                                    outcome="failed", error="RuntimeError: x"))
        assert cli_main(["report", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "failure history" in out and "kx" in out


# ----------------------------------------------------------------------
# Report helpers
# ----------------------------------------------------------------------
class TestFailureReport:
    def test_clean_history_is_omitted(self, tmp_path):
        ledger = FailureLedger(str(tmp_path / "l.jsonl"))
        ledger.record(AttemptRecord("clean", "E7", 1, "ok", outcome="completed"))
        assert failure_table(ledger) is None

    @pytest.mark.parametrize("batch", [1, 0])
    def test_troubled_history_is_shown(self, tmp_path, batch):
        # Every unit's first attempt crashes.  Batched or not, each
        # scenario's key holds both attempts and gets its report row.
        scenarios = [s for s in builtin_campaign("replicas")
                     if s.experiment == "E1"][:3]
        store = ResultStore(str(tmp_path / "s.jsonl"))
        CampaignRunner(
            store, workers=1, batch=batch, chaos="worker_crash:p=1,attempts=1",
            retry=RetryPolicy(max_attempts=3, backoff=0.01),
        ).run(scenarios)
        ledger = FailureLedger(FailureLedger.path_for(store.path))
        history = ledger.history()
        assert len(history) == len(scenarios)
        for records in history.values():
            assert [(r.attempt, r.status, r.outcome) for r in records] == [
                (1, "crashed", None), (2, "ok", "completed")]
        table = failure_table(ledger)
        assert len(table.rows) == len(scenarios)
        rendered = table.render()
        assert "crashed>ok" in rendered and "completed" in rendered

    def test_render_report_includes_ledger_section(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.jsonl"))
        ledger = FailureLedger(str(tmp_path / "l.jsonl"))
        ledger.record(AttemptRecord("k", "E7", 1, "timeout", outcome="timeout",
                                    error="scenario exceeded timeout"))
        text = render_report(store, ledger=ledger)
        assert "failure history" in text and "timeout" in text
