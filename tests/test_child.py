"""Tests for the one child-process lifecycle (repro.utils.child).

A :class:`Child` is forked with raw ``os.fork``, talks frames over one
channel, reads with bounded polls, and is stopped (shutdown frame,
hang-up, SIGKILL escalation) or killed and always reaped.  The campaign
executor's workers and the shmem launcher's ranks both run on it, so
the fork-failure cases drive both callers: every child that started is
reaped before the error reaches the caller.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.campaign.executor import SupervisedExecutor
from repro.comm.shmem import launch_shmem
from repro.utils.child import Child, stop_all


def _echo(channel):
    """Sends back every message until the shutdown frame (``None``)."""
    while True:
        message = channel.recv(time.monotonic() + 5.0)
        if message is None:
            return 7
        channel.send(("echo", message))


def _exit_with(channel, code):
    return code


def _raise(channel):
    raise RuntimeError("body failed")


def _ignore_shutdown(channel):
    time.sleep(60.0)


def _holds_fd(channel, fd):
    """Exit 0 when ``fd`` is closed in this process, 1 when it is open."""
    try:
        os.fstat(fd)
    except OSError:
        return 0
    return 1


class TestChild:
    def test_frames_round_trip_and_stop_reports_the_exit_code(self):
        child = Child.start(_echo)
        payload = {"a": [1, 2.5, None], "b": b"\x00" * 100_000}
        child.send(payload)
        assert child.recv(time.monotonic() + 5.0) == ("echo", payload)
        assert child.stop(grace=5.0) == 7
        with pytest.raises(ChildProcessError):  # reaped
            os.waitpid(child.pid, os.WNOHANG)

    def test_body_return_and_exception_are_exit_codes(self):
        children = [Child.start(_exit_with, 0), Child.start(_exit_with, 5),
                    Child.start(_raise)]
        for child in children:
            with pytest.raises(EOFError):  # the hang-up is the exit
                child.recv(time.monotonic() + 5.0)
        assert [child.kill() for child in children] == [0, 5, 1]

    def test_recv_times_out_without_sleeping(self, monkeypatch):
        child = Child.start(_echo)

        def no_sleep(_seconds):
            raise AssertionError("recv slept")

        monkeypatch.setattr(time, "sleep", no_sleep)
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            child.recv(start + 0.1)
        assert 0.1 <= time.monotonic() - start < 2.0
        assert child.alive()
        assert child.stop(grace=5.0) == 7

    def test_stop_escalates_to_sigkill_at_the_grace(self):
        child = Child.start(_ignore_shutdown)
        start = time.monotonic()
        assert child.stop(grace=0.2) == -signal.SIGKILL
        assert 0.2 <= time.monotonic() - start < 5.0

    def test_kill_reports_the_signal_like_multiprocessing(self):
        child = Child.start(_ignore_shutdown)
        assert child.kill() == -signal.SIGKILL
        assert child.kill() == -signal.SIGKILL  # idempotent once reaped
        assert not child.alive()

    def test_stop_all_shares_one_grace(self):
        children = [Child.start(_ignore_shutdown) for _ in range(3)]
        start = time.monotonic()
        stop_all(children, grace=0.2)
        assert time.monotonic() - start < 0.2 * len(children) + 1.0
        assert [child.exitcode for child in children] == [-signal.SIGKILL] * 3

    def test_a_child_closes_its_siblings_parent_ends(self):
        sibling = Child.start(_ignore_shutdown)
        probe = Child.start(_holds_fd, sibling.fd)
        with pytest.raises(EOFError):
            probe.recv(time.monotonic() + 5.0)
        assert probe.kill() == 0
        assert sibling.kill() == -signal.SIGKILL


# ----------------------------------------------------------------------
# A failed fork reaps every child already started, in both callers
# ----------------------------------------------------------------------
def _fail_second_fork(monkeypatch):
    real_fork = os.fork
    calls = []

    def fork():
        calls.append(1)
        if len(calls) == 2:
            raise BlockingIOError("fork refused")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)


def _ok_execute(experiment, params, attempt=1):
    return {"i": params["i"]}, None, 0.0


def _allreduce_program(comm):
    return comm.allreduce(comm.rank + 1)


def test_executor_fork_failure_reaps_started_workers(monkeypatch):
    _fail_second_fork(monkeypatch)
    tasks = [(f"k{i}", "EX", {"i": i}) for i in range(4)]
    with pytest.raises(BlockingIOError):
        SupervisedExecutor(workers=2, execute=_ok_execute).run(tasks)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_launch_shmem_fork_failure_reaps_started_ranks(monkeypatch):
    _fail_second_fork(monkeypatch)
    start = time.monotonic()
    with pytest.raises(BlockingIOError):
        launch_shmem(2, _allreduce_program, timeout=2.0)
    # Rank 0 saw its peer's pipe hang up at once, not at the op timeout.
    assert time.monotonic() - start < 2.0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
