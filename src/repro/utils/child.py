"""One forked child process and the framed channel to its parent.

The paper's local-failure-local-recovery model asks a supervisor to
start a process, talk to it, notice promptly that it is gone, stop it
and reap it; campaign workers and shmem ranks both do that through
:class:`Child`.  :meth:`Child.start` forks with raw
``os.fork``; the new process closes every channel end it inherited but
does not own, runs its body, flushes stdout/stderr and always ends in
``os._exit``.  Each child has one duplex ``socketpair`` channel of
frames -- a length header and the pickled message, posted in one
``os.write`` (:func:`write_frame`; the shmem rank-to-rank pipes carry
the same frames).  Every read waits on ``select.poll`` with a finite
timeout, and a hang-up reads as ``EOFError``.  A child is the only
holder of its end, so the hang-up *is* its exit: :func:`stop_all`
sends a shutdown frame (``None``), waits for the hang-up and escalates
to ``SIGKILL``; both it and :meth:`Child.kill` reap the process and
report its exit code as :mod:`multiprocessing` does (``-9`` for
SIGKILL).
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import socket
import struct
import sys
import time
import traceback
from typing import Any, Callable, Iterable, List, Optional

__all__ = ["Channel", "Child", "stop_all", "wait_ready", "write_frame"]

#: Frame header: big-endian signed length of the pickled message after it.
_FRAME_HEADER = struct.Struct("!i")

#: Channel ends a process forked from this one must close: the parent
#: ends of the live children, and this process's own end if it is one.
_INHERITED: set = set()


def write_frame(fd: int, message: Any) -> None:
    """Post ``message`` as one frame, in one ``os.write`` unless a signal
    cuts it short.  Raises ``OSError`` when the reading end is gone."""
    body = pickle.dumps(message, 5)
    frame = memoryview(_FRAME_HEADER.pack(len(body)) + body)
    while frame:
        frame = frame[os.write(fd, frame):]


def _read_frame(fd: int) -> Any:
    """The next message on ``fd``, which ``poll`` reported readable."""
    (length,) = _FRAME_HEADER.unpack(_read_exact(fd, _FRAME_HEADER.size))
    return pickle.loads(_read_exact(fd, length))


def _read_exact(fd: int, n: int) -> bytes:
    """``n`` bytes from ``fd``, which may deliver a frame in pieces."""
    data = b""
    while len(data) < n:
        try:
            more = os.read(fd, n - len(data))
        except ConnectionResetError:  # a socket peer died with input unread
            more = b""
        if not more:
            raise EOFError(f"channel closed {len(data)} bytes into a {n}-byte read")
        data += more
    return data


def wait_ready(channels: Iterable["Channel"], timeout: float) -> List["Channel"]:
    """The ``channels`` with a frame or a hang-up to read within
    ``timeout`` seconds; with no channels, waits out the timeout."""
    poller = select.poll()
    by_fd = {}
    for channel in channels:
        poller.register(channel.fd, select.POLLIN)
        by_fd[channel.fd] = channel
    return [by_fd[fd] for fd, _events in poller.poll(timeout * 1000.0)]


class Channel:
    """One end of a framed channel (a socket, or a pipe's read end), by
    fd; reads wait on a ``select.poll`` object built once, here."""

    __slots__ = ("fd", "_poller")

    def __init__(self, fd: int):
        self.fd = fd
        self._poller = select.poll()
        self._poller.register(fd, select.POLLIN)

    def send(self, message: Any) -> None:
        """Post one frame; raises ``OSError`` if the other end is gone."""
        write_frame(self.fd, message)

    def poll(self, timeout: float) -> bool:
        """Whether a frame or the hang-up arrives within ``timeout`` seconds."""
        return bool(self._poller.poll(timeout * 1000.0))

    def recv(self, deadline: float) -> Any:
        """The next message by ``deadline`` (``time.monotonic``), or one
        already waiting; ``TimeoutError`` if none, ``EOFError`` on hang-up."""
        if not self.poll(max(deadline - time.monotonic(), 0.0)):
            raise TimeoutError("no message before the deadline")
        return _read_frame(self.fd)


class Child(Channel):
    """A forked process and the parent's end of its channel."""

    __slots__ = ("pid", "exitcode")

    def __init__(self, fd: int, pid: int):
        super().__init__(fd)
        self.pid = pid
        self.exitcode: Optional[int] = None

    @classmethod
    def start(cls, body: Callable[..., Optional[int]], *args: Any) -> "Child":
        """Fork a process that runs ``body(channel, *args)`` on its end of
        the channel; the return value is the exit code (``None`` is 0),
        and an exception is printed and exits 1."""
        parent_fd, child_fd = (end.detach() for end in socket.socketpair())
        # Buffered output would otherwise be written by both processes.
        _flush_std_streams()
        try:
            pid = os.fork()
        except BaseException:
            os.close(parent_fd)
            os.close(child_fd)
            raise
        if pid == 0:
            os.close(parent_fd)
            _run_child(body, child_fd, args)
        os.close(child_fd)
        _INHERITED.add(parent_fd)
        return cls(parent_fd, pid)

    def alive(self) -> bool:
        """Whether the process still runs; reaps it, without blocking, if not."""
        if self.exitcode is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self.exitcode = os.waitstatus_to_exitcode(status)
        return self.exitcode is None

    def kill(self) -> int:
        """SIGKILL the process unless it is reaped; reap it, close the channel."""
        if self.exitcode is None:
            os.kill(self.pid, signal.SIGKILL)
        return self._reap()

    def stop(self, grace: float) -> int:
        """Shutdown frame, up to ``grace`` seconds to exit, then SIGKILL."""
        stop_all([self], grace)
        return self.exitcode

    def _reap(self) -> int:
        if self.exitcode is None:
            _pid, status = os.waitpid(self.pid, 0)
            self.exitcode = os.waitstatus_to_exitcode(status)
        if self.fd >= 0:
            _INHERITED.discard(self.fd)
            os.close(self.fd)
            self.fd = -1
        return self.exitcode


def stop_all(children: Iterable[Child], grace: float) -> None:
    """Stop ``children`` together and reap every one.

    Each gets a shutdown frame; then all share one ``grace`` period to
    hang up, and a child still running at its end is SIGKILLed.
    """
    children = list(children)
    for child in children:
        try:
            write_frame(child.fd, None)
        except OSError:  # already gone
            pass
    deadline = time.monotonic() + grace
    for child in children:
        if child.exitcode is None:
            hangup = select.poll()
            hangup.register(child.fd, 0)  # a hang-up is reported whatever the mask
            if not hangup.poll(max(deadline - time.monotonic(), 0.0) * 1000.0):
                os.kill(child.pid, signal.SIGKILL)
        child._reap()


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError, OSError):  # None, closed, gone
            pass


def _run_child(body: Callable[..., Optional[int]], fd: int, args: tuple) -> None:
    """The forked process: never returns (``os._exit``)."""
    code = 1
    try:
        for inherited in _INHERITED:
            os.close(inherited)
        _INHERITED.clear()
        _INHERITED.add(fd)
        code = body(Channel(fd), *args) or 0
    except BaseException:  # noqa: BLE001 - reported on stderr, exits 1
        traceback.print_exc()
    finally:
        _flush_std_streams()
        os._exit(code)
