"""Non-blocking operation handles.

A :class:`Request` is returned by the two ``i``-prefixed operations of
every :class:`~repro.comm.base.BaseCommunicator`, ``isend`` and
``iallreduce``.  On the simulator, calling
:meth:`Request.wait` blocks (in wall-clock terms, briefly) until the
operation has completed on all participants, then advances the
caller's virtual clock to the operation's completion time -- unless the
caller has already moved past it, in which case the operation's latency
was fully hidden by overlapped work.  That is exactly the
latency-hiding mechanism the RBSP model exposes.  Real-process backends
complete collectives eagerly and hand back a :class:`CompletedRequest`.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["Request", "CompletedRequest"]


class Request:
    """Handle for an in-flight non-blocking operation.

    Parameters
    ----------
    wait_fn:
        Callable performing the actual completion.  It receives the
        request and must return the operation's result; it is also
        responsible for updating the caller's virtual clock.
    """

    def __init__(self, wait_fn: Callable[["Request"], Any]):
        self._wait_fn = wait_fn
        self._done = False
        self._result: Any = None

    def wait(self) -> Any:
        """Complete the operation and return its result.

        Idempotent: waiting twice returns the cached result.
        """
        if not self._done:
            self._result = self._wait_fn(self)
            self._done = True
        return self._result


class CompletedRequest(Request):
    """A request that was already complete when it was created.

    Used for degenerate cases (e.g. a non-blocking operation on a
    single-rank communicator) so callers can treat everything
    uniformly.
    """

    def __init__(self, result: Any = None):
        super().__init__(wait_fn=lambda _req: result)
        self._done = True
        self._result = result
