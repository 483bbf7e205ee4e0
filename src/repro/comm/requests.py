"""Non-blocking operation handles.

A :class:`Request` is returned by the ``i``-prefixed operations of
every :class:`~repro.comm.base.BaseCommunicator` (``isend``, ``irecv``,
``iallreduce``, ``ibarrier``, ...).  On the simulator, calling
:meth:`Request.wait` blocks (in wall-clock terms, briefly) until the
operation has completed on all participants, then advances the
caller's virtual clock to the operation's completion time -- unless the
caller has already moved past it, in which case the operation's latency
was fully hidden by overlapped work.  That is exactly the
latency-hiding mechanism the RBSP model exposes.  Real-process backends
complete collectives eagerly and hand back a :class:`CompletedRequest`.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

__all__ = ["Request", "CompletedRequest", "waitall", "waitany"]


class Request:
    """Handle for an in-flight non-blocking operation.

    Parameters
    ----------
    wait_fn:
        Callable performing the actual completion.  It receives the
        request and must return the operation's result; it is also
        responsible for updating the caller's virtual clock.
    operation:
        Name used in error messages.
    """

    def __init__(self, wait_fn: Callable[["Request"], Any], operation: str = "request"):
        self._wait_fn = wait_fn
        self.operation = operation
        self._done = False
        self._result: Any = None

    @property
    def completed(self) -> bool:
        """Whether :meth:`wait` has already returned."""
        return self._done

    def wait(self) -> Any:
        """Complete the operation and return its result.

        Idempotent: waiting twice returns the cached result.
        """
        if not self._done:
            self._result = self._wait_fn(self)
            self._done = True
        return self._result

    def test(self) -> bool:
        """Non-blocking completion probe.

        The simulated runtime completes operations eagerly in data
        terms (payloads are available as soon as all participants have
        posted), so ``test`` simply reports whether ``wait`` has been
        called.  It never forces completion.
        """
        return self._done

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "completed" if self._done else "pending"
        return f"Request({self.operation}, {state})"


class CompletedRequest(Request):
    """A request that was already complete when it was created.

    Used for degenerate cases (e.g. a non-blocking operation on a
    single-rank communicator) so callers can treat everything
    uniformly.
    """

    def __init__(self, result: Any = None, operation: str = "request"):
        super().__init__(wait_fn=lambda _req: result, operation=operation)
        self._done = True
        self._result = result


def waitall(requests: Sequence[Request]) -> List[Any]:
    """Complete every request; results in *request* order.

    The MPI ``Waitall`` analogue: the result list lines up with the
    input list regardless of the order completions actually happen in,
    so ``waitall([isend(...), irecv(...)])[1]`` is always the received
    payload.
    """
    return [request.wait() for request in requests]


def waitany(requests: Sequence[Request]) -> Tuple[int, Any]:
    """Complete one request; returns ``(index, result)``.

    The MPI ``Waitany`` analogue.  Already-completed requests (their
    :meth:`~Request.test` is true) are preferred -- lowest index first
    -- so overlapped work that has finished is drained before anything
    blocks; only when none has completed is the first pending request
    waited on.
    """
    if not requests:
        raise ValueError("waitany requires at least one request")
    for index, request in enumerate(requests):
        if request.test():
            return index, request.wait()
    return 0, requests[0].wait()
