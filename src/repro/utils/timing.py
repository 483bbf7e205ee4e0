"""Kernel time and call counters of the solver hot paths.

Wall-clock timing in this toolkit is only ever used for *reporting
overheads of the reproduction itself* (where a solve spends its time).
All performance results that reproduce the paper's claims use
the *virtual* time maintained by :mod:`repro.comm.simstate` and the
analytic models in :mod:`repro.machine`, so they are deterministic.
"""

from __future__ import annotations

import time
from typing import Dict

__all__ = ["KernelCounters"]


class KernelCounters:
    """Wall-clock and call-count accounting for solver hot-path kernels.

    The Krylov solvers charge every matvec, orthogonalization pass and
    preconditioner application here and attach the totals to
    ``SolveResult.info["kernels"]``, so experiments and benchmarks can
    report *where* solve time goes rather than only how much there is.
    The bookkeeping is two dict updates per charge (``perf_counter``
    pairs), cheap enough for inner loops.

    Examples
    --------
    >>> kernels = KernelCounters()
    >>> t0 = kernels.tick()
    >>> _ = sum(range(100))
    >>> kernels.charge("matvec", t0)
    >>> kernels.counts["matvec"]
    1
    """

    __slots__ = ("counts", "seconds")

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}

    @staticmethod
    def tick() -> float:
        """Return a timestamp to later pass to :meth:`charge`."""
        return time.perf_counter()

    def charge(self, kernel: str, since: float, *, calls: int = 1) -> None:
        """Add elapsed time since ``since`` (and ``calls`` calls) to ``kernel``."""
        self.seconds[kernel] = self.seconds.get(kernel, 0.0) + (
            time.perf_counter() - since
        )
        self.counts[kernel] = self.counts.get(kernel, 0) + calls

    def add(self, kernel: str, seconds: float, *, calls: int = 1) -> None:
        """Add a pre-measured duration to ``kernel``.

        Hot loops sample :meth:`tick` once between adjacent kernels and
        charge the deltas, halving the timer calls versus one
        tick/charge pair per kernel.
        """
        self.seconds[kernel] = self.seconds.get(kernel, 0.0) + seconds
        self.counts[kernel] = self.counts.get(kernel, 0) + calls

    def merge_dict(self, payload: Dict[str, Dict[str, float]]) -> None:
        """Fold an :meth:`as_dict`-shaped payload into this counter set.

        This is how composite solvers aggregate the
        ``info["kernels"]`` dictionaries of the solves they drive.
        """
        for key, value in payload.get("seconds", {}).items():
            self.seconds[key] = self.seconds.get(key, 0.0) + value
        for key, value in payload.get("counts", {}).items():
            self.counts[key] = self.counts.get(key, 0) + value

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """``{"counts": {...}, "seconds": {...}}`` for ``SolveResult.info``."""
        return {"counts": dict(self.counts), "seconds": dict(self.seconds)}
