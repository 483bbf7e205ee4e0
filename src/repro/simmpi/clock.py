"""Per-rank virtual clocks.

Every simulated rank owns a :class:`VirtualClock`.  Compute intervals
and message/collective costs advance it; synchronizing operations set
it to the maximum over the participants.  All performance results of
the toolkit are read off these clocks (never the wall clock), which is
what makes the experiments deterministic and machine-parameterized.
"""

from __future__ import annotations

import math

from repro.utils.validation import check_non_negative

__all__ = ["VirtualClock"]


class VirtualClock:
    """A monotonically non-decreasing virtual clock (seconds)."""

    def __init__(self, start: float = 0.0):
        check_non_negative(start, "start")
        self._now = float(start)
        self._busy = 0.0
        self._idle = 0.0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def busy_time(self) -> float:
        """Accumulated time attributed to useful work (``advance``)."""
        return self._busy

    @property
    def idle_time(self) -> float:
        """Accumulated time spent waiting for others (``wait_until``)."""
        return self._idle

    def advance(self, seconds: float) -> float:
        """Advance the clock by a busy interval and return the new time."""
        if not 0.0 <= seconds < math.inf:  # NaN fails it too; the helper raises
            check_non_negative(seconds, "seconds")
        self._now += seconds
        self._busy += seconds
        return self._now

    def wait_until(self, time: float) -> float:
        """Advance the clock to ``time`` if that is in the future.

        The skipped interval is attributed to idle (synchronization)
        time.  Returns the new current time.
        """
        if time > self._now:
            self._idle += time - self._now
            self._now = time
        return self._now

    def copy(self) -> "VirtualClock":
        """Return an independent copy (used when respawning a rank)."""
        clone = VirtualClock(self._now)
        clone._busy = self._busy
        clone._idle = self._idle
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VirtualClock(now={self._now:.6g}, busy={self._busy:.6g}, "
            f"idle={self._idle:.6g})"
        )
