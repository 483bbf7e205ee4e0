"""Structured event logging.

Fault injectors, the simulated communicator and resilience managers
record what happened (a flip was injected, a rank died, recovery
completed) as :class:`Event` records in an :class:`EventLog`.  Tests
and experiments then assert on the log rather than on printed output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["Event", "EventLog"]


@dataclass(frozen=True)
class Event:
    """A single structured log record.

    Attributes
    ----------
    kind:
        Short machine-readable category, e.g. ``"bitflip"``,
        ``"check_failed"``, ``"rank_failure"``, ``"recovery"``.
    time:
        Virtual time at which the event occurred (seconds), or ``None``
        when the producing component has no notion of time.
    rank:
        Simulated rank associated with the event, or ``None``.
    details:
        Free-form dictionary with event-specific fields.
    """

    kind: str
    time: Optional[float] = None
    rank: Optional[int] = None
    details: Dict[str, Any] = field(default_factory=dict)

    def matches(self, kind: Optional[str] = None, rank: Optional[int] = None) -> bool:
        """Return ``True`` if the event matches the given filters."""
        if kind is not None and self.kind != kind:
            return False
        if rank is not None and self.rank != rank:
            return False
        return True


class EventLog:
    """An append-only list of :class:`Event` records with query helpers."""

    def __init__(self) -> None:
        self._events: List[Event] = []

    def record(
        self,
        kind: str,
        *,
        time: Optional[float] = None,
        rank: Optional[int] = None,
        **details: Any,
    ) -> Event:
        """Create, store and return a new event."""
        event = Event(kind=kind, time=time, rank=rank, details=dict(details))
        self._events.append(event)
        return event

    def select(self, kind: Optional[str] = None, rank: Optional[int] = None) -> List[Event]:
        """Return events matching the given filters."""
        return [event for event in self._events if event.matches(kind=kind, rank=rank)]

    def count(self, kind: Optional[str] = None, rank: Optional[int] = None) -> int:
        """Count events matching the filters."""
        return len(self.select(kind=kind, rank=rank))

    def kinds(self) -> List[str]:
        """Return the distinct event kinds, in first-seen order."""
        seen: List[str] = []
        for event in self._events:
            if event.kind not in seen:
                seen.append(event.kind)
        return seen
