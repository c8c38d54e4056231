"""Flight recorder: a bounded ring of recent structured events.

Chaos campaigns fail late -- the interesting part is usually the last
few hundred events (drops, degradation ladder moves, elections, faults)
leading up to the failure.  The recorder keeps exactly those in a fixed
``deque``: O(1) append, bounded memory regardless of run length, dumped
automatically on failure or campaign end so post-mortems never require
re-running the scenario.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator

#: Events a recorder retains; older ones are evicted.
FLIGHT_CAPACITY = 512


@dataclass(slots=True)
class FlightEvent:
    """One structured event: a time, a dotted kind, and free-form data."""

    time: float
    kind: str
    data: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"time": self.time, "kind": self.kind, "data": dict(self.data)}


class FlightRecorder:
    """Ring buffer of the :data:`FLIGHT_CAPACITY` most recent
    :class:`FlightEvent` records.

    ``seen`` counts every event ever recorded, so a dump can state how
    many were evicted (``seen - len(recorder)``) -- a truncated timeline
    that looks complete is worse than no timeline.
    """

    def __init__(self) -> None:
        self._ring: deque[FlightEvent] = deque(maxlen=FLIGHT_CAPACITY)
        self.seen = 0

    def record(self, time: float, kind: str, **data: Any) -> None:
        self.seen += 1
        self._ring.append(FlightEvent(time=float(time), kind=kind, data=data))

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[FlightEvent]:
        return iter(self._ring)

    def events(self, kind_prefix: str = "") -> list[FlightEvent]:
        """Events in arrival order, optionally filtered by kind prefix."""
        return [e for e in self._ring if e.kind.startswith(kind_prefix)]

    def snapshot(self) -> dict:
        """JSON-ready dump: retained events plus eviction accounting."""
        return {
            "capacity": FLIGHT_CAPACITY,
            "seen": self.seen,
            "evicted": self.seen - len(self._ring),
            "events": [e.as_dict() for e in self._ring],
        }
