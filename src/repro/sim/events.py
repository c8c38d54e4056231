"""Event records for the discrete-event simulator.

Events carry an absolute firing time, a tie-breaking priority, a monotonically
increasing sequence number, and a callback.  The triple
``(time, priority, seq)`` gives a *total* order, which makes simulation runs
bit-reproducible: two events scheduled for the same instant always fire in
the order they were scheduled (or by explicit priority).

An :class:`Event` is the *handle* a caller gets back from
``schedule_at`` / ``schedule_after``: something to cancel and to inspect.
It is not what the heap orders -- the simulator's heap holds plain tuples
keyed by that triple (see :mod:`repro.sim.engine`), with the handle riding
along as the last field.  Fire-and-forget events
(:meth:`repro.sim.engine.Simulator.schedule_pooled`, the per-request path)
have no handle at all: the action and its bound arguments live in the heap
entry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable


class EventState(enum.Enum):
    """Lifecycle of a scheduled event."""

    PENDING = "pending"
    FIRED = "fired"
    CANCELLED = "cancelled"


@dataclass(slots=True)
class Event:
    """A single scheduled occurrence in simulated time.

    Parameters
    ----------
    time:
        Absolute simulated time at which the event fires.
    priority:
        Tie-breaker for events scheduled at the same time; lower fires first.
        Used e.g. to guarantee that VM state transitions are applied before
        the control-loop era boundary that reads them.
    seq:
        Scheduling sequence number, assigned by the simulator.  Final
        tie-breaker; guarantees FIFO order among equal (time, priority).
    action:
        Callable invoked (without arguments) when the event fires.
    label:
        Optional human-readable tag, kept for tracing/debugging.
    owner:
        The scheduling simulator, notified on cancellation so that its
        pending-event count stays O(1).
    """

    time: float
    priority: int
    seq: int
    action: Callable[[], None]
    label: str = ""
    state: EventState = field(
        default=EventState.PENDING, compare=False, init=False
    )
    owner: Any = field(default=None, compare=False, repr=False)

    @property
    def pending(self) -> bool:
        """Whether the event is still waiting to fire."""
        return self.state is EventState.PENDING

    def cancel(self) -> bool:
        """Mark the event cancelled.

        Returns ``True`` if the event was pending (and is now cancelled),
        ``False`` if it had already fired or been cancelled.  The simulator
        lazily discards cancelled events when they surface at the top of the
        heap, so cancellation is O(1).
        """
        if self.state is EventState.PENDING:
            self.state = EventState.CANCELLED
            if self.owner is not None:
                self.owner._note_cancelled()
            return True
        return False
