"""The Clock abstraction: one scheduling interface, two time sources.

Everything in this reproduction that needs a timer -- the DES request
loop, control-era ticks, the overlay's heartbeat/gossip periods, and the
:class:`~repro.overlay.reliable.ReliableChannel` retry/backoff ladder --
schedules against the same five-method surface:

* ``now`` -- the current time in *clock seconds*;
* ``schedule_at`` / ``schedule_after`` -- one-shot events (cancellable
  handle);
* ``schedule_pooled`` -- the fire-and-forget hot path (no handle: the
  heap entry is the whole event);
* ``schedule_periodic`` -- re-armed recurrences (era ticks, monitors).

:class:`Clock` names that surface as a structural protocol.  Two
implementations exist:

* :data:`SimClock` -- the discrete-event
  :class:`~repro.sim.engine.Simulator` itself (virtual time, events fire
  back-to-back, bit-identical replays).  ``SimClock`` *is* ``Simulator``:
  the alias guarantees that threading the abstraction through the engine
  cannot perturb a single golden trace.
* :class:`~repro.serve.clock.WallClock` -- the same event heap (through
  the inherited ``step`` and ``_peek``, never its entries) driven by
  ``asyncio`` against real elapsed time (optionally speed-scaled), used
  by the ``repro serve`` wall-clock runtime.

Code that takes a clock should annotate the parameter as :class:`Clock`
and never assume virtual time semantics beyond "events fire in
``(time, priority, seq)`` order with a monotonic ``now``" -- the
property the sim/wall parity tests pin.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

from repro.sim.engine import Simulator
from repro.sim.events import Event


@runtime_checkable
class Clock(Protocol):
    """Structural protocol of a time source + event scheduler.

    :class:`~repro.sim.engine.Simulator` (virtual time) and
    :class:`~repro.serve.clock.WallClock` (real time) both satisfy it;
    consumers must not depend on which one they were given.
    """

    @property
    def now(self) -> float:
        """Current time in clock seconds (monotonic, never decreases)."""
        ...

    def schedule_at(
        self,
        time: float,
        action: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` at absolute clock time ``time``."""
        ...

    def schedule_after(
        self,
        delay: float,
        action: Callable[[], None],
        *,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` after ``delay`` clock seconds (>= 0)."""
        ...

    def schedule_pooled(
        self,
        delay: float,
        action: Callable[..., None],
        args: tuple = (),
    ) -> None:
        """Fire-and-forget fast path (no handle, not cancellable)."""
        ...

    def schedule_periodic(
        self,
        period: float,
        action: Callable[[], None],
        *,
        start: float | None = None,
        label: str = "",
    ) -> Callable[[], None]:
        """Fire ``action`` every ``period`` clock seconds; returns stop()."""
        ...

    def stop(self) -> None:
        """Request the running dispatch loop to exit."""
        ...


#: The simulated-time clock: the DES engine itself.  An alias (not a
#: subclass) so that ``SimClock() is``-for-``is`` the engine every
#: existing run constructs -- the golden-trace guard test relies on the
#: two being literally the same class.
SimClock = Simulator
