"""The discrete-event simulation engine.

A minimal, deterministic, callback-based DES core:

* a binary heap of plain tuples ``(time, priority, seq, action, args,
  event_or_None)``: ``seq`` is unique, so ordering is a C tuple compare
  that is decided within the ``(time, priority, seq)`` prefix and never
  reaches ``action``;
* a simulation clock that only moves forward;
* lazy cancellation (cancelled events are dropped when popped), with O(1)
  pending-event accounting -- only entries that carry an
  :class:`~repro.sim.events.Event` handle (last field) can be cancelled;
* a fire-and-forget path (:meth:`Simulator.schedule_pooled`) whose heap
  entry *is* the whole event -- no handle, nothing allocated besides the
  tuple -- so request-granularity workloads create no ``Event`` per click;
* periodic-event helpers used by the control loop (eras) and the feature
  monitors (sampling intervals); the recurrence re-arms a single ``Event``
  handle instead of allocating one per occurrence.

The engine deliberately avoids threads, wall-clock time, and global state so
that every run is exactly reproducible from its seed (see
:mod:`repro.sim.rng`).  This follows the HPC guidance used for this
reproduction: keep the event dispatch loop in plain Python (it is intrinsic
control flow) and push numerical work into vectorised NumPy inside the
callbacks.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable

from repro.sim.events import Event, EventState

if TYPE_CHECKING:
    from repro.obs.telemetry import Telemetry


class SimulationError(RuntimeError):
    """Raised on invalid simulator usage (e.g. scheduling in the past)."""


class Simulator:
    """Deterministic discrete-event simulator.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule_at(5.0, lambda: fired.append(sim.now))
    >>> _ = sim.schedule_at(2.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [2.0, 5.0]
    """

    def __init__(self, telemetry: "Telemetry | None" = None) -> None:
        self._now = 0.0
        #: ``(time, priority, seq, action, args, event_or_None)`` entries
        self._heap: list[tuple] = []
        self._seq = 0
        self._fired_count = 0
        self._running = False
        self._stopped = False
        self._cancelled_in_heap = 0
        # Telemetry attaches by handle so the per-event cost when disabled
        # is a single is-None check (the dispatch loop is the hottest loop
        # in the repo -- see benchmarks/bench_hotpath.py).
        self._obs_dispatched = None
        if telemetry is not None and telemetry.enabled:
            telemetry.set_clock(lambda: self._now)
            self._obs_dispatched = telemetry.counter("sim_events_dispatched_total")

    # ------------------------------------------------------------------ #
    # clock
    # ------------------------------------------------------------------ #

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def pending_count(self) -> int:
        """Number of events still pending in the heap (excludes cancelled).

        O(1): the heap length minus the cancelled events awaiting lazy
        removal (tracked via :meth:`_note_cancelled`).
        """
        return len(self._heap) - self._cancelled_in_heap

    @property
    def fired_count(self) -> int:
        """Total number of events dispatched so far."""
        return self._fired_count

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #

    def schedule_at(
        self,
        time: float,
        action: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` at absolute simulated time ``time``.

        Raises
        ------
        SimulationError
            If ``time`` precedes the current clock (or is NaN, which
            orders against nothing and would corrupt the heap).
        """
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self._now}"
            )
        event = Event(
            time=float(time),
            priority=priority,
            seq=self._seq,
            action=action,
            label=label,
            owner=self,
        )
        heapq.heappush(
            self._heap, (event.time, priority, self._seq, action, (), event)
        )
        self._seq += 1
        return event

    def schedule_after(
        self,
        delay: float,
        action: Callable[[], None],
        *,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` after a relative ``delay`` (must be >= 0), at
        priority 0."""
        if not delay >= 0.0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, action, label=label)

    def schedule_pooled(
        self,
        delay: float,
        action: Callable[..., None],
        args: tuple = (),
    ) -> None:
        """Fire-and-forget fast path: ``action(*args)`` after ``delay``.

        Unlike :meth:`schedule_after`, no :class:`Event` handle is
        returned and the event cannot be cancelled; in exchange the heap
        entry is the whole event, so a million-request DES run allocates
        no ``Event`` at all.  This is the scheduling call of the
        per-request hot path
        (:class:`repro.core.des_loop.DesControlLoop`).
        """
        if not delay >= 0.0:
            raise SimulationError(f"negative delay {delay}")
        heapq.heappush(
            self._heap, (self._now + delay, 0, self._seq, action, args, None)
        )
        self._seq += 1

    def schedule_periodic(
        self,
        period: float,
        action: Callable[[], None],
        *,
        start: float | None = None,
        label: str = "",
    ) -> Callable[[], None]:
        """Fire ``action`` every ``period`` simulated seconds, at priority 0.

        The first firing happens at ``start`` (defaults to ``now + period``).
        Returns a zero-argument *stop* function: calling it cancels the next
        pending occurrence and stops the recurrence.

        The recurrence is a pool-of-one: the same ``Event`` handle is
        re-armed for every occurrence (homogeneous periodic events --
        monitors, era ticks -- dominate long runs, and re-arming avoids
        allocating one event per period).
        """
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")
        stopped = {"flag": False}
        slot: dict[str, Event] = {}

        def fire() -> None:
            if stopped["flag"]:
                return
            action()
            if not stopped["flag"]:
                # re-arm the same Event with a fresh sequence number
                event = slot["event"]
                event.time = self._now + period
                event.seq = self._seq
                event.state = EventState.PENDING
                heapq.heappush(
                    self._heap,
                    (event.time, 0, self._seq, fire, (), event),
                )
                self._seq += 1

        first = self._now + period if start is None else start
        slot["event"] = self.schedule_at(first, fire, label=label)

        def stop() -> None:
            stopped["flag"] = True
            slot["event"].cancel()

        return stop

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def _note_cancelled(self) -> None:
        """Bookkeeping hook called by :meth:`Event.cancel`."""
        self._cancelled_in_heap += 1

    def _peek(self) -> float | None:
        """Time of the next event to fire (``None`` on an empty heap),
        discarding lazily-cancelled heads on the way."""
        heap = self._heap
        while heap:
            head = heap[0]
            event = head[5]
            if event is not None and event.state is EventState.CANCELLED:
                heapq.heappop(heap)
                self._cancelled_in_heap -= 1
                continue
            return head[0]
        return None

    def step(self) -> bool:
        """Dispatch the single next pending event.

        Returns whether an event fired; ``False`` means the heap is empty
        (cancelled events are silently discarded).
        """
        if self._peek() is None:
            return False
        time, _, _, action, args, event = heapq.heappop(self._heap)
        if event is not None:
            event.state = EventState.FIRED
        self._now = time
        self._fired_count += 1
        if self._obs_dispatched is not None:
            self._obs_dispatched.inc()
        action(*args)
        return True

    def run(self, *, max_events: int | None = None) -> int:
        """Run until the event heap drains (or ``max_events`` dispatched).

        Returns the number of events dispatched by this call.
        """
        dispatched = 0
        self._stopped = False
        while not self._stopped:
            if max_events is not None and dispatched >= max_events:
                break
            if not self.step():
                break
            dispatched += 1
        return dispatched

    def run_until(self, end_time: float) -> int:
        """Run all events with ``time <= end_time``; advance clock to it.

        Returns the number of events dispatched.  The clock is left exactly at
        ``end_time`` even if the last event fired earlier, so subsequent
        relative scheduling behaves intuitively.
        """
        if not end_time >= self._now:
            raise SimulationError(
                f"run_until({end_time}) precedes current time {self._now}"
            )
        dispatched = 0
        self._stopped = False
        heap = self._heap
        # the per-request loop of every DES run: step()'s body inline, so
        # an event costs one heappop and no method call besides its action
        while heap and not self._stopped:
            time, _, _, action, args, event = heap[0]
            if event is not None and event.state is EventState.CANCELLED:
                heapq.heappop(heap)
                self._cancelled_in_heap -= 1
                continue
            if time > end_time:
                break
            heapq.heappop(heap)
            if event is not None:
                event.state = EventState.FIRED
            self._now = time
            self._fired_count += 1
            if self._obs_dispatched is not None:
                self._obs_dispatched.inc()
            action(*args)
            dispatched += 1
        self._now = max(self._now, end_time)
        return dispatched

    def stop(self) -> None:
        """Request the current :meth:`run`/:meth:`run_until` loop to exit.

        Safe to call from inside an event callback; the event being processed
        completes, then the loop returns.
        """
        self._stopped = True

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def pending_events(self) -> list[Event]:
        """Snapshot of pending handle events, in firing order (for
        tests/debugging; fire-and-forget entries have no handle)."""
        # seq is unique, so sorting the entries never compares past it
        return [
            entry[5]
            for entry in sorted(self._heap)
            if entry[5] is not None and entry[5].pending
        ]
