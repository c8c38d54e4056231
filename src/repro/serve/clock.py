"""Wall-clock implementation of the :class:`~repro.sim.clock.Clock` protocol.

:class:`WallClock` keeps the :class:`~repro.sim.engine.Simulator` event
heap -- same ``(time, priority, seq)`` ordering, same fire-and-forget fast
path, same periodic re-arming -- but dispatches it against *real elapsed
time* from inside an asyncio event loop.  Where the simulator jumps its
clock to the next event, the wall clock ``await``-sleeps until that
event's time arrives (or a new, earlier event is scheduled, which wakes
the dispatch loop).

Time is measured in *clock seconds*: ``speed`` clock seconds elapse per
wall second (default 1.0).  Tests run compressed deployments -- e.g.
``speed=50`` makes a 30 s control era tick every 0.6 wall seconds --
without touching any timer constant in the code under test.

The dispatch loop is single-threaded: HTTP handlers, era ticks, and
retry timers all run on the one asyncio loop, so no locking is needed
anywhere in the control plane (mirroring the simulator's run loop).
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable

from repro.sim.engine import Simulator


class WallClock(Simulator):
    """The simulator's event heap, driven by real time under asyncio.

    Parameters
    ----------
    speed:
        Clock seconds per wall second (> 0).  1.0 is real time; larger
        values compress -- timers, eras, and backoff ladders all scale
        together because every component reads the same clock.
    time_fn:
        Monotonic wall-time source (injectable for tests); defaults to
        :func:`time.monotonic`.
    """

    def __init__(
        self,
        speed: float = 1.0,
        time_fn: Callable[[], float] = time.monotonic,
    ) -> None:
        if speed <= 0:
            raise ValueError("speed must be positive")
        super().__init__()
        self.speed = float(speed)
        self._time_fn = time_fn
        self._origin = time_fn()
        self._waiter: asyncio.Event | None = None

    # ------------------------------------------------------------------ #
    # time
    # ------------------------------------------------------------------ #

    def elapsed(self) -> float:
        """Clock seconds since construction (continuous, wall-derived)."""
        return (self._time_fn() - self._origin) * self.speed

    @property
    def now(self) -> float:
        """Current clock time.

        The max of the heap clock (last dispatched event time) and real
        elapsed time, so ``now`` is monotonic even while the dispatch
        loop replays a burst of due events whose stamps lag the wall.
        """
        elapsed = self.elapsed()
        return self._now if self._now > elapsed else elapsed

    def _sync(self) -> None:
        """Advance the heap clock to real elapsed time."""
        elapsed = self.elapsed()
        if elapsed > self._now:
            self._now = elapsed

    # ------------------------------------------------------------------ #
    # scheduling -- sync to the wall first, then wake the dispatch loop
    # (a handler may schedule an event earlier than the current sleep)
    # ------------------------------------------------------------------ #

    def schedule_at(self, time, action, *, priority=0, label=""):
        self._sync()
        if time < self._now:
            # A deadline computed moments ago can land microscopically in
            # the past by the time it is scheduled; on a wall clock that
            # means "due now", not a programming error like in the DES.
            time = self._now
        event = super().schedule_at(
            time, action, priority=priority, label=label
        )
        self._wake()
        return event

    def schedule_pooled(self, delay, action, args=()):
        self._sync()
        super().schedule_pooled(delay, action, args)
        self._wake()

    # schedule_after / schedule_periodic delegate to schedule_at and the
    # periodic re-arm pushes with event.time = _now + period, which is
    # correct under _sync(); no overrides needed.

    def stop(self) -> None:
        super().stop()
        self._wake()

    def _wake(self) -> None:
        if self._waiter is not None:
            self._waiter.set()

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #

    async def run_for(self, duration_s: float | None = None) -> int:
        """Dispatch events against real time for ``duration_s`` clock
        seconds (forever when ``None``); returns events dispatched.

        Exits early when :meth:`stop` is called, also when the call came
        before this coroutine first ran (a task created but not yet
        scheduled): the run that returns consumes the stop.  Between
        events the coroutine sleeps, yielding the asyncio loop to HTTP
        handlers and anything else sharing it; scheduling a new event
        wakes it.
        """
        if self._waiter is None:
            self._waiter = asyncio.Event()
        self._sync()
        end = None if duration_s is None else self._now + float(duration_s)
        dispatched = 0
        try:
            while not self._stopped:
                self._sync()
                due = self._peek()
                while (
                    due is not None
                    and due <= self._now
                    and (end is None or due <= end)
                ):
                    self.step()
                    dispatched += 1
                    if self._stopped:
                        return dispatched
                    due = self._peek()
                if end is not None and self.elapsed() >= end:
                    self._now = max(self._now, end)
                    return dispatched
                target = due
                if end is not None and (target is None or target > end):
                    target = end
                self._waiter.clear()
                if target is None:
                    # idle: no pending events, no deadline -- sleep until
                    # a schedule or stop() wakes us
                    await self._waiter.wait()
                    continue
                wait_wall = (target - self.elapsed()) / self.speed
                if wait_wall > 0:
                    try:
                        await asyncio.wait_for(
                            self._waiter.wait(), timeout=wait_wall
                        )
                    except asyncio.TimeoutError:
                        pass
            return dispatched
        finally:
            self._stopped = False


#: Alias used in async-facing signatures; same class.
AsyncClock = WallClock
