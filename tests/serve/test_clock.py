"""Units for the wall clock: same event-heap semantics as the simulator.

:class:`~repro.serve.clock.WallClock` keeps the simulator's
``(time, priority, seq)`` heap and only changes *when* events fire (real
elapsed time instead of a jumping virtual clock).  These tests pin the
part golden traces depend on: for any schedule, the **dispatch order**
is identical between the two clocks, because the order is a property of
the heap, not of the dispatch mechanism.  All wall runs are compressed
(``speed`` in the hundreds) so the suite stays fast.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.serve.clock import AsyncClock, WallClock
from repro.sim import SimClock, SimulationError
from repro.sim.events import EventState

#: A schedule that exercises ordering: interleaved times, a priority
#: tie-break at t=0.03, and a same-time same-priority FIFO pair.
SCHEDULE = (
    # (time, priority, label)
    (0.05, 0, "e"),
    (0.01, 0, "a"),
    (0.03, 5, "d-low-prio"),
    (0.03, -5, "b-high-prio"),
    (0.03, 0, "c1"),
    (0.03, 0, "c2"),
)


def _schedule_all(clock, fired):
    for t, prio, label in SCHEDULE:
        clock.schedule_at(
            t,
            (lambda lab: lambda: fired.append(lab))(label),
            priority=prio,
            label=label,
        )


def test_sim_wall_dispatch_order_parity():
    sim_fired: list[str] = []
    sim = SimClock()
    _schedule_all(sim, sim_fired)
    sim.run()

    wall_fired: list[str] = []
    # the deadlines are absolute and 100 us of wall time apart: hold the
    # clock at its origin until all six are on the heap, or a stall in
    # between clamps a late-scheduled early deadline ("a") behind "e"
    held = [time.monotonic()]
    wall = WallClock(
        speed=500.0, time_fn=lambda: held[0] if held else time.monotonic()
    )
    _schedule_all(wall, wall_fired)
    held.clear()
    asyncio.run(wall.run_for(0.1))

    assert sim_fired == wall_fired
    assert sim_fired == ["a", "b-high-prio", "c1", "c2", "d-low-prio", "e"]


def test_wall_clock_rejects_nonpositive_speed():
    with pytest.raises(ValueError):
        WallClock(speed=0.0)
    with pytest.raises(ValueError):
        WallClock(speed=-2.0)


def test_asyncclock_is_wallclock():
    assert AsyncClock is WallClock


def test_schedule_in_past_clamps_and_fires():
    """A deadline that lands microscopically in the past is "due now"."""
    wall = WallClock(speed=1000.0)
    time.sleep(0.005)  # let real time pass so 0.0 is firmly in the past
    fired = []
    event = wall.schedule_at(0.0, lambda: fired.append("x"))
    assert event.time >= 0.0
    asyncio.run(wall.run_for(0.5))
    assert fired == ["x"]
    # the clamp is for real deadlines; NaN is still a programming error
    with pytest.raises(SimulationError):
        wall.schedule_at(float("nan"), lambda: None)
    with pytest.raises(SimulationError):
        wall.schedule_pooled(float("nan"), lambda: None)


def test_now_is_monotonic_across_dispatch():
    wall = WallClock(speed=800.0)
    samples = []
    for k in range(5):
        wall.schedule_at(0.01 * (k + 1), lambda: samples.append(wall.now))
    asyncio.run(wall.run_for(0.1))
    samples.append(wall.now)
    assert samples == sorted(samples)
    assert wall.now >= 0.1  # run_for advanced the clock to its end


def test_periodic_fires_and_stopper_cancels():
    wall = WallClock(speed=500.0)
    ticks = []

    def tick():
        ticks.append(wall.now)
        if len(ticks) == 3:
            stop()

    stop = wall.schedule_periodic(0.02, tick, label="tick")
    asyncio.run(wall.run_for(0.5))
    assert len(ticks) == 3  # cancelled after the third firing
    # `now` readings are monotonic; no period-spacing assertion here --
    # a late wake-up legitimately dispatches two due firings back to back
    assert ticks == sorted(ticks)


def test_stop_exits_run_for_early():
    wall = WallClock(speed=100.0)
    wall.schedule_at(0.05, wall.stop)
    wall.schedule_at(500.0, lambda: pytest.fail("must not fire"))
    t0 = time.perf_counter()
    asyncio.run(wall.run_for(None))
    assert time.perf_counter() - t0 < 2.0


def test_speed_compresses_wall_time():
    """1.2 clock seconds at speed 200 must take ~6 ms wall, not 1.2 s."""
    wall = WallClock(speed=200.0)
    fired = []
    wall.schedule_at(1.0, lambda: fired.append("x"))
    t0 = time.perf_counter()
    asyncio.run(wall.run_for(1.2))
    assert time.perf_counter() - t0 < 1.0
    assert fired == ["x"]


def test_late_earlier_event_wakes_sleeping_dispatch():
    """Scheduling an earlier event mid-sleep must not wait out the sleep."""
    wall = WallClock(speed=50.0)
    fired = []
    # the dispatch loop will sleep toward this far-away event...
    wall.schedule_at(30.0, lambda: fired.append("far"))

    async def run():
        runner = asyncio.ensure_future(wall.run_for(None))
        await asyncio.sleep(0.01)
        # ...then a handler schedules something much earlier
        wall.schedule_after(0.1, lambda: (fired.append("near"), wall.stop()))
        await asyncio.wait_for(runner, timeout=5.0)

    asyncio.run(run())
    assert fired == ["near"]


def test_pooled_events_dispatch_on_wall_clock():
    wall = WallClock(speed=500.0)
    got = []
    wall.schedule_pooled(0.01, got.append, ("p1",))
    wall.schedule_pooled(0.02, got.append, ("p2",))
    asyncio.run(wall.run_for(0.1))
    assert got == ["p1", "p2"]


def test_cancelled_events_are_skipped():
    wall = WallClock(speed=500.0)
    fired = []
    keep = wall.schedule_at(0.02, lambda: fired.append("keep"))
    drop = wall.schedule_at(0.01, lambda: fired.append("drop"))
    drop.cancel()
    asyncio.run(wall.run_for(0.1))
    assert fired == ["keep"]
    assert keep.state is EventState.FIRED
    assert drop.state is EventState.CANCELLED


def test_a_stop_before_the_dispatcher_first_runs_ends_it():
    """``stop()`` between ``ensure_future(run_for(None))`` and the task's
    first step is not lost: the run returns at once, and the next run
    dispatches again."""
    wall = WallClock(speed=500.0)
    fired = []

    async def run():
        runner = asyncio.ensure_future(wall.run_for(None))
        wall.stop()
        assert await asyncio.wait_for(runner, timeout=5.0) == 0
        wall.schedule_after(0.01, lambda: fired.append("after"))
        await wall.run_for(0.1)

    asyncio.run(run())
    assert fired == ["after"]
