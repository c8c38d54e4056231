"""Tests for the engine's hot-path affordances.

The fire-and-forget scheduling path (``schedule_pooled``: the heap entry
is the whole event, no ``Event`` is allocated), O(1) pending-event
accounting, and the re-armed (pool of one) periodic recurrence.
"""

import math
import weakref

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import Event


class TestSchedulePooled:
    def test_fires_with_bound_args(self):
        sim = Simulator()
        seen = []
        sim.schedule_pooled(2.0, lambda a, b: seen.append((sim.now, a, b)),
                            ("x", 7))
        sim.schedule_pooled(1.0, lambda: seen.append((sim.now,)))
        sim.run()
        assert seen == [(1.0,), (2.0, "x", 7)]

    def test_interleaves_with_regular_events_fifo(self):
        sim = Simulator()
        order = []
        sim.schedule_at(5.0, lambda: order.append("regular"))
        sim.schedule_pooled(5.0, order.append, ("pooled",))
        sim.run()
        # same instant, same priority: scheduling (seq) order wins
        assert order == ["regular", "pooled"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_pooled(-0.1, lambda: None)

    def test_events_are_recycled(self, monkeypatch):
        # there is nothing to recycle: a pooled chain allocates no Event
        allocated = []
        real_init = Event.__init__

        def spy(self, *args, **kwargs):
            allocated.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(Event, "__init__", spy)
        sim = Simulator()
        fired = {"n": 0}

        def tick():
            fired["n"] += 1
            if fired["n"] < 100:
                sim.schedule_pooled(1.0, tick)

        sim.schedule_pooled(1.0, tick)
        sim.run()
        assert fired["n"] == 100
        assert allocated == []
        # the spy itself works: the handle path does allocate
        sim.schedule_after(1.0, lambda: None)
        assert len(allocated) == 1

    def test_recycled_event_drops_references(self):
        # after firing, the simulator keeps neither the action nor its args

        class Payload:
            def hit(self, arg):
                self.arg = arg

        class Arg:
            pass

        sim = Simulator()
        payload, arg = Payload(), Arg()
        dead_payload, dead_arg = weakref.ref(payload), weakref.ref(arg)
        sim.schedule_pooled(1.0, payload.hit, (arg,))
        sim.schedule_pooled(2.0, lambda: None)
        sim.run_until(1.5)
        assert payload.arg is arg
        del payload, arg
        assert dead_payload() is None
        assert dead_arg() is None

    def test_nan_schedules_rejected(self):
        # NaN compares False against everything: `delay < 0` let it into
        # the heap, where it orders against nothing
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_pooled(math.nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_after(math.nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(math.nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.run_until(math.nan)
        assert sim.pending_count == 0

    def test_step_reports_fired_not_a_dead_event(self):
        # step() used to hand back the pooled Event it had just recycled
        # (action == _noop, args == ()); it now says whether one fired
        sim = Simulator()
        seen = []
        sim.schedule_pooled(1.0, seen.append, ("a",))
        cancelled = sim.schedule_at(2.0, lambda: seen.append("never"))
        sim.schedule_at(3.0, lambda: seen.append("b"))
        cancelled.cancel()
        assert sim.step() is True
        assert sim.step() is True  # skips the cancelled head
        assert sim.step() is False
        assert seen == ["a", "b"]
        assert sim.now == 3.0


class TestPendingCountO1:
    def test_counts_exclude_cancelled(self):
        sim = Simulator()
        events = [sim.schedule_at(float(t), lambda: None) for t in range(5)]
        assert sim.pending_count == 5
        events[1].cancel()
        events[3].cancel()
        assert sim.pending_count == 3
        # double-cancel must not double-count
        assert events[1].cancel() is False
        assert sim.pending_count == 3
        sim.run()
        assert sim.pending_count == 0
        assert sim.fired_count == 3

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        event = sim.schedule_at(1.0, lambda: None)
        sim.run()
        assert event.cancel() is False
        assert sim.pending_count == 0

    def test_matches_heap_scan(self):
        sim = Simulator()
        events = [
            sim.schedule_at(float(t % 7), lambda: None, priority=t % 3)
            for t in range(50)
        ]
        for e in events[::3]:
            e.cancel()
        scan = sum(1 for entry in sim._heap if entry[5].pending)
        assert sim.pending_count == scan

    def test_run_until_drops_cancelled_heads(self):
        sim = Simulator()
        head = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        head.cancel()
        sim.run_until(3.0)
        assert sim.pending_count == 0
        assert sim.fired_count == 1


class TestPeriodicRearm:
    def test_recurrence_reuses_one_event(self):
        sim = Simulator()
        ticks = []
        sim.schedule_periodic(10.0, lambda: ticks.append(sim.now))
        sim.run_until(55.0)
        assert ticks == [10.0, 20.0, 30.0, 40.0, 50.0]
        # the recurrence holds exactly one pending event between firings
        assert sim.pending_count == 1
        [event] = sim.pending_events()
        assert event.time == 60.0

    def test_same_event_object_rearmed(self):
        sim = Simulator()
        sim.schedule_periodic(1.0, lambda: None)
        [before] = sim.pending_events()
        sim.run_until(3.5)
        [after] = sim.pending_events()
        assert after is before  # pool of one: no allocation per period
        assert sim.fired_count == 3

    def test_stop_cancels_rearmed_event(self):
        sim = Simulator()
        ticks = []
        stop = sim.schedule_periodic(5.0, lambda: ticks.append(sim.now))
        sim.run_until(12.0)
        stop()
        sim.run_until(100.0)
        assert ticks == [5.0, 10.0]
        assert sim.pending_count == 0

    def test_stop_from_inside_action(self):
        sim = Simulator()
        ticks = []
        holder = {}

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 2:
                holder["stop"]()

        holder["stop"] = sim.schedule_periodic(2.0, tick)
        sim.run_until(20.0)
        assert ticks == [2.0, 4.0]
        assert sim.pending_count == 0
