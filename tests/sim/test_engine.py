"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim import Simulator, SimulationError
from repro.sim.events import EventState


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule_at(5.0, lambda: fired.append("c"))
    sim.schedule_at(1.0, lambda: fired.append("a"))
    sim.schedule_at(3.0, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule_at(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_same_time_events_fifo():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule_at(1.0, lambda i=i: fired.append(i))
    sim.run()
    assert fired == list(range(10))


def test_priority_breaks_ties_before_seq():
    sim = Simulator()
    fired = []
    sim.schedule_at(1.0, lambda: fired.append("low"), priority=5)
    sim.schedule_at(1.0, lambda: fired.append("high"), priority=-5)
    sim.run()
    assert fired == ["high", "low"]


def test_schedule_in_past_raises():
    sim = Simulator()
    sim.run_until(10.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_after(-1.0, lambda: None)


def test_schedule_after_is_relative():
    sim = Simulator()
    times = []
    sim.schedule_at(4.0, lambda: sim.schedule_after(2.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [6.0]


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    ev = sim.schedule_at(1.0, lambda: fired.append(1))
    assert ev.cancel() is True
    sim.run()
    assert fired == []
    assert ev.state is EventState.CANCELLED


def test_cancel_twice_returns_false():
    sim = Simulator()
    ev = sim.schedule_at(1.0, lambda: None)
    assert ev.cancel() is True
    assert ev.cancel() is False


def test_cancel_after_fire_returns_false():
    sim = Simulator()
    ev = sim.schedule_at(1.0, lambda: None)
    sim.run()
    assert ev.cancel() is False


def test_run_until_stops_at_boundary_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule_at(1.0, lambda: fired.append(1))
    sim.schedule_at(2.0, lambda: fired.append(2))
    sim.schedule_at(5.0, lambda: fired.append(5))
    n = sim.run_until(3.0)
    assert n == 2
    assert fired == [1, 2]
    assert sim.now == 3.0
    sim.run()
    assert fired == [1, 2, 5]


def test_run_until_includes_events_at_exact_boundary():
    sim = Simulator()
    fired = []
    sim.schedule_at(3.0, lambda: fired.append(3))
    sim.run_until(3.0)
    assert fired == [3]


def test_run_until_past_raises():
    sim = Simulator()
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.run_until(1.0)


def test_run_max_events():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule_at(float(i + 1), lambda i=i: fired.append(i))
    assert sim.run(max_events=2) == 2
    assert fired == [0, 1]


def test_stop_from_callback_halts_loop():
    sim = Simulator()
    fired = []
    sim.schedule_at(1.0, lambda: (fired.append(1), sim.stop()))
    sim.schedule_at(2.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1]
    # a fresh run resumes remaining events
    sim.run()
    assert fired == [1, 2]


def test_periodic_fires_at_period_multiples():
    sim = Simulator()
    times = []
    sim.schedule_periodic(10.0, lambda: times.append(sim.now))
    sim.run_until(35.0)
    assert times == [10.0, 20.0, 30.0]


def test_periodic_custom_start():
    sim = Simulator()
    times = []
    sim.schedule_periodic(10.0, lambda: times.append(sim.now), start=5.0)
    sim.run_until(30.0)
    assert times == [5.0, 15.0, 25.0]


def test_periodic_stop_function_halts_recurrence():
    sim = Simulator()
    times = []
    stop = sim.schedule_periodic(1.0, lambda: times.append(sim.now))
    sim.run_until(3.5)
    stop()
    sim.run_until(10.0)
    assert times == [1.0, 2.0, 3.0]


def test_periodic_stop_from_inside_action():
    sim = Simulator()
    times = []
    holder = {}

    def action():
        times.append(sim.now)
        if len(times) == 2:
            holder["stop"]()

    holder["stop"] = sim.schedule_periodic(1.0, action)
    sim.run_until(10.0)
    assert times == [1.0, 2.0]


def test_invalid_period_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_periodic(0.0, lambda: None)


def test_counters_and_pending_introspection():
    sim = Simulator()
    e1 = sim.schedule_at(1.0, lambda: None)
    e2 = sim.schedule_at(2.0, lambda: None)
    assert sim.pending_count == 2
    e2.cancel()
    assert sim.pending_count == 1
    assert [e.time for e in sim.pending_events()] == [1.0]
    sim.run()
    assert sim.fired_count == 1
    assert e1.state is EventState.FIRED


def test_event_scheduled_during_dispatch_at_same_time_fires():
    sim = Simulator()
    fired = []
    sim.schedule_at(1.0, lambda: sim.schedule_at(1.0, lambda: fired.append("child")))
    sim.run()
    assert fired == ["child"]
    assert sim.now == 1.0
