"""Differential test: the tuple-keyed event heap against a sorting reference.

The engine's whole contract is "events fire in ``(time, priority, seq)``
order, ``seq`` being the order of the scheduling calls (periodic re-arms
included)".  :class:`SortingReference` states that contract with a list
and ``min`` -- no heap, no lazy cancellation, no inlined dispatch -- and
Hypothesis runs random programs of ``schedule_at`` / ``schedule_after`` /
``schedule_pooled`` / ``schedule_periodic`` / ``cancel`` / ``stop`` /
``run_until`` through both: same firing sequence, ``pending_count``,
``fired_count`` and ``now`` after every ``run_until``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator


class _Handle:
    def __init__(self, key, action, args):
        self.key, self.action, self.args = key, action, args
        self.alive = True

    def cancel(self):
        self.alive = False


class SortingReference:
    """The scheduling surface of ``Simulator``, dispatching by ``min``."""

    def __init__(self):
        self.now, self.seq, self.fired_count = 0.0, 0, 0
        self.entries, self.stopped = [], False

    def _push(self, time, priority, action, args=()):
        handle = _Handle((float(time), priority, self.seq), action, args)
        self.seq += 1
        self.entries.append(handle)
        return handle

    def schedule_at(self, time, action, *, priority=0):
        return self._push(time, priority, action)

    def schedule_after(self, delay, action):
        return self._push(self.now + delay, 0, action)

    def schedule_pooled(self, delay, action, args=()):
        self._push(self.now + delay, 0, action, args)

    def schedule_periodic(self, period, action):
        state = {"live": True}

        def fire():
            action()
            if state["live"]:
                state["next"] = self._push(self.now + period, 0, fire)

        state["next"] = self._push(self.now + period, 0, fire)

        def stop():
            state["live"] = False
            state["next"].cancel()

        return stop

    def stop(self):
        self.stopped = True

    @property
    def pending_count(self):
        return sum(1 for h in self.entries if h.alive)

    def run_until(self, end_time):
        self.stopped = False
        while not self.stopped:
            due = [h for h in self.entries if h.alive and h.key[0] <= end_time]
            if not due:
                break
            head = min(due, key=lambda h: h.key)
            self.entries.remove(head)
            self.now = head.key[0]
            self.fired_count += 1
            head.action(*head.args)
        self.now = max(self.now, end_time)


# quarter-second grid: plenty of equal-time ties, so priority and seq decide
_ticks = st.integers(0, 12).map(lambda k: k / 4)
_period = st.integers(1, 8).map(lambda k: k / 4)
_priority = st.integers(-1, 1)
# what an event does when it fires, besides logging itself
_behaviour = st.one_of(
    st.none(),
    st.tuples(st.just("spawn"), _ticks),  # schedule a pooled child
    st.tuples(st.just("stop")),  # stop the running dispatch loop
    st.tuples(st.just("cancel"), st.integers(0, 30)),  # cancel a handle
)
_op = st.one_of(
    st.tuples(st.just("at"), _ticks, _priority, _behaviour),
    st.tuples(st.just("after"), _ticks, _behaviour),
    st.tuples(st.just("pooled"), _ticks, _behaviour),
    st.tuples(st.just("periodic"), _period, _behaviour),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(st.just("stop_periodic"), st.integers(0, 30)),
    st.tuples(st.just("run_until"), _ticks),
)


def run_program(clock, ops):
    """Drive ``clock`` through ``ops``; returns everything observable."""
    log, handles, stops = [], [], []

    def fire(tag, behaviour):
        log.append((tag, clock.now))
        if behaviour is None:
            return
        if behaviour[0] == "spawn":
            clock.schedule_pooled(behaviour[1], fire, ((tag, "child"), None))
        elif behaviour[0] == "stop":
            clock.stop()
        elif handles:
            handles[behaviour[1] % len(handles)].cancel()

    for tag, op in enumerate(ops):
        kind = op[0]
        if kind == "at":
            _, offset, priority, behaviour = op
            handles.append(clock.schedule_at(
                clock.now + offset,
                lambda t=tag, b=behaviour: fire(t, b),
                priority=priority,
            ))
        elif kind == "after":
            _, delay, behaviour = op
            handles.append(clock.schedule_after(
                delay, lambda t=tag, b=behaviour: fire(t, b)
            ))
        elif kind == "pooled":
            clock.schedule_pooled(op[1], fire, (tag, op[2]))
        elif kind == "periodic":
            _, period, behaviour = op
            stops.append(clock.schedule_periodic(
                period, lambda t=tag, b=behaviour: fire(t, b)
            ))
        elif kind == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif kind == "stop_periodic":
            if stops:
                stops[op[1] % len(stops)]()
        else:
            clock.run_until(clock.now + op[1])
            log.append(
                ("ran", clock.now, clock.pending_count, clock.fired_count)
            )
    # drain what is left (periodics never drain: bound the horizon)
    clock.run_until(clock.now + 5.0)
    log.append(("end", clock.now, clock.pending_count, clock.fired_count))
    return log


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(_op, max_size=40))
def test_engine_matches_sorting_reference(ops):
    assert run_program(Simulator(), ops) == run_program(SortingReference(), ops)
