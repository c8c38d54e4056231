"""Sim/wall parity for the reliable channel (satellite of repro.serve).

:class:`ReliableChannel` times its retry/backoff ladder on its bus's
clock, so the serve runtime runs it on real elapsed time.  The regression pinned
here: for the same scripted loss pattern and the same jitter seed, a
channel on a :class:`WallClock` resolves to the **same**
:class:`ChannelStats` as one on the virtual-time simulator -- retries,
acks, duplicates, give-ups, all of it.  Only the wall time at which the
ladder runs differs.

The wall runs are compressed (speed 5) and the channel's first ack
timeout is 0.25 clock seconds, which is 50 ms of wall time.  An ack's
round trip over the modeled 10 ms links is 0.02 clock seconds (4 ms
wall), so the margin before a retry timer fires is 46 ms of wall time:
dispatch-loop lag -- real milliseconds between an event coming due and
asyncio running it, a scheduler hiccup on a loaded host -- must exceed
that to push an ack past its timer and break the parity the test is
about.  (At a 5 ms margin, one tier-1 run in six lost it.)  Sends are
issued *while* the dispatch loop runs, as the serve runtime does;
sending into a stopped clock and starting it later would let real time
run ahead of every deadline.
"""

from __future__ import annotations

import asyncio

from repro.core.distributed import CONTROL_WINDOW_S, ReliableTransport
from repro.overlay import MessageBus, OverlayNetwork, ReliableChannel, Router
from repro.serve.clock import WallClock
from repro.sim import SimClock
from repro.sim.rng import RngRegistry

SPEED = 5.0
#: Full 4-attempt give-up ladder: 0.25+0.5+1+2 = 3.75 clock-s (plus at
#: most 4 x 0.05 s of jitter) = about 0.79 s wall, inside the 2 s poll
#: deadline.


def mesh(latency=10.0):
    return OverlayNetwork.full_mesh({("r1", "r2"): latency})


class ScriptedLossBus(MessageBus):
    """Bus that silently loses chosen transmissions of one kind.

    ``drops`` is a set of per-kind transmission indices (0-based, in
    global send order) to lose; everything else goes through.  The same
    script replayed against the sim and the wall clock produces the same
    loss pattern because sends happen in the same order on both.
    """

    def __init__(self, sim, router, drops, drop_kind="rc-data"):
        super().__init__(sim=sim, router=router)
        self.drops = set(drops)
        self.drop_kind = drop_kind
        self.kind_sends = 0

    def send(self, src, dst, kind, payload):
        if kind == self.drop_kind:
            idx = self.kind_sends
            self.kind_sends += 1
            if idx in self.drops:
                return True  # accepted, silently lost
        return super().send(src, dst, kind, payload)


def run_script(clock, drops, drop_kind="rc-data", n_messages=3, seed=3):
    """Wire a 2-node channel over a scripted-loss bus and send."""
    bus = ScriptedLossBus(
        sim=clock, router=Router(mesh()), drops=drops, drop_kind=drop_kind
    )
    channel = ReliableChannel(
        bus, RngRegistry(seed=seed).stream("reliable/jitter")
    )
    got = []
    channel.attach("r1", lambda m: None)
    channel.attach("r2", got.append)
    handles = [
        channel.send("r1", "r2", "rmttf-report", {"n": i})
        for i in range(n_messages)
    ]
    return channel, handles, got


def run_sim(drops, **kw):
    clock = SimClock()
    channel, handles, got = run_script(clock, drops, **kw)
    clock.run()
    return channel, handles, got


def run_wall(drops, **kw):
    async def go():
        clock = WallClock(speed=SPEED)
        runner = asyncio.ensure_future(clock.run_for(None))
        await asyncio.sleep(0)  # let the dispatch loop come up first
        channel, handles, got = run_script(clock, drops, **kw)
        # poll until the ladder resolves; 2 s wall == 10 clock-s, well
        # beyond the worst-case give-up time, so a hang here is a bug
        deadline = asyncio.get_event_loop().time() + 2.0
        while channel.pending_count() > 0:
            assert asyncio.get_event_loop().time() < deadline, (
                "reliable channel never resolved on the wall clock"
            )
            await asyncio.sleep(0.002)
        clock.stop()
        await runner
        return channel, handles, got

    return asyncio.run(go())


class TestStatsParity:
    def test_clean_run_parity(self):
        sim_ch, _, sim_got = run_sim(drops=())
        wall_ch, _, wall_got = run_wall(drops=())
        assert sim_ch.stats.as_dict() == wall_ch.stats.as_dict()
        assert sim_ch.stats.acked == 3
        assert [m.payload for m in sim_got] == [m.payload for m in wall_got]

    def test_data_loss_retry_parity(self):
        # lose the first two data transmissions: two retries recover
        drops = {0, 1}
        sim_ch, sim_handles, _ = run_sim(drops=drops)
        wall_ch, wall_handles, _ = run_wall(drops=drops)
        assert sim_ch.stats.as_dict() == wall_ch.stats.as_dict()
        assert sim_ch.stats.retries == 2
        assert sim_ch.stats.acked == 3
        assert [h.status for h in sim_handles] == [
            h.status for h in wall_handles
        ]
        assert [h.attempts for h in sim_handles] == [
            h.attempts for h in wall_handles
        ]

    def test_give_up_parity(self):
        # message 0's data is lost on all 4 allowed attempts -> give-up;
        # messages 1 and 2 are clean (their transmissions are indices
        # spent before/between message 0's retries, so drop exactly the
        # retry indices of message 0: after the first round {0},
        # retransmissions of message 0 are the only further rc-data)
        drops = {0, 3, 4, 5}
        sim_ch, sim_handles, sim_got = run_sim(drops=drops)
        wall_ch, wall_handles, wall_got = run_wall(drops=drops)
        assert sim_ch.stats.as_dict() == wall_ch.stats.as_dict()
        assert sim_ch.stats.gave_up == 1
        assert sim_ch.stats.acked == 2
        assert [h.status for h in sim_handles] == [
            h.status for h in wall_handles
        ]
        assert len(sim_got) == len(wall_got) == 2

    def test_ack_loss_duplicate_parity(self):
        # lose the first ack: the data arrives, the retry is a duplicate
        sim_ch, _, sim_got = run_sim(drops={0}, drop_kind="rc-ack")
        wall_ch, _, wall_got = run_wall(drops={0}, drop_kind="rc-ack")
        assert sim_ch.stats.as_dict() == wall_ch.stats.as_dict()
        assert sim_ch.stats.duplicates == 1
        assert sim_ch.stats.retries == 1
        assert sim_ch.stats.acked == 3
        # dedup: the application saw each message exactly once
        assert len(sim_got) == len(wall_got) == 3


def test_channel_default_clock_is_the_bus_sim():
    clock = SimClock()
    bus = MessageBus(sim=clock, router=Router(mesh()))
    channel = ReliableChannel(
        bus, RngRegistry(seed=3).stream("reliable/jitter")
    )
    assert channel.clock is clock


# ------------------------------------------------------------------ #
# the control exchange on either clock
# ------------------------------------------------------------------ #

REGIONS = ["r1", "r2", "r3"]
NAN = float("nan")
#: (leader, raw reports, overlay change at the cycle's start, overlay
#: change 1 ms into it): a NaN report; a dark slave, which sends no
#: report and whose push is retried and given up; a leader that goes
#: dark once the reports are in flight, so they are lost and so is
#: every push it makes.
EXCHANGE_SCRIPT = [
    ("r1", {"r1": 900.0, "r2": NAN, "r3": 700.0}, None, None),
    ("r1", {"r1": 880.0, "r2": 650.0, "r3": 720.0},
     lambda net: net.fail_node("r3"), None),
    ("r1", {"r1": 860.0, "r2": 640.0, "r3": 730.0},
     lambda net: net.restore_node("r3"), lambda net: net.fail_node("r1")),
]


def run_exchange(clock, blocking):
    """The script through one transport; per cycle the received reports
    (``repr`` so a NaN compares) and the acked set, then the channel's
    stats and the bus's drops."""
    net = OverlayNetwork.full_mesh(
        {("r1", "r2"): 10.0, ("r1", "r3"): 10.0, ("r2", "r3"): 10.0}
    )
    bus = MessageBus(sim=clock, router=Router(net))
    transport = ReliableTransport(
        bus, RngRegistry(seed=3).stream("reliable/jitter"), REGIONS, net, None
    )
    for r in REGIONS:
        bus.register(r, transport.channel.make_bus_handler(r))
    cycles = []
    for leader, reports, at_start, in_flight in EXCHANGE_SCRIPT:
        if at_start is not None:
            at_start(net)
        if in_flight is not None:
            clock.schedule_after(0.001, lambda f=in_flight: f(net))
        fractions = {"r1": 0.5, "r2": 0.3, "r3": 0.2}
        if blocking:
            received = transport.gather_reports(leader, reports)
            acked = transport.push_fractions(leader, fractions)
        else:
            transport.send_reports(leader, reports)
            clock.run_until(clock.now + CONTROL_WINDOW_S)
            received = transport.received_reports()
            transport.send_fractions(leader, fractions)
            clock.run_until(clock.now + CONTROL_WINDOW_S)
            acked = transport.acked_regions()
        cycles.append(({r: repr(v) for r, v in received.items()}, acked))
    channel = transport.channel
    stats = {**channel.stats.as_dict(), "in_flight": channel.pending_count()}
    return cycles, stats, dict(bus.drop_counts)


def test_the_control_exchange_is_the_same_on_either_clock():
    """The sim blocks through the window; serve sends, lets its clock
    run, and reads what arrived.  A stepped wall clock (``time_fn``
    pinned) and the simulator see the same exchange."""
    on_sim = run_exchange(SimClock(), blocking=True)
    on_wall = run_exchange(WallClock(time_fn=lambda: 0.0), blocking=False)
    assert on_sim == on_wall
    cycles, stats, drops = on_sim
    assert cycles == [
        ({"r1": "900.0", "r2": "nan", "r3": "700.0"}, {"r2", "r3"}),
        ({"r1": "880.0", "r2": "650.0"}, {"r2"}),
        ({"r1": "860.0"}, set()),
    ]
    # a give-up resolves after its last retry's timeout, past the window
    # that sent it: r3's push and the two lost reports have given up,
    # the dark leader's two pushes are still retrying
    assert stats["gave_up"] == 3
    assert stats["in_flight"] == 2
    assert stats["sent"] == stats["acked"] + stats["gave_up"] + stats["in_flight"]
    assert set(drops) == {"dead_dst", "no_route"}
