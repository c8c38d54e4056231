"""Tests for the ack/retry/dedup reliable channel."""

import pytest

from repro.overlay import MessageBus, OverlayNetwork, ReliableChannel, Router
from repro.overlay.reliable import (
    BACKOFF_FACTOR,
    BASE_TIMEOUT_S,
    JITTER_S,
    MAX_RETRIES,
)
from repro.sim import Simulator
from repro.sim.rng import RngRegistry


def mesh(n=3, latency=10.0):
    names = [f"r{i}" for i in range(1, n + 1)]
    return OverlayNetwork.full_mesh(
        {(a, b): latency for i, a in enumerate(names) for b in names[i + 1 :]}
    )


class DropFirstN(MessageBus):
    """Bus that silently loses the first N data transmissions."""

    def __init__(self, sim, router, n_drops, drop_kind="rc-data"):
        super().__init__(sim=sim, router=router)
        self.n_drops = n_drops
        self.drop_kind = drop_kind

    def send(self, src, dst, kind, payload):
        if kind == self.drop_kind and self.n_drops > 0:
            self.n_drops -= 1
            return True  # accepted, silently lost
        return super().send(src, dst, kind, payload)


def make_channel(net=None, bus_cls=MessageBus, seed=3, **bus_kw):
    net = net or mesh()
    sim = Simulator()
    bus = bus_cls(sim=sim, router=Router(net), **bus_kw)
    rng = RngRegistry(seed=seed).stream("reliable/jitter")
    channel = ReliableChannel(bus, rng)
    return sim, net, bus, channel


class TestHappyPath:
    def test_delivery_and_ack(self):
        sim, net, bus, channel = make_channel()
        got = []
        channel.attach("r1", lambda m: None)
        channel.attach("r2", got.append)
        handle = channel.send("r1", "r2", "rmttf-report", {"rmttf": 410.0})
        assert handle.status == "pending"
        sim.run()
        assert handle.status == "acked"
        assert handle.attempts == 1
        assert handle.acked_at is not None and handle.acked_at > 0
        (msg,) = got
        assert msg.kind == "rmttf-report"
        assert msg.payload == {"rmttf": 410.0}
        assert msg.src == "r1" and msg.dst == "r2"
        assert channel.stats.acked == 1
        assert channel.stats.retries == 0
        assert channel.pending_count() == 0

    def test_ids_are_unique_and_increasing(self):
        sim, net, bus, channel = make_channel()
        channel.attach("r1", lambda m: None)
        channel.attach("r2", lambda m: None)
        h1 = channel.send("r1", "r2", "a", None)
        h2 = channel.send("r1", "r2", "b", None)
        assert h2.msg_id > h1.msg_id


class TestRetries:
    def test_retry_recovers_lost_data(self):
        sim, net, bus, channel = make_channel(bus_cls=DropFirstN, n_drops=2)
        got = []
        channel.attach("r1", lambda m: None)
        channel.attach("r2", got.append)
        handle = channel.send("r1", "r2", "x", 1)
        sim.run()
        assert handle.status == "acked"
        assert handle.attempts == 3  # two losses, third lands
        assert channel.stats.retries == 2
        assert len(got) == 1

    def test_lost_ack_retries_but_delivers_once(self):
        sim, net, bus, channel = make_channel(
            bus_cls=DropFirstN, n_drops=1, drop_kind="rc-ack"
        )
        got = []
        channel.attach("r1", lambda m: None)
        channel.attach("r2", got.append)
        handle = channel.send("r1", "r2", "x", 1)
        sim.run()
        # ack lost -> retransmit -> receiver dedups -> second ack lands
        assert handle.status == "acked"
        assert len(got) == 1
        assert channel.stats.duplicates == 1

    def test_gives_up_after_bounded_retries(self):
        net = mesh()
        net.fail_node("r2")
        sim, _, bus, channel = make_channel(net=net)
        channel.attach("r1", lambda m: None)
        channel.attach("r2", lambda m: None)
        handle = channel.send("r1", "r2", "x", 1)
        sim.run()
        assert handle.status == "failed"
        assert handle.attempts == MAX_RETRIES + 1
        assert channel.stats.gave_up == 1
        assert channel.pending_count() == 0
        # all attempts died on the unreliable bus as no_route drops
        assert bus.drop_counts["no_route"] == MAX_RETRIES + 1

    def test_backoff_grows_exponentially(self):
        net = mesh()
        net.fail_node("r2")
        sim, _, bus, channel = make_channel(net=net)
        channel.attach("r1", lambda m: None)
        channel.attach("r2", lambda m: None)
        attempts_at = []
        orig = channel._attempt

        def spy(handle, kind, payload):
            attempts_at.append(sim.now)
            orig(handle, kind, payload)

        channel._attempt = spy
        channel.send("r1", "r2", "x", 1)
        sim.run()
        gaps = [b - a for a, b in zip(attempts_at, attempts_at[1:])]
        ladder = [
            BASE_TIMEOUT_S * BACKOFF_FACTOR**k for k in range(MAX_RETRIES)
        ]
        assert ladder == [0.25, 0.5, 1.0]
        # each timeout is its rung plus a jitter in [0, JITTER_S)
        assert all(0 <= g - rung < JITTER_S for g, rung in zip(gaps, ladder))
        assert len(gaps) == MAX_RETRIES


class TestDeterminism:
    def test_same_seed_same_timings(self):
        def trace(seed):
            sim, net, bus, channel = make_channel(
                bus_cls=DropFirstN, n_drops=2, seed=seed
            )
            channel.attach("r1", lambda m: None)
            channel.attach("r2", lambda m: None)
            handle = channel.send("r1", "r2", "x", 1)
            sim.run()
            return (handle.attempts, handle.acked_at, sim.fired_count)

        assert trace(11) == trace(11)
        # jitter actually varies across seeds (not a constant schedule)
        assert trace(11)[1] != trace(12)[1]
