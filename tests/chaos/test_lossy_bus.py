"""Tests for the loss/jitter-injecting message bus."""

import pytest

from repro.chaos import LossyBus
from repro.overlay import OverlayNetwork, Router
from repro.sim import Simulator
from repro.sim.rng import RngRegistry


def make_bus(seed=7, **chaos):
    """A lossy bus with its chaos knobs (``loss_probability=0.3``, ...) set
    as the chaos engine sets them."""
    net = OverlayNetwork.full_mesh({("r1", "r2"): 10.0, ("r2", "r3"): 10.0})
    sim = Simulator()
    bus = LossyBus(
        sim=sim,
        router=Router(net),
        rng=RngRegistry(seed=seed).stream("chaos/network"),
    )
    for name, value in chaos.items():
        setattr(bus, name, value)
    return sim, net, bus


class TestLoss:
    def test_zero_loss_is_a_plain_bus(self):
        sim, net, bus = make_bus()
        got = []
        bus.register("r2", got.append)
        assert bus.send("r1", "r2", "x", 1)
        sim.run()
        assert len(got) == 1
        assert bus.chaos_dropped == 0

    def test_loss_rate_is_roughly_honoured(self):
        sim, net, bus = make_bus(loss_probability=0.3)
        got = []
        bus.register("r2", got.append)
        for _ in range(500):
            assert bus.send("r1", "r2", "x", 1)  # always "accepted"
        sim.run()
        assert bus.chaos_dropped == 500 - len(got)
        assert 0.2 < bus.chaos_dropped / 500 < 0.4
        assert bus.drop_counts["chaos_loss"] == bus.chaos_dropped

    def test_lost_messages_report_outcome(self):
        sim, net, bus = make_bus(loss_probability=1.0 - 1e-12)
        bus.register("r2", lambda m: None)
        bus.send("r1", "r2", "x", 1)
        sim.run()
        assert bus.drop_counts == {"chaos_loss": 1}
        assert bus.delivered_count == 0

    def test_total_loss_starves_receiver(self):
        sim, net, bus = make_bus(loss_probability=1.0 - 1e-12)
        got = []
        bus.register("r2", got.append)
        for _ in range(20):
            bus.send("r1", "r2", "x", 1)
        sim.run()
        assert got == []

    def test_same_seed_same_losses(self):
        def losses(seed):
            sim, net, bus = make_bus(seed=seed, loss_probability=0.5)
            bus.register("r2", lambda m: None)
            pattern = [bus.send("r1", "r2", "x", i) for i in range(50)]
            sim.run()
            return (bus.chaos_dropped, bus.delivered_count)

        assert losses(13) == losses(13)
        assert losses(13) != losses(14)


class TestJitter:
    def test_jitter_delays_but_delivers(self):
        sim, net, bus = make_bus(jitter_ms=100.0)
        got = []
        bus.register("r2", lambda m: got.append(sim.now))
        bus.send("r1", "r2", "x", 1)
        sim.run()
        (at,) = got
        # base path latency 10 ms plus up to 100 ms of jitter
        assert 0.01 < at <= 0.11
        assert bus.chaos_delayed == 1

    def test_rng_required_once_enabled(self):
        net = OverlayNetwork.full_mesh({("r1", "r2"): 10.0})
        sim = Simulator()
        bus = LossyBus(sim=sim, router=Router(net))
        bus.loss_probability = 0.5
        bus.register("r2", lambda m: None)
        with pytest.raises(RuntimeError, match="rng"):
            bus.send("r1", "r2", "x", 1)
