"""Tests for leader election and the controller message bus."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay import LeaderElection, MessageBus, OverlayNetwork, Router
from repro.sim import Simulator


def mesh(n=4, latency=10.0):
    names = [f"r{i}" for i in range(1, n + 1)]
    pairs = {
        (a, b): latency for i, a in enumerate(names) for b in names[i + 1 :]
    }
    return OverlayNetwork.full_mesh(pairs)


def takeovers(election):
    """Leader changes across the election's recorded history."""
    leaders = [rec.leader for rec in election.history]
    return sum(a != b for a, b in zip(leaders, leaders[1:]))


class TestLeaderElection:
    def test_elects_minimum_id(self):
        net = mesh(3)
        election = LeaderElection(net)
        assert election.elect("r2") == "r1"

    def test_all_members_agree(self):
        net = mesh(4)
        election = LeaderElection(net)
        leaders = {election.elect(n) for n in net.alive_nodes()}
        assert leaders == {"r1"}

    def test_leader_failure_triggers_takeover(self):
        net = mesh(3)
        election = LeaderElection(net)
        assert election.elect("r3") == "r1"
        net.fail_node("r1")
        assert election.elect("r3") == "r2"
        assert takeovers(election) == 1

    def test_partition_gets_leader_per_side(self):
        net = OverlayNetwork.full_mesh(
            {("r1", "r2"): 5.0, ("r3", "r4"): 5.0, ("r2", "r3"): 5.0}
        )
        net.fail_link("r2", "r3")
        election = LeaderElection(net)
        leaders = {n: election.elect(n) for n in net.alive_nodes()}
        assert leaders["r1"] == "r1" and leaders["r2"] == "r1"
        assert leaders["r3"] == "r3" and leaders["r4"] == "r3"

    def test_dead_caller_cannot_elect(self):
        net = mesh(2)
        net.fail_node("r1")
        with pytest.raises(RuntimeError, match="down"):
            LeaderElection(net).elect("r1")

    def test_recovery_restores_original_leader(self):
        net = mesh(3)
        election = LeaderElection(net)
        assert election.elect("r2") == "r1"
        net.fail_node("r1")
        assert election.elect("r2") == "r2"
        net.restore_node("r1")
        assert election.elect("r2") == "r1"
        assert takeovers(election) == 2

    def test_history_records_changes_not_elections(self):
        """An era tick re-elects once a second for the life of a server:
        quiet elections must not grow the history."""
        net = mesh(3)
        election = LeaderElection(net)
        for era in range(10_000):
            assert election.elect("r3", now=float(era)) == "r1"
        assert len(election.history) == 1
        assert election.history[0].time == 0.0
        assert takeovers(election) == 0
        # a flapping leader: every flap is two changes, quiet eras none
        for flap in range(5):
            net.fail_node("r1")
            for _ in range(100):
                assert election.elect("r3") == "r2"
            net.restore_node("r1")
            for _ in range(100):
                assert election.elect("r3") == "r1"
        assert takeovers(election) == 10
        assert len(election.history) == 11
        # a membership change under an unchanged leader is still news
        net.fail_node("r2")
        election.elect("r3")
        assert len(election.history) == 12
        assert election.history[-1].component == {"r1", "r3"}
        assert takeovers(election) == 10

    @settings(max_examples=30, deadline=None)
    @given(
        dead=st.sets(st.sampled_from(["r1", "r2", "r3", "r4", "r5"]), max_size=4)
    )
    def test_safety_property_one_leader_per_component(self, dead):
        """At most one leader per live component, and members agree."""
        net = mesh(5)
        for n in dead:
            net.fail_node(n)
        election = LeaderElection(net)
        leaders = {n: election.elect(n) for n in net.alive_nodes()}
        for node, leader in leaders.items():
            assert leader in net.component_of(node)
            # every member of the component names the same leader
            for member in net.component_of(node):
                assert leaders[member] == leader


class TestMessageBus:
    def make_bus(self, net=None):
        net = net or mesh(3)
        sim = Simulator()
        bus = MessageBus(sim=sim, router=Router(net))
        return sim, net, bus

    def test_delivery_after_path_latency(self):
        sim, net, bus = self.make_bus()
        got = []
        bus.register("r2", lambda m: got.append((sim.now, m.payload)))
        bus.register("r1", lambda m: None)
        assert bus.send("r1", "r2", "rmttf", 123.0)
        sim.run()
        assert got == [(0.01, 123.0)]  # 10 ms
        assert bus.delivered_count == 1

    def test_drop_when_partitioned(self):
        net = OverlayNetwork.full_mesh({("r1", "r2"): 10.0})
        net.add_node("r3")  # isolated
        sim = Simulator()
        bus = MessageBus(sim=sim, router=Router(net))
        bus.register("r3", lambda m: None)
        assert not bus.send("r1", "r3", "rmttf", 1.0)
        assert bus.dropped_count == 1
        assert bus.drop_counts == {"no_route": 1}

    def test_drop_when_no_handler(self):
        sim, net, bus = self.make_bus()
        assert not bus.send("r1", "r2", "x", None)
        assert bus.dropped_count == 1

    def test_drop_if_destination_dies_in_flight(self):
        sim, net, bus = self.make_bus()
        got = []
        bus.register("r2", got.append)
        bus.send("r1", "r2", "x", None)
        net.fail_node("r2")  # dies before delivery event fires
        sim.run()
        assert got == []
        assert bus.dropped_count == 1

    def test_drop_reasons_are_tagged(self):
        """Regression: every drop carries a reason counter."""
        net = OverlayNetwork.full_mesh({("r1", "r2"): 10.0})
        net.add_node("r3")  # isolated -> no route
        sim = Simulator()
        bus = MessageBus(sim=sim, router=Router(net))
        bus.register("r3", lambda m: None)
        assert not bus.send("r1", "r3", "x", None)  # partitioned
        assert not bus.send("r1", "r2", "x", None)  # routable, no handler
        bus.register("r2", lambda m: None)
        bus.send("r1", "r2", "x", None)
        net.fail_node("r2")  # dies in flight
        sim.run()
        assert bus.drop_counts == {
            "no_route": 1,
            "no_handler": 1,
            "dead_dst": 1,
        }
        assert bus.dropped_count == 3

    def test_message_metadata(self):
        sim, net, bus = self.make_bus()
        got = []
        bus.register("r2", got.append)
        bus.send("r1", "r2", "kind-x", {"a": 1})
        sim.run()
        (m,) = got
        assert m.src == "r1" and m.dst == "r2"
        assert m.kind == "kind-x"
        assert m.sent_at == 0.0
