"""Tests for gossip-based global-state dissemination."""

import pytest

from repro.overlay import MessageBus, OverlayNetwork, Router
from repro.overlay.state_sync import GossipSync, StateEntry, StateStore
from repro.sim import Simulator


def make_cluster(n=4):
    names = [f"r{i}" for i in range(1, n + 1)]
    net = OverlayNetwork.full_mesh(
        {(a, b): 5.0 for i, a in enumerate(names) for b in names[i + 1 :]}
    )
    sim = Simulator()
    bus = MessageBus(sim=sim, router=Router(net))
    stores = {n_: StateStore(n_) for n_ in names}
    sync = GossipSync(stores, sim, bus)
    for name in names:
        bus.register(name, sync.make_handler(name))
    sync.start()
    return names, net, sim, stores, sync


class TestStateStore:
    def test_local_updates_bump_version(self):
        s = StateStore("a")
        e1 = s.update_local({"rmttf": 100})
        e2 = s.update_local({"rmttf": 120})
        assert e2.version == e1.version + 1
        assert s.get("a").payload == {"rmttf": 120}

    def test_merge_adopts_newer_only(self):
        s = StateStore("a")
        s.merge([StateEntry("b", 3, "old")])
        assert s.merge([StateEntry("b", 2, "older")]) == 0
        assert s.merge([StateEntry("b", 4, "new")]) == 1
        assert s.get("b").payload == "new"

    def test_never_adopts_foreign_writes_about_self(self):
        s = StateStore("a")
        s.update_local("mine")
        s.merge([StateEntry("a", 99, "forged")])
        assert s.get("a").payload == "mine"

    def test_version_vector_sorted(self):
        s = StateStore("a")
        s.update_local("x")
        s.merge([StateEntry("b", 7, "y")])
        assert s.version_vector() == {"a": 1, "b": 7}


class TestGossipConvergence:
    def test_all_nodes_learn_all_state(self):
        names, _, sim, stores, sync = make_cluster()
        for node in names:
            stores[node].update_local({"rmttf": hash(node) % 100})
        sim.run_until(200.0)  # plenty of rounds
        assert sync.converged()
        for node in names:
            assert set(stores[node].snapshot()) == set(names)

    def test_updates_propagate(self):
        names, _, sim, stores, sync = make_cluster()
        stores["r1"].update_local("v1")
        sim.run_until(100.0)
        stores["r1"].update_local("v2")
        sim.run_until(250.0)
        for node in names:
            assert stores[node].get("r1").payload == "v2"

    def test_partition_diverges_then_heals(self):
        names, net, sim, stores, sync = make_cluster(n=4)
        for node in names:
            stores[node].update_local("initial")
        sim.run_until(150.0)
        assert sync.converged()
        # cut r4 off entirely
        for peer in ("r1", "r2", "r3"):
            net.fail_link(peer, "r4")
        stores["r1"].update_local("during-partition")
        sim.run_until(400.0)
        assert stores["r4"].get("r1").payload == "initial"  # stale
        assert stores["r2"].get("r1").payload == "during-partition"
        # heal and reconcile
        for peer in ("r1", "r2", "r3"):
            net.restore_link(peer, "r4")
        sim.run_until(700.0)
        assert stores["r4"].get("r1").payload == "during-partition"
        assert sync.converged()

    def test_dead_node_does_not_gossip(self):
        names, net, sim, stores, sync = make_cluster()
        net.fail_node("r1")
        stores["r1"].update_local("ghost-update")
        sim.run_until(200.0)
        assert stores["r2"].get("r1") is None

    def test_stop_halts_rounds(self):
        names, _, sim, stores, sync = make_cluster()
        stores["r1"].update_local("x")
        sync.stop()
        sim.run_until(300.0)
        assert stores["r2"].get("r1") is None

    def test_validation(self):
        sim = Simulator()
        net = OverlayNetwork.full_mesh({("a", "b"): 1.0})
        bus = MessageBus(sim=sim, router=Router(net))
        with pytest.raises(ValueError):
            GossipSync({}, sim, bus)
