"""Election + gossip convergence under repeated partition/heal cycles.

:mod:`repro.overlay.heartbeat` documents the detector's accuracy bound:
a crashed or partitioned peer is suspected within
``timeout_s + max_path_latency`` of its last heartbeat (and the periodic
check adds at most one ``period_s``), while a live reachable peer is
rehabilitated by the first heartbeat that gets through.  These tests
drive several partition/heal cycles through a five-node mesh and assert
that, within that bound after every topology change:

* every node's *local* leader (detector view) matches the message-free
  :class:`~repro.overlay.election.LeaderElection` of its component;
* after the final heal the whole mesh agrees on one leader again; and
* the gossip stores reconverge to identical version vectors.
"""

from itertools import groupby

from repro.overlay.election import LeaderElection
from repro.overlay.heartbeat import (
    DETECTOR_TIMEOUT_S,
    HEARTBEAT_PERIOD_S,
    build_detector_mesh,
)
from repro.overlay.messaging import MessageBus
from repro.overlay.network import OverlayNetwork
from repro.overlay.routing import Router
from repro.overlay.state_sync import GOSSIP_PERIOD_S, GossipSync, StateStore
from repro.sim.engine import Simulator

NODES = ["n1", "n2", "n3", "n4", "n5"]
PERIOD_S = HEARTBEAT_PERIOD_S
TIMEOUT_S = DETECTOR_TIMEOUT_S
GOSSIP_S = GOSSIP_PERIOD_S
#: detector convergence bound: silence timeout + one check period + the
#: worst path latency (milliseconds here, rounded up generously)
DETECT_BOUND_S = TIMEOUT_S + PERIOD_S + 0.5
#: rehabilitation bound: the next heartbeat plus its path latency
HEAL_BOUND_S = PERIOD_S + 0.5


class Mesh:
    """Five controllers with detectors, gossip, and an election oracle."""

    def __init__(self) -> None:
        self.net = OverlayNetwork()
        for n in NODES:
            self.net.add_node(n)
        for i, a in enumerate(NODES):
            for b in NODES[i + 1 :]:
                self.net.add_link(a, b, 10.0)
        self.sim = Simulator()
        self.router = Router(self.net)
        self.bus = MessageBus(sim=self.sim, router=self.router)
        self.detectors = build_detector_mesh(NODES, self.sim, self.bus)
        self.stores = {n: StateStore(n) for n in NODES}
        self.gossip = GossipSync(self.stores, self.sim, self.bus)
        for node in NODES:
            self.bus.register(node, self._mux(node))
        for det in self.detectors.values():
            det.start()
        self.gossip.start()
        self.election = LeaderElection(self.net)

    def _mux(self, node):
        det = self.detectors[node]
        gossip_handler = self.gossip.make_handler(node)

        def mux(msg):
            if msg.kind == "heartbeat":
                det.on_message(msg)
            elif msg.kind == "state-gossip":
                gossip_handler(msg)

        return mux

    # ------------------------------------------------------------------ #

    def cut(self, group: set[str]) -> list[tuple[str, str]]:
        cut = [
            (a, b)
            for a, b in self.net.links()
            if (a in group) != (b in group)
        ]
        for a, b in cut:
            self.net.fail_link(a, b)
        return cut

    def heal(self, cut: list[tuple[str, str]]) -> None:
        for a, b in cut:
            self.net.restore_link(a, b)

    def settle(self, span_s: float) -> None:
        self.sim.run_until(self.sim.now + span_s)

    def local_leaders(self) -> dict[str, str]:
        return {n: d.local_leader() for n, d in self.detectors.items()}

    def assert_views_match_election(self) -> None:
        """Every node's detector leader equals its component's election."""
        oracle = {
            n: self.election.elect(n, now=self.sim.now)
            for n in self.net.alive_nodes()
        }
        assert self.local_leaders() == oracle


CYCLES = [
    {"n1", "n2"},  # majority loses the min-id node -> n3 takes over
    {"n5"},  # lone node; the rest keeps n1
    {"n1", "n4", "n5"},  # split with the min id on the small side
]


class TestPartitionHealCycles:
    def test_each_cycle_converges_within_detector_bound(self):
        mesh = Mesh()
        mesh.settle(PERIOD_S + 0.5)  # first heartbeats land
        mesh.assert_views_match_election()
        for group in CYCLES:
            cut = mesh.cut(group)
            mesh.settle(DETECT_BOUND_S)
            # both sides of the partition follow their component minimum
            mesh.assert_views_match_election()
            leaders = set(mesh.local_leaders().values())
            assert leaders == {min(group), min(set(NODES) - group)}
            mesh.heal(cut)
            mesh.settle(HEAL_BOUND_S)
            mesh.assert_views_match_election()
            assert set(mesh.local_leaders().values()) == {"n1"}

    def test_no_node_stays_falsely_suspected_after_final_heal(self):
        mesh = Mesh()
        mesh.settle(PERIOD_S + 0.5)
        for group in CYCLES:
            cut = mesh.cut(group)
            mesh.settle(DETECT_BOUND_S)
            mesh.heal(cut)
            mesh.settle(HEAL_BOUND_S)
        for det in mesh.detectors.values():
            assert det.suspected_peers() == []
            assert det.alive_view() == NODES

    def test_gossip_reconverges_after_every_heal(self):
        mesh = Mesh()
        for i, node in enumerate(NODES):
            mesh.stores[node].update_local({"epoch": 0, "idx": i})
        for epoch, group in enumerate(CYCLES, start=1):
            cut = mesh.cut(group)
            # publish fresh state *during* the partition: the two sides
            # must diverge because gossip cannot cross the cut
            for node in NODES:
                mesh.stores[node].update_local({"epoch": epoch})
            mesh.settle(DETECT_BOUND_S)
            assert not mesh.gossip.converged()
            mesh.heal(cut)
            # full rotation coverage: every node pushes to every peer
            # within len(peers) rounds; allow one extra for relaying
            mesh.settle(GOSSIP_S * (len(NODES)) * 2)
            assert mesh.gossip.converged()
            # and the converged view carries the partition-era updates
            for node in NODES:
                for region in NODES:
                    entry = mesh.stores[node].get(region)
                    assert entry is not None
                    assert entry.payload["epoch"] == epoch

    def test_takeover_count_matches_cycles_that_displace_the_leader(self):
        mesh = Mesh()
        mesh.settle(PERIOD_S + 0.5)
        election = LeaderElection(mesh.net)
        observed = []
        for group in CYCLES:
            cut = mesh.cut(group)
            mesh.settle(DETECT_BOUND_S)
            observed.append(election.elect("n3", now=mesh.sim.now))
            mesh.heal(cut)
            mesh.settle(HEAL_BOUND_S)
            observed.append(election.elect("n3", now=mesh.sim.now))
        # n3's side loses n1 in cycles 1 and 3, regains it on each heal
        assert observed == ["n3", "n1", "n1", "n1", "n2", "n1"]
        # n3 -> n1, n1 -> n2, n2 -> n1: three leader changes
        leaders = [leader for leader, _ in groupby(r.leader for r in election.history)]
        assert leaders == ["n3", "n1", "n2", "n1"]
