"""Heartbeat-based failure detection among VMCs.

The election of Sec. III reacts to node and link failures; someone has to
*notice* those failures.  Real deployments cannot read a global liveness
oracle -- each controller suspects a peer after missing enough heartbeats.
:class:`HeartbeatDetector` implements the classic timeout detector on the
simulator:

* every :data:`HEARTBEAT_PERIOD_S` each node sends a heartbeat to every
  peer over the overlay (paying path latency; partitioned peers receive
  nothing);
* a peer not heard from for :data:`DETECTOR_TIMEOUT_S` becomes
  *suspected*;
* a heartbeat from a suspected peer immediately rehabilitates it.

The detector is *eventually accurate* on this overlay: a crashed or
partitioned peer is suspected within ``DETECTOR_TIMEOUT_S +
max_path_latency``, and a live reachable peer is never permanently
suspected.  Those two properties are what the election needs, and they
are what the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.overlay.messaging import Message, MessageBus
from repro.sim.engine import Simulator

#: Heartbeat period and failure-detector timeout (simulated seconds); the
#: timeout bounds how long a dead leader keeps being followed, and
#: exceeds the period, or every peer would flap.
HEARTBEAT_PERIOD_S = 5.0
DETECTOR_TIMEOUT_S = 15.0


@dataclass
class PeerState:
    """What one node believes about one peer."""

    last_heard: float = field(default=float("-inf"), init=False)
    suspected: bool = field(default=False, init=False)
    suspect_count: int = field(default=0, init=False)


class HeartbeatDetector:
    """Per-node failure detector over the overlay message bus.

    Parameters
    ----------
    node:
        The local controller's identifier.
    peers:
        Identifiers of the peers to watch.
    sim:
        Simulator to schedule heartbeats/checks on.
    bus:
        Message bus used both to send and to receive heartbeats; the
        owner of the node's bus registration chains :meth:`on_message`
        into it.
    """

    def __init__(
        self,
        node: str,
        peers: list[str],
        sim: Simulator,
        bus: MessageBus,
    ) -> None:
        if node in peers:
            raise ValueError("a node does not watch itself")
        self.node = node
        self.sim = sim
        self.bus = bus
        self.peers: dict[str, PeerState] = {p: PeerState() for p in peers}
        self._stop_beat = None
        self._stop_check = None

    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Begin sending heartbeats and checking timeouts."""
        # treat "now" as the epoch: peers get a full timeout of grace
        for state in self.peers.values():
            state.last_heard = self.sim.now
        self._stop_beat = self.sim.schedule_periodic(
            HEARTBEAT_PERIOD_S,
            self._send_heartbeats,
            label=f"hb:{self.node}",
        )
        self._stop_check = self.sim.schedule_periodic(
            HEARTBEAT_PERIOD_S,
            self._check_timeouts,
            label=f"hbchk:{self.node}",
        )

    def stop(self) -> None:
        """Stop heartbeating (the node is shutting down)."""
        if self._stop_beat is not None:
            self._stop_beat()
        if self._stop_check is not None:
            self._stop_check()

    def on_message(self, msg: Message) -> None:
        """Bus handler: record a heartbeat from a peer."""
        if msg.kind != "heartbeat":
            return
        state = self.peers.get(msg.src)
        if state is None:
            return
        state.last_heard = self.sim.now
        if state.suspected:
            state.suspected = False  # rehabilitation

    # ------------------------------------------------------------------ #

    def _send_heartbeats(self) -> None:
        if not self.bus.router.network.is_alive(self.node):
            return  # a dead node sends nothing
        for peer in self.peers:
            self.bus.send(self.node, peer, "heartbeat", None)

    def _check_timeouts(self) -> None:
        now = self.sim.now
        for state in self.peers.values():
            if (
                not state.suspected
                and now - state.last_heard > DETECTOR_TIMEOUT_S
            ):
                state.suspected = True
                state.suspect_count += 1

    # ------------------------------------------------------------------ #

    def suspected_peers(self) -> list[str]:
        """Currently suspected peers, sorted."""
        return sorted(p for p, s in self.peers.items() if s.suspected)

    def alive_view(self) -> list[str]:
        """The local view of live nodes (self + unsuspected peers)."""
        return sorted(
            [self.node]
            + [p for p, s in self.peers.items() if not s.suspected]
        )

    def local_leader(self) -> str:
        """Leader according to the local view (min id), as in Sec. III.

        This is the decentralised form of
        :meth:`repro.overlay.election.LeaderElection.elect`: every node
        applies the same rule to its own detector view, and views agree
        once detectors converge.
        """
        return min(self.alive_view())


def build_detector_mesh(
    nodes: list[str], sim: Simulator, bus: MessageBus
) -> dict[str, HeartbeatDetector]:
    """One detector per node, not yet started.

    The owner of each node's bus registration chains
    :meth:`HeartbeatDetector.on_message` into it, then starts the
    detectors.
    """
    if len(set(nodes)) != len(nodes):
        raise ValueError("duplicate node names")
    return {
        node: HeartbeatDetector(
            node, [p for p in nodes if p != node], sim, bus
        )
        for node in nodes
    }
