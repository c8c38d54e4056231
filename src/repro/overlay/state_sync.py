"""Versioned dissemination of the global system state.

Figure 1 annotates the overlay links with "global system state": every
controller keeps a view of every region's latest state (RMTTF, installed
fraction, pool size), so that any VMC can take over as leader with warm
state after an election.  We implement the standard mechanism for this:
*versioned anti-entropy gossip*.

* each node owns one entry (its own region state) and bumps its version
  on every local update;
* periodically each node pushes its full view to a peer over the message
  bus (paying overlay latency, dropped under partition);
* on receipt, entries with higher versions win (last-writer-wins per
  region -- safe because each region's entry has a single writer, its own
  VMC).

The tests assert the two properties ACM needs: *convergence* (after
gossip rounds every connected node holds the newest state of every
region) and *partition healing* (views diverge during a partition and
reconcile after it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.overlay.messaging import Message, MessageBus
from repro.sim.engine import Simulator

#: Anti-entropy gossip round interval (simulated seconds).
GOSSIP_PERIOD_S = 10.0


@dataclass(frozen=True, slots=True)
class StateEntry:
    """One region's versioned state."""

    region: str
    version: int
    payload: Any

    def newer_than(self, other: "StateEntry | None") -> bool:
        return other is None or self.version > other.version


class StateStore:
    """One controller's view of the global system state.

    Parameters
    ----------
    node:
        The owning controller; only this node may write the entry for
        its own region (single-writer discipline).
    """

    def __init__(self, node: str) -> None:
        self.node = node
        self._entries: dict[str, StateEntry] = {}
        self._own_version = 0

    def update_local(self, payload: Any) -> StateEntry:
        """Publish a new version of this node's own region state."""
        self._own_version += 1
        entry = StateEntry(
            region=self.node, version=self._own_version, payload=payload
        )
        self._entries[self.node] = entry
        return entry

    def merge(self, entries: list[StateEntry]) -> int:
        """Fold received entries in; returns how many were adopted.

        An entry is adopted iff its version exceeds the stored one.  A
        node never adopts foreign writes about *its own* region (it is
        the single writer).
        """
        adopted = 0
        for entry in entries:
            if entry.region == self.node:
                continue
            if entry.newer_than(self._entries.get(entry.region)):
                self._entries[entry.region] = entry
                adopted += 1
        return adopted

    def get(self, region: str) -> StateEntry | None:
        """The stored entry for a region, if any."""
        return self._entries.get(region)

    def snapshot(self) -> dict[str, StateEntry]:
        """Copy of the full view."""
        return dict(self._entries)

    def version_vector(self) -> dict[str, int]:
        """region -> known version (the anti-entropy digest)."""
        return {r: e.version for r, e in sorted(self._entries.items())}


class GossipSync:
    """Periodic push gossip of state stores over the overlay bus.

    Parameters
    ----------
    stores:
        node -> its store; every node gossips to every peer in a fixed
        rotation (deterministic: no RNG needed, full coverage each
        ``len(peers)`` rounds).
    sim, bus:
        Scheduling and transport.  The owner of each node's bus
        registration chains :meth:`make_handler` into it.

    A round runs every :data:`GOSSIP_PERIOD_S` once :meth:`start` is
    called.
    """

    def __init__(
        self, stores: dict[str, StateStore], sim: Simulator, bus: MessageBus
    ) -> None:
        if not stores:
            raise ValueError("need at least one store")
        self.stores = stores
        self.sim = sim
        self.bus = bus
        self._round = 0
        self._stops: list = []

    def make_handler(self, node: str):
        """Bus handler for ``node``, to chain from the node's bus
        registration."""

        def handle(msg: Message) -> None:
            if msg.kind != "state-gossip":
                return
            self.stores[node].merge(msg.payload)

        return handle

    def start(self) -> None:
        """Begin periodic gossip rounds."""
        self._stops.append(
            self.sim.schedule_periodic(
                GOSSIP_PERIOD_S, self._gossip_round, label="gossip"
            )
        )

    def stop(self) -> None:
        for s in self._stops:
            s()
        self._stops.clear()

    def _gossip_round(self) -> None:
        nodes = sorted(self.stores)
        self._round += 1
        for i, node in enumerate(nodes):
            if not self.bus.router.network.is_alive(node):
                continue
            # deterministic rotation: each round, push to the next peer
            peers = [p for p in nodes if p != node]
            if not peers:
                continue
            target = peers[(self._round + i) % len(peers)]
            entries = list(self.stores[node].snapshot().values())
            self.bus.send(node, target, "state-gossip", entries)

    def converged(self) -> bool:
        """True when every store holds identical version vectors."""
        vectors = [s.version_vector() for s in self.stores.values()]
        return all(v == vectors[0] for v in vectors[1:])
