"""Latency-weighted overlay graph among region controllers.

Nodes are VMC identifiers; edges carry one-way latency in milliseconds.
Links and nodes can fail and recover at runtime; the live topology (the
subgraph induced by alive nodes and up links) is what routing and election
operate on.

Every mutator bumps :attr:`OverlayNetwork.version`, and anything derived
from the topology -- the live adjacency and its components here, the path
cache of :class:`~repro.overlay.routing.Router` -- is keyed on that
integer.  Nobody is told to invalidate anything.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from types import MappingProxyType

#: node -> neighbour -> latency (ms)
Adjacency = Mapping[str, Mapping[str, float]]


class OverlayNetwork:
    """Mutable overlay topology with failure injection.

    Examples
    --------
    >>> net = OverlayNetwork()
    >>> net.add_node("r1"); net.add_node("r2")
    >>> net.add_link("r1", "r2", latency_ms=25.0)
    >>> net.alive_nodes()
    ['r1', 'r2']

    Attributes
    ----------
    version:
        Mutation count: bumped by every call that can change the topology
        (``add_node`` when it adds, ``add_link``, ``fail_*``,
        ``restore_*``).  Equal versions mean an identical topology, so a
        derived value cached under one version is valid for exactly as
        long as the version stands.
    """

    def __init__(self) -> None:
        # node -> alive, in registration order
        self._alive: dict[str, bool] = {}
        # node -> neighbour -> the link's [latency_ms, up], one record
        # shared by both ends, in link-registration order
        self._links: dict[str, dict[str, list]] = {}
        self.version = 0
        # (version, read-only live adjacency, node -> its connected
        # component): what _live() built last
        self._live_cache: (
            tuple[int, Adjacency, dict[str, frozenset[str]]] | None
        ) = None

    # ------------------------------------------------------------------ #
    # topology construction
    # ------------------------------------------------------------------ #

    def add_node(self, name: str) -> None:
        """Register a controller node (idempotent).

        Re-adding an existing node is a no-op: in particular it does
        *not* revive a crashed node -- recovery must go through
        :meth:`restore_node` explicitly, so that deployment-description
        code (which re-declares topology idempotently) can never mask a
        failure that chaos injection or a real outage produced.
        """
        if name in self._alive:
            return
        self._alive[name] = True
        self._links[name] = {}
        self.version += 1

    def add_link(self, a: str, b: str, latency_ms: float) -> None:
        """Connect two registered nodes with a symmetric link.

        Re-adding a registered link sets its latency and brings it up; it
        keeps its place in each end's neighbour order.
        """
        if not 0 < latency_ms < math.inf:
            raise ValueError(
                f"latency must be positive and finite, got {latency_ms}"
            )
        if a == b:
            raise ValueError("self-links are not allowed")
        for n in (a, b):
            if n not in self._alive:
                raise KeyError(f"unknown node {n!r}; add_node first")
        self._links[a][b] = self._links[b][a] = [float(latency_ms), True]
        self.version += 1

    @classmethod
    def full_mesh(
        cls, latencies: dict[tuple[str, str], float]
    ) -> "OverlayNetwork":
        """Build a network from a pairwise latency table.

        Keys are unordered node pairs; all mentioned nodes are registered.
        """
        net = cls()
        for (a, b) in latencies:
            net.add_node(a)
            net.add_node(b)
        for (a, b), lat in latencies.items():
            net.add_link(a, b, lat)
        return net

    # ------------------------------------------------------------------ #
    # failure injection
    # ------------------------------------------------------------------ #

    def fail_link(self, a: str, b: str) -> None:
        """Take a link down (routing must reroute around it)."""
        self._require_edge(a, b)
        self._links[a][b][1] = False
        self.version += 1

    def restore_link(self, a: str, b: str) -> None:
        """Bring a failed link back up."""
        self._require_edge(a, b)
        self._links[a][b][1] = True
        self.version += 1

    def fail_node(self, name: str) -> None:
        """Crash a controller node (all its links become unusable)."""
        self._require_node(name)
        self._alive[name] = False
        self.version += 1

    def restore_node(self, name: str) -> None:
        """Recover a crashed node."""
        self._require_node(name)
        self._alive[name] = True
        self.version += 1

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def nodes(self) -> list[str]:
        """All registered nodes, sorted."""
        return sorted(self._alive)

    def alive_nodes(self) -> list[str]:
        """Nodes currently alive, sorted."""
        return sorted(n for n, alive in self._alive.items() if alive)

    def is_alive(self, name: str) -> bool:
        """Whether the node is registered and alive."""
        return self._alive.get(name, False)

    def has_link(self, a: str, b: str) -> bool:
        """Whether a direct link is registered (regardless of up/down)."""
        return b in self._links.get(a, ())

    def links(self) -> list[tuple[str, str]]:
        """All registered links as sorted node pairs, sorted."""
        return sorted(
            (a, b) for a, nbrs in self._links.items() for b in nbrs if a < b
        )

    def link_latency(self, a: str, b: str) -> float:
        """Latency of the direct link (must exist, may be down)."""
        self._require_edge(a, b)
        return self._links[a][b][0]

    def live_view(self) -> Adjacency:
        """Alive nodes and up links: node -> neighbour -> latency (ms).

        Built at most once per :attr:`version` and shared, so it is
        read-only, as is each neighbour map.  Nodes are in sorted order;
        each neighbour map is in the order its links were registered,
        which is the order in which routing breaks latency ties.
        """
        return self._live()[0]

    def component_of(self, name: str) -> set[str]:
        """Alive nodes reachable from ``name`` (including itself)."""
        self._require_node(name)
        return set(self._live()[1].get(name, ()))

    def is_partitioned(self) -> bool:
        """True when alive nodes split into more than one component."""
        components = self._live()[1]  # one entry per alive node
        return any(len(c) < len(components) for c in components.values())

    # ------------------------------------------------------------------ #

    def _live(self) -> tuple[Adjacency, dict[str, frozenset[str]]]:
        """The live adjacency and node -> component map of this version."""
        cache = self._live_cache
        if cache is None or cache[0] != self.version:
            alive = self._alive
            adj: dict[str, dict[str, float]] = {
                n: {} for n in self.alive_nodes()
            }
            # each link once, at the first of its ends to be registered
            done: set[str] = set()
            for a, nbrs in self._links.items():
                for b, (latency, up) in nbrs.items():
                    if b not in done and up and alive[a] and alive[b]:
                        adj[a][b] = adj[b][a] = latency
                done.add(a)
            components: dict[str, frozenset[str]] = {}
            for start in adj:
                if start in components:
                    continue
                reached, frontier = {start}, [start]
                while frontier:
                    for n in adj[frontier.pop()]:
                        if n not in reached:
                            reached.add(n)
                            frontier.append(n)
                component = frozenset(reached)
                components.update(dict.fromkeys(component, component))
            frozen = MappingProxyType(
                {n: MappingProxyType(nbrs) for n, nbrs in adj.items()}
            )
            cache = self._live_cache = (self.version, frozen, components)
        return cache[1], cache[2]

    # ------------------------------------------------------------------ #

    def _require_node(self, name: str) -> None:
        if name not in self._alive:
            raise KeyError(f"unknown node {name!r}")

    def _require_edge(self, a: str, b: str) -> None:
        if not self.has_link(a, b):
            raise KeyError(f"no link between {a!r} and {b!r}")
