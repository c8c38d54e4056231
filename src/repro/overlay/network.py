"""Latency-weighted overlay graph among region controllers.

Nodes are VMC identifiers; edges carry one-way latency in milliseconds.
Links and nodes can fail and recover at runtime; the live topology (the
subgraph induced by alive nodes and up links) is what routing and election
operate on.

Every mutator bumps :attr:`OverlayNetwork.version`, and anything derived
from the topology -- the live graph and its components here, the path
cache of :class:`~repro.overlay.routing.Router` -- is keyed on that
integer.  Nobody is told to invalidate anything.
"""

from __future__ import annotations

import networkx as nx


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
        self._graph = nx.Graph()
        self.version = 0
        # (version, frozen live graph, node -> its connected component):
        # what _live() built last
        self._live_cache: (
            tuple[int, nx.Graph, dict[str, frozenset[str]]] | None
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
        if name in self._graph:
            return
        self._graph.add_node(name, alive=True)
        self.version += 1

    def add_link(self, a: str, b: str, latency_ms: float) -> None:
        """Connect two registered nodes with a symmetric link."""
        if latency_ms <= 0:
            raise ValueError(f"latency must be positive, got {latency_ms}")
        if a == b:
            raise ValueError("self-links are not allowed")
        for n in (a, b):
            if n not in self._graph:
                raise KeyError(f"unknown node {n!r}; add_node first")
        self._graph.add_edge(a, b, latency_ms=float(latency_ms), up=True)
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
        self._graph.edges[a, b]["up"] = False
        self.version += 1

    def restore_link(self, a: str, b: str) -> None:
        """Bring a failed link back up."""
        self._require_edge(a, b)
        self._graph.edges[a, b]["up"] = True
        self.version += 1

    def fail_node(self, name: str) -> None:
        """Crash a controller node (all its links become unusable)."""
        self._require_node(name)
        self._graph.nodes[name]["alive"] = False
        self.version += 1

    def restore_node(self, name: str) -> None:
        """Recover a crashed node."""
        self._require_node(name)
        self._graph.nodes[name]["alive"] = True
        self.version += 1

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def nodes(self) -> list[str]:
        """All registered nodes, sorted."""
        return sorted(self._graph.nodes)

    def alive_nodes(self) -> list[str]:
        """Nodes currently alive, sorted."""
        return sorted(
            n for n, d in self._graph.nodes(data=True) if d["alive"]
        )

    def is_alive(self, name: str) -> bool:
        """Whether the node is registered and alive."""
        return name in self._graph and self._graph.nodes[name]["alive"]

    def has_link(self, a: str, b: str) -> bool:
        """Whether a direct link is registered (regardless of up/down)."""
        return self._graph.has_edge(a, b)

    def links(self) -> list[tuple[str, str]]:
        """All registered links as sorted node pairs, sorted."""
        return sorted(tuple(sorted(edge)) for edge in self._graph.edges)

    def link_latency(self, a: str, b: str) -> float:
        """Latency of the direct link (must exist, may be down)."""
        self._require_edge(a, b)
        return float(self._graph.edges[a, b]["latency_ms"])

    def link_is_up(self, a: str, b: str) -> bool:
        """Whether the direct link exists, is up, and both ends are alive."""
        if not self._graph.has_edge(a, b):
            return False
        return (
            self._graph.edges[a, b]["up"]
            and self.is_alive(a)
            and self.is_alive(b)
        )

    def live_view(self) -> nx.Graph:
        """The subgraph of alive nodes and up links, shared and frozen.

        Built at most once per :attr:`version`; what routing and
        election read.  Use :meth:`live_graph` for a graph to mutate.
        """
        return self._live()[0]

    def live_graph(self) -> nx.Graph:
        """The subgraph of alive nodes and up links (a copy)."""
        return self.live_view().copy()

    def component_of(self, name: str) -> set[str]:
        """Alive nodes reachable from ``name`` (including itself)."""
        self._require_node(name)
        return set(self._live()[1].get(name, ()))

    def is_partitioned(self) -> bool:
        """True when alive nodes split into more than one component."""
        components = self._live()[1]  # one entry per alive node
        return any(len(c) < len(components) for c in components.values())

    # ------------------------------------------------------------------ #

    def _live(self) -> tuple[nx.Graph, dict[str, frozenset[str]]]:
        """The live graph and node -> component map of this version."""
        cache = self._live_cache
        if cache is None or cache[0] != self.version:
            g = nx.Graph()
            for n in self.alive_nodes():
                g.add_node(n)
            for a, b, data in self._graph.edges(data=True):
                if data["up"] and self.is_alive(a) and self.is_alive(b):
                    g.add_edge(a, b, latency_ms=data["latency_ms"])
            components = {
                n: component
                for component in map(frozenset, nx.connected_components(g))
                for n in component
            }
            cache = self._live_cache = (self.version, nx.freeze(g), components)
        return cache[1], cache[2]

    # ------------------------------------------------------------------ #

    def _require_node(self, name: str) -> None:
        if name not in self._graph:
            raise KeyError(f"unknown node {name!r}")

    def _require_edge(self, a: str, b: str) -> None:
        if not self._graph.has_edge(a, b):
            raise KeyError(f"no link between {a!r} and {b!r}")
