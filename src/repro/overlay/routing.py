"""Smallest-latency routing over the overlay, with failure rerouting.

The overlay "selects the path with the smallest latency among two given
controllers, and is able to reroute connections in case of a network link
failure" (Sec. III).  :class:`Router` computes Dijkstra shortest paths
(:func:`shortest_path`) on the live topology and caches them under the
network's :attr:`~repro.overlay.network.OverlayNetwork.version`; after any
topology mutation (fail/restore) the version has moved and paths are
recomputed -- that recomputation *is* the rerouting.
"""

from __future__ import annotations

from repro.overlay.network import Adjacency, OverlayNetwork


class NoRouteError(RuntimeError):
    """No live path exists between two controllers (network partition)."""


def shortest_path(
    adj: Adjacency, src: str, dst: str
) -> tuple[list[str], float] | None:
    """Dijkstra from ``src`` to ``dst``: the path and its latency, or
    ``None`` when unreachable.

    Ties between equal-latency paths are decided by the search order:
    nodes leave the fringe by (distance, order of discovery), neighbours
    are scanned in adjacency order, and a node's path is replaced only by
    a strictly shorter one.  The latency is the path's left-to-right sum.
    The fringe is a list and the next node its minimum: an overlay has a
    handful of nodes.
    """
    done: dict[str, float] = {}
    best = {src: 0.0}
    paths = {src: [src]}
    fringe = [(0.0, 0, src)]
    discovered = 1
    while fringe:
        entry = min(fringe)
        fringe.remove(entry)
        d, _, v = entry
        if v in done:
            continue
        done[v] = d
        if v == dst:
            return paths[v], d
        for u, latency in adj[v].items():
            du = d + latency
            if u not in done and (u not in best or du < best[u]):
                best[u] = du
                fringe.append((du, discovered, u))
                discovered += 1
                paths[u] = paths[v] + [u]
    return None


class Router:
    """Latency-optimal path selection on an :class:`OverlayNetwork`.

    Parameters
    ----------
    network:
        The overlay to route on.
    """

    def __init__(self, network: OverlayNetwork) -> None:
        self.network = network
        # paths on the topology of ``_cache_version``
        self._cache: dict[tuple[str, str], tuple[list[str], float]] = {}
        self._cache_version = network.version

    def route(self, src: str, dst: str) -> tuple[list[str], float]:
        """Smallest-latency path and its total latency in ms.

        Returns ``([src], 0.0)`` for ``src == dst``.

        Raises
        ------
        NoRouteError
            If either endpoint is dead or no live path connects them.
        """
        if src == dst:
            if not self.network.is_alive(src):
                raise NoRouteError(f"node {src!r} is down")
            return [src], 0.0
        if self._cache_version != self.network.version:
            self._cache.clear()
            self._cache_version = self.network.version
        key = (src, dst)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        live = self.network.live_view()
        if src not in live or dst not in live:
            raise NoRouteError(
                f"endpoint down: {src!r} or {dst!r} not in live topology"
            )
        found = shortest_path(live, src, dst)
        if found is None:
            raise NoRouteError(
                f"no live path between {src!r} and {dst!r} (partition)"
            )
        self._cache[key] = found
        return found

    def latency(self, src: str, dst: str) -> float:
        """Total latency of the best live path (ms)."""
        return self.route(src, dst)[1]

    def reachable(self, src: str, dst: str) -> bool:
        """Whether a live path currently exists."""
        try:
            self.route(src, dst)
            return True
        except NoRouteError:
            return False
