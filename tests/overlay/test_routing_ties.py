"""Which of two equal-latency paths the router picks.

Ties decide real routes (overlay latencies are round numbers), and a
different pick changes which links a message crosses, so the tie rule is
pinned twice: hand-built tie topologies with the paths the router has
always returned, and seeded random topologies compared route for route
against networkx's ``dijkstra_path`` on the live graph built the way the
overlay once built it with networkx.
"""

import random

import pytest

from repro.overlay import NoRouteError, OverlayNetwork, Router

SQUARE = {
    ("a", "b"): 10.0,
    ("b", "c"): 10.0,
    ("c", "d"): 10.0,
    ("d", "a"): 10.0,
}
#: triangle whose direct a-c link costs exactly the two hops through b
TRIANGLE = {("a", "b"): 10.0, ("b", "c"): 10.0, ("a", "c"): 20.0}


def routes(net, pairs):
    router = Router(net)
    return {(s, d): router.route(s, d) for s, d in pairs}


def test_a_square_with_equal_sides():
    net = OverlayNetwork.full_mesh(SQUARE)
    assert routes(net, ["ac", "ca", "bd", "db"]) == {
        ("a", "c"): (["a", "b", "c"], 20.0),
        ("c", "a"): (["c", "b", "a"], 20.0),
        ("b", "d"): (["b", "a", "d"], 20.0),
        ("d", "b"): (["d", "a", "b"], 20.0),
    }
    # the same square, links registered in the opposite order
    net = OverlayNetwork.full_mesh(dict(reversed(SQUARE.items())))
    assert routes(net, ["ac", "ca", "bd", "db"]) == {
        ("a", "c"): (["a", "d", "c"], 20.0),
        ("c", "a"): (["c", "d", "a"], 20.0),
        ("b", "d"): (["b", "a", "d"], 20.0),
        ("d", "b"): (["d", "a", "b"], 20.0),
    }


def test_a_square_reroutes_and_a_restore_brings_the_old_pick_back():
    net = OverlayNetwork.full_mesh(SQUARE)
    net.fail_link("a", "b")
    assert routes(net, ["ac", "bd"]) == {
        ("a", "c"): (["a", "d", "c"], 20.0),
        ("b", "d"): (["b", "c", "d"], 20.0),
    }
    net.restore_link("a", "b")
    assert routes(net, ["ac", "bd", "ca"]) == {
        ("a", "c"): (["a", "b", "c"], 20.0),
        ("b", "d"): (["b", "a", "d"], 20.0),
        ("c", "a"): (["c", "b", "a"], 20.0),
    }


def test_a_direct_link_as_long_as_two_hops():
    for latencies in (TRIANGLE, dict(reversed(TRIANGLE.items()))):
        net = OverlayNetwork.full_mesh(latencies)
        assert routes(net, ["ac", "ca", "ab", "bc"]) == {
            ("a", "c"): (["a", "c"], 20.0),
            ("c", "a"): (["c", "a"], 20.0),
            ("a", "b"): (["a", "b"], 10.0),
            ("b", "c"): (["b", "c"], 10.0),
        }


class NxOverlay:
    """The overlay's bookkeeping spelled with a networkx graph: alive and
    up flags as node and edge attributes, the live graph rebuilt from
    sorted alive nodes and the base graph's edge order."""

    def __init__(self, nx) -> None:
        self.nx = nx
        self.graph = nx.Graph()

    def add_node(self, name):
        if name not in self.graph:
            self.graph.add_node(name, alive=True)

    def add_link(self, a, b, latency_ms):
        self.graph.add_edge(a, b, latency_ms=latency_ms, up=True)

    def fail_link(self, a, b):
        self.graph.edges[a, b]["up"] = False

    def restore_link(self, a, b):
        self.graph.edges[a, b]["up"] = True

    def fail_node(self, name):
        self.graph.nodes[name]["alive"] = False

    def restore_node(self, name):
        self.graph.nodes[name]["alive"] = True

    def route(self, src, dst):
        alive = self.graph.nodes(data="alive")
        live = self.nx.Graph()
        live.add_nodes_from(sorted(n for n, up in alive if up))
        for a, b, data in self.graph.edges(data=True):
            if data["up"] and alive[a] and alive[b]:
                live.add_edge(a, b, latency_ms=data["latency_ms"])
        if src == dst:
            return ([src], 0.0) if src in live else None
        if src not in live or dst not in live:
            return None
        try:
            path = self.nx.dijkstra_path(live, src, dst, weight="latency_ms")
        except self.nx.NetworkXNoPath:
            return None
        weight = self.nx.path_weight(live, path, weight="latency_ms")
        return path, float(weight)


def mutation(rng, net):
    nodes = net.nodes()
    ops = ["add_node"] + ["add_link"] * 3 * (len(nodes) >= 2)
    if net.links():
        ops += ["fail_link", "restore_link", "fail_node", "restore_node"]
    op = rng.choice(ops)
    if op == "add_node":
        return op, f"n{rng.randrange(7)}"
    if op == "add_link":
        return (op, *rng.sample(nodes, 2), float(rng.choice((10, 20, 30, 40))))
    if op.endswith("_node"):
        return op, rng.choice(nodes)
    a, b = rng.choice(net.links())
    return (op, b, a) if rng.random() < 0.5 else (op, a, b)


@pytest.mark.parametrize("seed", range(8))
def test_every_route_matches_networkx_dijkstra(seed):
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    net, ref = OverlayNetwork(), NxOverlay(nx)
    router = Router(net)
    for step in range(120):
        op, *args = mutation(rng, net)
        getattr(net, op)(*args)
        getattr(ref, op)(*args)
        for src in net.nodes():
            for dst in net.nodes():
                try:
                    got = router.route(src, dst)
                except NoRouteError:
                    got = None
                assert got == ref.route(src, dst), (seed, step, src, dst)
