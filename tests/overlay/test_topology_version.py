"""The topology version is complete: no mutator forgets to bump it.

Everything derived from an :class:`OverlayNetwork` -- its live adjacency
and components, a :class:`Router`'s path cache -- is cached under
``OverlayNetwork.version``.  A mutator that changed the topology without
moving the version would leave all of them serving the old topology, so
this drives random mutation sequences (repeats and no-ops included)
against long-lived, warm objects and compares every answer, after every
step, with a network and router rebuilt from the mutation log.
"""

import random

import pytest

from repro.overlay import NoRouteError, OverlayNetwork, Router

NAMES = [f"n{i}" for i in range(6)]


def replay(log):
    """A fresh network (and router) that only ever saw ``log``."""
    net = OverlayNetwork()
    for op, *args in log:
        getattr(net, op)(*args)
    return net, Router(net)


def answers(net, router):
    """Every topology-derived answer the overlay layer gives."""
    nodes, live = net.nodes(), net.live_view()
    out = {
        "partitioned": net.is_partitioned(),
        "components": {n: net.component_of(n) for n in nodes},
        "live_nodes": list(live),
        "live_edges": sorted(
            (a, b, latency)
            for a, nbrs in live.items()
            for b, latency in nbrs.items()
            if a < b
        ),
    }
    for src in nodes:
        for dst in nodes:
            try:
                out[src, dst] = router.route(src, dst)
                assert router.latency(src, dst) == out[src, dst][1]
            except NoRouteError as exc:
                out[src, dst] = str(exc)
            assert router.reachable(src, dst) == isinstance(out[src, dst], tuple)
    return out


def random_mutation(rng, net):
    """One mutator call: fresh, repeated, or a no-op on current state."""
    nodes, links = net.nodes(), net.links()
    ops = ["add_node"]
    if len(nodes) >= 2:
        ops += ["add_link"] * 2
    if nodes:
        ops += ["fail_node", "restore_node"]
    if links:
        ops += ["fail_link", "restore_link"] * 2
    op = rng.choice(ops)
    if op == "add_node":
        return (op, rng.choice(NAMES))  # often already registered
    if op == "add_link":
        a, b = rng.sample(nodes, 2)
        return (op, a, b, float(rng.randint(1, 4) * 10))  # ties are common
    if op in ("fail_node", "restore_node"):
        return (op, rng.choice(nodes))  # often already down / up
    a, b = rng.choice(links)
    return (op, b, a) if rng.random() < 0.5 else (op, a, b)


@pytest.mark.parametrize("seed", range(12))
def test_warm_caches_equal_a_rebuild_after_every_mutation(seed):
    rng = random.Random(seed)
    net = OverlayNetwork()
    router = Router(net)
    log = []
    for _ in range(60):
        answers(net, router)  # warm every cache on the pre-mutation topology
        mutation = random_mutation(rng, net)
        getattr(net, mutation[0])(*mutation[1:])
        log.append(mutation)
        assert answers(net, router) == answers(*replay(log)), (seed, log)


def test_version_moves_only_on_mutators():
    net = OverlayNetwork.full_mesh({("a", "b"): 5.0, ("b", "c"): 5.0})
    router = Router(net)
    v = net.version
    net.add_node("a")  # already there: the documented no-op
    answers(net, router)
    net.link_latency("a", "b"), net.has_link("a", "c"), net.alive_nodes()
    assert net.version == v
    for mutate in (
        lambda: net.add_node("d"),
        lambda: net.add_link("c", "d", 1.0),
        lambda: net.fail_link("a", "b"),
        lambda: net.restore_link("a", "b"),
        lambda: net.fail_node("b"),
        lambda: net.restore_node("b"),
    ):
        mutate()
        assert net.version > v
        v = net.version


def test_live_view_refuses_mutation_and_components_are_fresh_sets():
    net = OverlayNetwork.full_mesh({("a", "b"): 5.0})
    live = net.live_view()
    with pytest.raises(TypeError):
        del live["b"]
    with pytest.raises(TypeError):
        live["a"]["b"] = 1.0
    with pytest.raises(TypeError):
        del live["a"]["b"]
    assert {n: dict(nbrs) for n, nbrs in net.live_view().items()} == {
        "a": {"b": 5.0},
        "b": {"a": 5.0},
    }
    component = net.component_of("a")
    component.clear()
    assert net.component_of("a") == {"a", "b"}
