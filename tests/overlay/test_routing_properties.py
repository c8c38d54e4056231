"""Property-based tests for routing on random overlay topologies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay import NoRouteError, OverlayNetwork, Router


@st.composite
def random_overlay(draw):
    """A random connected-ish overlay of 3..7 nodes."""
    n = draw(st.integers(3, 7))
    names = [f"n{i}" for i in range(n)]
    net = OverlayNetwork()
    for name in names:
        net.add_node(name)
    # spanning chain guarantees base connectivity
    for a, b in zip(names, names[1:]):
        lat = draw(st.floats(1.0, 100.0))
        net.add_link(a, b, lat)
    # random extra edges
    extra = draw(st.integers(0, n * 2))
    for _ in range(extra):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i != j and not net.has_link(names[i], names[j]):
            net.add_link(names[i], names[j], draw(st.floats(1.0, 100.0)))
    return net, names


@settings(max_examples=50, deadline=None)
@given(data=random_overlay())
def test_route_never_worse_than_direct_link(data):
    net, names = data
    router = Router(net)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            try:
                direct = net.link_latency(a, b)
            except KeyError:
                continue
            assert router.latency(a, b) <= direct + 1e-9


@settings(max_examples=50, deadline=None)
@given(data=random_overlay())
def test_route_endpoints_and_path_validity(data):
    net, names = data
    router = Router(net)
    for a in names:
        for b in names:
            path, latency = router.route(a, b)
            assert path[0] == a and path[-1] == b
            assert latency >= 0
            # every hop is an up link
            for u, v in zip(path, path[1:]):
                assert v in net.live_view()[u]
            # latency is the sum of hop latencies
            total = sum(
                net.link_latency(u, v) for u, v in zip(path, path[1:])
            )
            assert latency == pytest.approx(total)


@settings(max_examples=50, deadline=None)
@given(data=random_overlay())
def test_route_symmetric(data):
    net, names = data
    router = Router(net)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            assert router.latency(a, b) == pytest.approx(
                router.latency(b, a)
            )


@settings(max_examples=30, deadline=None)
@given(data=random_overlay(), kill=st.integers(0, 6))
def test_failed_node_never_appears_in_paths(data, kill):
    net, names = data
    victim = names[kill % len(names)]
    net.fail_node(victim)
    router = Router(net)
    survivors = [n for n in names if n != victim]
    for a in survivors:
        for b in survivors:
            try:
                path, _ = router.route(a, b)
            except NoRouteError:
                continue  # partitioned: acceptable
            assert victim not in path
