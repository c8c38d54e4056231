"""Tests for the overlay network and latency routing."""

import math

import pytest

from repro.overlay import NoRouteError, OverlayNetwork, Router


@pytest.fixture
def triangle():
    """Three regions: direct r1-r3 link is slow; r1-r2-r3 is faster."""
    return OverlayNetwork.full_mesh(
        {
            ("r1", "r2"): 10.0,
            ("r2", "r3"): 10.0,
            ("r1", "r3"): 50.0,
        }
    )


class TestOverlayNetwork:
    def test_add_and_query_nodes(self):
        net = OverlayNetwork()
        net.add_node("a")
        assert net.nodes() == ["a"]
        assert net.is_alive("a")
        assert not net.is_alive("ghost")

    def test_link_requires_registered_nodes(self):
        net = OverlayNetwork()
        net.add_node("a")
        with pytest.raises(KeyError):
            net.add_link("a", "b", 1.0)

    def test_link_validation(self, triangle):
        with pytest.raises(ValueError):
            triangle.add_link("r1", "r2", 0.0)
        with pytest.raises(ValueError):
            triangle.add_link("r1", "r1", 1.0)

    @pytest.mark.parametrize("latency", [math.nan, math.inf, -math.inf])
    def test_non_finite_latency_is_refused(self, triangle, latency):
        """A NaN link would make every Dijkstra comparison false and
        silently change routes; an infinite one is no link."""
        version = triangle.version
        with pytest.raises(ValueError, match="finite"):
            triangle.add_link("r1", "r2", latency)
        assert triangle.version == version
        assert triangle.link_latency("r1", "r2") == 10.0
        with pytest.raises(ValueError, match="finite"):
            OverlayNetwork.full_mesh({("a", "b"): 5.0, ("b", "c"): latency})

    def test_full_mesh_builder(self, triangle):
        assert triangle.nodes() == ["r1", "r2", "r3"]
        assert triangle.link_latency("r1", "r3") == 50.0

    def test_readd_does_not_revive_crashed_node(self, triangle):
        """Regression: idempotent re-add must not mask a crash."""
        triangle.fail_node("r2")
        triangle.add_node("r2")  # idempotent re-declaration
        assert not triangle.is_alive("r2")
        assert triangle.alive_nodes() == ["r1", "r3"]
        # revival goes through restore_node, and only restore_node
        triangle.restore_node("r2")
        assert triangle.is_alive("r2")

    def test_readd_keeps_existing_links(self, triangle):
        triangle.add_node("r1")
        assert triangle.link_latency("r1", "r2") == 10.0

    def test_fail_and_restore_link(self, triangle):
        triangle.fail_link("r1", "r2")
        assert "r2" not in triangle.live_view()["r1"]
        triangle.restore_link("r1", "r2")
        assert "r2" in triangle.live_view()["r1"]

    def test_fail_node_downs_its_links(self, triangle):
        triangle.fail_node("r2")
        assert "r2" not in triangle.live_view()["r1"]
        assert triangle.alive_nodes() == ["r1", "r3"]
        triangle.restore_node("r2")
        assert "r2" in triangle.live_view()["r1"]

    def test_component_of(self, triangle):
        assert triangle.component_of("r1") == {"r1", "r2", "r3"}
        triangle.fail_link("r1", "r2")
        triangle.fail_link("r1", "r3")
        assert triangle.component_of("r1") == {"r1"}
        assert triangle.component_of("r2") == {"r2", "r3"}

    def test_component_of_dead_node_empty(self, triangle):
        triangle.fail_node("r1")
        assert triangle.component_of("r1") == set()

    def test_partition_detection(self, triangle):
        assert not triangle.is_partitioned()
        triangle.fail_link("r1", "r2")
        assert not triangle.is_partitioned()  # still connected via r3
        triangle.fail_link("r1", "r3")
        assert triangle.is_partitioned()

    def test_unknown_names_raise(self, triangle):
        with pytest.raises(KeyError):
            triangle.fail_node("ghost")
        with pytest.raises(KeyError):
            triangle.fail_link("r1", "ghost")


class TestRouter:
    def test_picks_smallest_latency_path(self, triangle):
        router = Router(triangle)
        path, latency = router.route("r1", "r3")
        assert path == ["r1", "r2", "r3"]  # 20ms via r2 beats 50ms direct
        assert latency == 20.0

    def test_reroutes_around_failed_link(self, triangle):
        router = Router(triangle)
        assert router.route("r1", "r3")[0] == ["r1", "r2", "r3"]
        triangle.fail_link("r1", "r2")
        path, latency = router.route("r1", "r3")
        assert path == ["r1", "r3"]
        assert latency == 50.0

    def test_reroutes_around_failed_node(self, triangle):
        router = Router(triangle)
        triangle.fail_node("r2")
        assert router.route("r1", "r3")[0] == ["r1", "r3"]

    def test_partition_raises(self, triangle):
        router = Router(triangle)
        triangle.fail_link("r1", "r2")
        triangle.fail_link("r1", "r3")
        with pytest.raises(NoRouteError, match="partition"):
            router.route("r1", "r3")

    def test_self_route_zero(self, triangle):
        assert Router(triangle).route("r2", "r2") == (["r2"], 0.0)

    def test_self_route_dead_node(self, triangle):
        triangle.fail_node("r2")
        with pytest.raises(NoRouteError):
            Router(triangle).route("r2", "r2")

    def test_dead_endpoint_raises(self, triangle):
        router = Router(triangle)
        triangle.fail_node("r3")
        with pytest.raises(NoRouteError, match="endpoint"):
            router.route("r1", "r3")

    def test_reachable_predicate(self, triangle):
        router = Router(triangle)
        assert router.reachable("r1", "r3")
        triangle.fail_node("r3")
        assert not router.reachable("r1", "r3")

    def test_latency_shortcut(self, triangle):
        assert Router(triangle).latency("r1", "r2") == 10.0

    def test_cache_follows_the_topology(self, triangle):
        router = Router(triangle)
        first = router.route("r1", "r3")
        assert router.route("r1", "r3")[0] is first[0]  # cached while unchanged
        triangle.fail_link("r2", "r3")
        # nobody told the router: the next route avoids the dead link
        assert router.route("r1", "r3") == (["r1", "r3"], 50.0)
        triangle.restore_link("r2", "r3")
        assert router.route("r1", "r3") == first

    @pytest.mark.parametrize(
        "fault", [lambda net: net.fail_link("r1", "r2"), lambda net: net.fail_node("r2")]
    )
    def test_cached_route_over_a_dead_hop_is_not_served(self, fault):
        net = OverlayNetwork.full_mesh({("r1", "r2"): 10.0})
        router = Router(net)
        assert router.reachable("r1", "r2")
        fault(net)
        assert not router.reachable("r1", "r2")
