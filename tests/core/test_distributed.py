"""Integration tests for the distributed control plane."""

import pytest

from repro.core import AcmManager, RegionSpec
from repro.core.distributed import CONTROL_WINDOW_S, DistributedControlPlane
from repro.experiments.scenarios import SCENARIOS
from repro.overlay.reliable import (
    BACKOFF_FACTOR,
    BASE_TIMEOUT_S,
    JITTER_S,
    MAX_RETRIES,
)


def make_plane(seed=41):
    mgr = AcmManager(
        regions=[
            RegionSpec("region1", "m3.medium", 6, 4, 128),
            RegionSpec("region2", "m3.small", 8, 6, 192),
            RegionSpec("region3", "private.small", 4, 3, 64),
        ],
        policy="available-resources",
        seed=seed,
    )
    return mgr, DistributedControlPlane(mgr.loop)


def test_the_control_window_covers_the_retry_ladder():
    """A report whose first MAX_RETRIES attempts are lost is still
    acked inside one exchange window: the last retry goes out after the
    first MAX_RETRIES timeouts (each at most JITTER_S late), and its data
    and ack cross the slowest link of any scenario (default 20 ms)."""
    last_retry_s = sum(
        BASE_TIMEOUT_S * BACKOFF_FACTOR**k + JITTER_S
        for k in range(MAX_RETRIES)
    )
    links_ms = [
        ms for make in SCENARIOS.values() for ms in make().latencies_ms.values()
    ]
    slowest_link_s = max([20.0, *links_ms]) / 1000.0
    assert last_retry_s + 2 * slowest_link_s <= CONTROL_WINDOW_S


class TestHealthyPlane:
    def test_views_agree_and_gossip_fresh(self):
        _, plane = make_plane()
        reports = plane.run(20)
        # after warm-up, detector views match the oracle and gossip keeps
        # everyone's state fresh within a few eras
        tail = reports[5:]
        assert all(r.views_agree for r in tail)
        assert all(r.gossip_fresh for r in tail)

    def test_state_view_carries_fresh_rmttf(self):
        _, plane = make_plane()
        plane.run(20)
        # every node's view of every region is at most a few eras stale
        last = plane.reports[-1]
        for node in plane.loop.regions:
            view = plane.state_view(node)
            assert set(view) == set(plane.loop.regions)
            for region, payload in view.items():
                assert payload["era"] >= last.summary.era - 4
                assert payload["rmttf"] > 0

    def test_agreement_fraction_high(self):
        _, plane = make_plane()
        plane.run(20)
        assert plane.agreement_fraction() > 0.7

    def test_run_validation(self):
        _, plane = make_plane()
        with pytest.raises(ValueError):
            plane.run(0)


class TestPlaneUnderFailures:
    def test_leader_crash_detected_within_timeout(self):
        mgr, plane = make_plane()
        plane.run(10)
        loop = mgr.loop
        loop.overlay.fail_node("region1")
        plane.detectors["region1"].stop()
        # a 30 s era exceeds the 15 s timeout: by the next era every
        # survivor's detector has switched to region2
        reports = plane.run(3)
        last = reports[-1]
        for node, leader in last.detector_leaders.items():
            assert leader == "region2", (node, leader)
        assert last.oracle_leader == "region2"

    def test_gossip_keeps_survivors_informed_during_outage(self):
        mgr, plane = make_plane()
        plane.run(10)
        loop = mgr.loop
        loop.overlay.fail_node("region3")
        era_at_failure = plane.reports[-1].summary.era
        plane.run(6)
        # survivors still gossip each other's fresh state
        view = plane.state_view("region1")
        assert view["region2"]["era"] > era_at_failure
        # region3's entry freezes at its last published era
        assert view["region3"]["era"] <= era_at_failure

    def test_recovery_restores_agreement(self):
        mgr, plane = make_plane()
        plane.run(10)
        loop = mgr.loop
        loop.overlay.fail_node("region1")
        plane.detectors["region1"].stop()
        plane.run(3)
        loop.overlay.restore_node("region1")
        plane.detectors["region1"].start()
        reports = plane.run(3)
        assert reports[-1].detector_leaders["region2"] == "region1"
        assert reports[-1].views_agree


@pytest.mark.parametrize("figure", ["fig3", "fig4"])
@pytest.mark.parametrize(
    "policy", ["sensible-routing", "available-resources", "exploration"]
)
def test_a_plane_stepped_run_is_the_oracle_run(figure, policy):
    """Over a healthy overlay every fraction push is acked, so the plane
    installs the plan as it is: a policy run stepped by the plane records
    every series of the oracle-exchange run bit for bit."""
    from repro.experiments import runner
    from repro.experiments.figures import FIGURES

    scenario = SCENARIOS[FIGURES[figure].scenario]()

    def plane(manager, eras):
        DistributedControlPlane(manager.loop).run(eras)

    run = dict(eras=60, seed=5)
    oracle = runner.run_policy_experiment(scenario, policy, **run).traces
    stepped = runner._policy_run(plane, scenario, policy, **run).traces
    assert stepped.names() == oracle.names()
    for name in oracle.names():
        a, b = oracle.series(name), stepped.series(name)
        assert a.times.tobytes() == b.times.tobytes(), name
        assert a.values.tobytes() == b.values.tobytes(), name
