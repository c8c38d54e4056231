"""Tests for graceful degradation and the reliable control transport."""

import numpy as np
import pytest

from repro.core import AcmManager, RegionSpec
from repro.core.degradation import (
    FALLBACK_AFTER_ERAS,
    STALE_AFTER_ERAS,
    DegradationTracker,
)
from repro.core.distributed import REPORT_KIND, DistributedControlPlane
from repro.chaos import CorruptiblePredictor, LossyBus
from repro.sim.rng import RngRegistry


def make_manager(seed=31, **kw):
    return AcmManager(
        regions=[
            RegionSpec("region1", "m3.medium", 8, 5, 160,
                       rejuvenation_time_s=60.0),
            RegionSpec("region3", "private.small", 6, 4, 96,
                       rejuvenation_time_s=60.0),
        ],
        policy="available-resources",
        seed=seed,
        **kw,
    )


def make_manager3(seed=41):
    return AcmManager(
        regions=[
            RegionSpec("region1", "m3.medium", 6, 4, 128),
            RegionSpec("region2", "m3.small", 8, 6, 192),
            RegionSpec("region3", "private.small", 4, 3, 64),
        ],
        policy="available-resources",
        seed=seed,
    )


class TestTracker:
    def test_full_reports_stay_normal(self):
        tracker = DegradationTracker(["a", "b", "c"])
        for era in range(5):
            assert tracker.observe(era, {"a", "b", "c"}) == "normal"

    def test_brief_hiccup_is_forgiven(self):
        assert STALE_AFTER_ERAS == 2
        tracker = DegradationTracker(["a", "b", "c"])
        tracker.observe(0, {"a", "b", "c"})
        # b and c go quiet; their last reports stay fresh for 2 eras
        assert tracker.observe(1, {"a"}) == "normal"
        assert tracker.observe(2, {"a"}) == "normal"
        assert tracker.observe(3, {"a", "b", "c"}) == "normal"
        assert tracker.consecutive_degraded == 0

    def test_quorum_loss_holds_then_falls_back(self):
        tracker = DegradationTracker(["a", "b", "c"])
        tracker.observe(0, {"a", "b", "c"})
        # b and c stay fresh for STALE_AFTER_ERAS eras
        for era in range(1, STALE_AFTER_ERAS + 1):
            assert tracker.observe(era, {"a"}) == "normal"
        first_hold = STALE_AFTER_ERAS + 1
        for era in range(first_hold, first_hold + FALLBACK_AFTER_ERAS - 1):
            assert tracker.observe(era, {"a"}) == "hold"
        first_fallback = first_hold + FALLBACK_AFTER_ERAS - 1
        assert tracker.observe(first_fallback, {"a"}) == "fallback"
        assert tracker.observe(first_fallback + 1, {"a"}) == "fallback"

    def test_recovery_is_immediate(self):
        tracker = DegradationTracker(["a", "b"])
        # b never reports: stale after the grace eras, then the ladder
        eras = STALE_AFTER_ERAS + FALLBACK_AFTER_ERAS
        for era in range(eras):
            tracker.observe(era, {"a"})
        assert tracker.mode == "fallback"
        assert tracker.observe(eras, {"a", "b"}) == "normal"

    def test_leader_alone_is_majority_of_one(self):
        tracker = DegradationTracker(["a"])
        assert tracker.observe(0, {"a"}) == "normal"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DegradationTracker([])


class TestLoopDegradation:
    def test_healthy_run_never_degrades(self):
        loop = make_manager().loop
        summaries = loop.run(20)
        assert all(s.degradation == "normal" for s in summaries)
        assert set(loop.traces.series("degradation").values) == {0.0}

    def test_partition_walks_the_ladder(self):
        loop = make_manager().loop
        loop.run(10)
        loop.overlay.fail_link("region1", "region3")
        modes = [s.degradation for s in loop.run(12)]
        # grace eras first (stale reports still fresh), then hold, then
        # fallback after FALLBACK_AFTER_ERAS degraded eras
        assert modes[:STALE_AFTER_ERAS] == ["normal"] * STALE_AFTER_ERAS
        first_hold = STALE_AFTER_ERAS
        assert modes[first_hold] == "hold"
        first_fallback = first_hold + FALLBACK_AFTER_ERAS - 1
        assert modes[first_fallback] == "fallback"
        assert modes[-1] == "fallback"

    def test_hold_freezes_fractions_exactly(self):
        loop = make_manager().loop
        loop.run(10)
        loop.overlay.fail_link("region1", "region3")
        summaries = loop.run(8)
        held = [s for s in summaries if s.degradation == "hold"]
        assert len(held) >= 2
        for a, b in zip(held, held[1:]):
            assert a.fractions == b.fractions

    def test_fallback_installs_capacity_split(self):
        loop = make_manager().loop
        loop.run(10)
        loop.overlay.fail_link("region1", "region3")
        summaries = loop.run(12)
        last = summaries[-1]
        assert last.degradation == "fallback"
        caps = {r: loop.vmcs[r].healthy_capacity() for r in loop.regions}
        expected = caps["region3"] / sum(caps.values())
        assert last.fractions["region3"] == pytest.approx(expected, abs=0.01)

    def test_heal_resumes_policy(self):
        loop = make_manager().loop
        loop.run(10)
        loop.overlay.fail_link("region1", "region3")
        loop.run(12)
        loop.overlay.restore_link("region1", "region3")
        summaries = loop.run(3)
        assert all(s.degradation == "normal" for s in summaries)

    def test_nan_reports_degrade_instead_of_crashing(self):
        """A predictor emitting NaN must not reach the policy simplex."""
        mgr = make_manager()
        loop = mgr.loop
        corruptibles = {}
        for region, vmc in loop.vmcs.items():
            vmc.predictor = corruptibles[region] = CorruptiblePredictor(
                vmc.predictor
            )
        loop.run(10)
        for pred in corruptibles.values():
            pred.set_mode("nan")
        summaries = loop.run(12)  # must not raise
        assert summaries[-1].degradation in ("hold", "fallback")
        for s in summaries:
            assert all(np.isfinite(v) for v in s.rmttf.values())
            assert all(np.isfinite(v) for v in s.fractions.values())
        # healing the predictors heals the plane
        for pred in corruptibles.values():
            pred.set_mode("off")
        assert loop.run(1)[0].degradation == "normal"

    def test_degradation_trace_recorded(self):
        loop = make_manager().loop
        loop.run(5)
        loop.overlay.fail_link("region1", "region3")
        loop.run(12)
        values = loop.traces.series("degradation").values
        assert 0.0 in values and 1.0 in values and 2.0 in values


class TestReliableTransport:
    def make_plane(self, seed=41, loss=0.0):
        mgr = make_manager3(seed=seed)
        bus_factory = None
        if loss > 0.0:
            chaos_rng = mgr.rngs.stream("chaos/network")

            def bus_factory(sim, router):
                bus = LossyBus(sim=sim, router=router, rng=chaos_rng)
                bus.loss_probability = loss
                return bus

        return mgr, DistributedControlPlane(mgr.loop, bus_factory=bus_factory)

    def test_clean_network_matches_oracle_exchange(self):
        """Over a healthy overlay the reliable transport gathers every
        report and installs every fraction, just like the oracle."""
        mgr, plane = self.make_plane()
        reports = plane.run(10)
        assert all(r.summary.degradation == "normal" for r in reports)
        stats = plane.channel.stats
        # 2 reports + 2 pushes per era, all acked, none retried
        assert stats.sent == 4 * 10
        assert stats.acked == stats.sent
        assert stats.retries == 0
        assert stats.gave_up == 0

    def test_lossy_network_retries_and_still_converges(self):
        mgr, plane = self.make_plane(loss=0.3)
        reports = plane.run(15)
        stats = plane.channel.stats
        assert stats.retries > 0  # losses happened and were masked
        # the ack/retry layer keeps the control plane effectively healthy
        degraded = [
            r for r in reports if r.summary.degradation != "normal"
        ]
        assert len(degraded) <= 3
        assert stats.acked > stats.sent * 0.8

    def test_partition_starves_transport_and_degrades(self):
        mgr, plane = self.make_plane()
        plane.run(5)
        loop = mgr.loop
        # cut region3 off from both other regions
        loop.overlay.fail_link("region1", "region3")
        loop.overlay.fail_link("region2", "region3")
        reports = plane.run(10)
        # 2 of 3 regions still report: quorum holds, the loop stays normal
        assert all(r.summary.degradation == "normal" for r in reports)
        assert plane.channel.stats.gave_up > 0  # region3 pushes failed
        # region3 kept its last installed fraction (renormalised mix)
        assert reports[-1].summary.fractions["region3"] > 0.0

    def test_a_report_counts_only_at_the_cycle_leader(self):
        """A report delivered to a region other than the cycle's leader
        does not reach the leader's inbox."""
        mgr, plane = self.make_plane()
        plane.sim.schedule_after(
            0.5,
            lambda: plane.channel.send(
                "region2", "region3", REPORT_KIND,
                {"region": "region2", "rmttf": 1.0},
            ),
        )
        received = plane.transport.gather_reports(
            "region1", {"region1": 500.0}
        )
        assert plane.channel.stats.acked == 1  # it did land, at region3
        assert received == {"region1": 500.0}

    def test_fraction_installs_tracked_per_region(self):
        mgr, plane = self.make_plane()
        plane.run(3)
        transport = plane.transport
        acked = transport.push_fractions(
            "region1", {"region1": 0.5, "region2": 0.3, "region3": 0.2}
        )
        assert acked == {"region2", "region3"}
        mgr.loop.overlay.fail_node("region3")
        acked = transport.push_fractions(
            "region1", {"region1": 0.5, "region2": 0.3, "region3": 0.2}
        )
        assert acked == {"region2"}
