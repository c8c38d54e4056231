"""Tests for the domain health tracker and its degradation-ladder feed."""

import pytest

from repro.core.degradation import STALE_AFTER_ERAS, DegradationTracker
from repro.obs.telemetry import Telemetry
from repro.topology import DomainHealthTracker, FailureDomainTree


def tree():
    return FailureDomainTree({"r1": (2, 2), "r2": (1, 1)})


class TestFaultMarks:
    def test_record_and_clear(self):
        health = DomainHealthTracker(tree())
        health.record_fault("r1/az0/rack1", "rack_power_loss")
        assert health.fault_counts == {"r1/az0/rack1": 1}
        assert health.degraded_racks() == {1}
        assert health.is_degraded("r1/az0/rack1")
        assert not health.is_degraded("r1/az0/rack0")
        assert health.clear_fault("r1/az0/rack1")
        assert health.degraded_racks() == set()
        # counts are cumulative, marks are not
        assert health.fault_counts == {"r1/az0/rack1": 1}
        assert not health.clear_fault("r1/az0/rack1")

    def test_ancestor_marks_cover_descendants(self):
        health = DomainHealthTracker(tree())
        health.record_fault("r1/az0", "az_partition")
        assert health.degraded_racks() == {0, 1}
        assert health.is_degraded("r1/az0/rack0")
        assert not health.is_degraded("r1/az1/rack0")

    def test_unknown_domain_rejected(self):
        health = DomainHealthTracker(tree())
        with pytest.raises(KeyError):
            health.record_fault("nope", "x")


class TestAvailability:
    def test_timeline_and_availability(self):
        health = DomainHealthTracker(tree())
        assert health.availability("r1") == 1.0  # nothing observed yet
        # era 0: rack 0 dark, rest up
        health.observe_era(0, {0: 0, 1: 2, 2: 1, 3: 1, 4: 2})
        # era 1: all of az0 dark
        health.observe_era(1, {0: 0, 1: 0, 2: 1, 3: 1, 4: 2})
        assert health.observed_eras == 2
        assert health.availability("r1") == 1.0
        assert health.availability("r1/az0") == 0.5
        assert health.availability("r1/az0/rack0") == 0.0
        assert health.availability("r1/az0/rack1") == 0.5
        assert health.availability("r2") == 1.0
        assert health.timeline("r1/az0") == [True, False]
        with pytest.raises(KeyError):
            health.availability("bogus")


class TestDegradationLadderFeed:
    def test_fully_degraded_region_stops_reporting(self):
        health = DomainHealthTracker(tree())
        reported = {"r1", "r2"}
        assert health.reporting_regions(reported) == {"r1", "r2"}
        health.record_fault("r1/az0", "az_partition")
        # r1 still has az1 healthy -> keeps reporting
        assert health.reporting_regions(reported) == {"r1", "r2"}
        health.record_fault("r1/az1", "az_partition")
        assert health.reporting_regions(reported) == {"r2"}
        # unknown names pass through untouched
        assert health.reporting_regions({"other"}) == {"other"}

    def test_feeds_the_existing_ladder(self):
        health = DomainHealthTracker(tree())
        ladder = DegradationTracker(["r1", "r2"])
        health.record_fault("r2", "region_blackout")
        # r2 goes stale once the grace eras have passed
        eras = STALE_AFTER_ERAS + 1
        for era in range(eras):
            ladder.observe(era, health.reporting_regions({"r1", "r2"}))
        assert ladder.mode == "hold"
        health.clear_fault("r2")
        ladder.observe(eras, health.reporting_regions({"r1", "r2"}))
        assert ladder.mode == "normal"


class TestTelemetryGating:
    def test_disabled_telemetry_touches_nothing(self):
        health = DomainHealthTracker(tree(), telemetry=Telemetry(enabled=False))
        assert health._obs is None
        health.record_fault("r1", "x")
        health.observe_era(0, {})
        health.clear_fault("r1")

    def test_enabled_telemetry_records_fd_metrics(self):
        telemetry = Telemetry(enabled=True)
        health = DomainHealthTracker(tree(), telemetry=telemetry)
        health.record_fault("r1/az0", "az_partition")
        health.observe_era(0, {0: 1, 1: 1, 2: 1, 3: 1, 4: 0})
        health.clear_fault("r1/az0")
        counters = {
            (c.name, dict(c.labels).get("domain")): c.value
            for c in telemetry.registry.counters()
        }
        assert counters[("fd_domain_faults_total", "r1/az0")] == 1
        gauges = {
            (g.name, dict(g.labels).get("domain")): g.value
            for g in telemetry.registry.gauges()
        }
        assert gauges[("fd_domain_availability", "r2")] == 0.0
        assert gauges[("fd_domain_availability", "r1")] == 1.0
        kinds = [e.kind for e in telemetry.flight.events("fd.")]
        assert "fd.fault" in kinds
        assert "fd.heal" in kinds
