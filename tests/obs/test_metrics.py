"""Unit tests for the metrics registry (counters, gauges, histograms)."""

from __future__ import annotations

import math

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS_S,
    Histogram,
    MetricsRegistry,
)
from repro.obs.summary import _histogram_stats


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        c = MetricsRegistry().counter("requests_total")
        with pytest.raises(ValueError, match="negative"):
            c.inc(-1.0)

    def test_as_dict_carries_labels(self):
        c = MetricsRegistry().counter("drops_total", reason="overflow")
        c.inc(4)
        assert c.as_dict() == {
            "name": "drops_total",
            "labels": {"reason": "overflow"},
            "value": 4.0,
        }


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("pool_size")
        g.set(5)
        g.inc()
        g.dec(3)
        assert g.value == 3.0


class TestHistogram:
    def test_observe_routes_to_correct_bucket(self):
        h = Histogram("lat", (), bounds=(0.1, 1.0, 10.0))
        h.observe(0.05)   # <= 0.1
        h.observe(0.5)    # <= 1.0
        h.observe(0.5)
        h.observe(5.0)    # <= 10.0
        h.observe(100.0)  # overflow (+Inf)
        assert h.counts == [1, 2, 1, 1]
        assert h.count == 5
        assert h.sum == pytest.approx(106.05)

    def test_boundary_value_lands_in_lower_bucket(self):
        # bucket edges are inclusive upper bounds (Prometheus "le")
        h = Histogram("lat", (), bounds=(1.0, 2.0))
        h.observe(1.0)
        assert h.counts == [1, 0, 0]

    def test_quantile_reports_bucket_upper_edge(self):
        h = Histogram("lat", (), bounds=(0.1, 1.0, 10.0))
        for _ in range(9):
            h.observe(0.05)
        h.observe(5.0)
        _, p50, p99 = _histogram_stats(h.as_dict())
        assert (p50, p99) == (0.1, 10.0)

    def test_quantile_of_empty_is_nan(self):
        h = Histogram("lat", (), bounds=(1.0,))
        assert all(map(math.isnan, _histogram_stats(h.as_dict())))
        assert math.isnan(h.mean())

    def test_non_increasing_bounds_rejected(self):
        with pytest.raises(ValueError, match="increase"):
            Histogram("lat", (), bounds=(1.0, 1.0))
        with pytest.raises(ValueError, match="increase"):
            Histogram("lat", (), bounds=(2.0, 1.0))

    def test_default_buckets_are_valid_and_span_latencies(self):
        h = Histogram("lat", (), bounds=DEFAULT_LATENCY_BUCKETS_S)
        assert h.bounds[0] <= 1e-4
        assert h.bounds[-1] >= 100.0


class TestRegistry:
    def test_same_name_and_labels_share_a_handle(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", region="r1")
        b = reg.counter("x_total", region="r1")
        assert a is b

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", a="1", b="2")
        b = reg.counter("x_total", b="2", a="1")
        assert a is b

    def test_different_labels_get_distinct_handles(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", region="r1")
        b = reg.counter("x_total", region="r2")
        assert a is not b
        assert len(reg) == 2

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_snapshot_partitions_by_type(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(2)
        reg.histogram("h", bounds=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert [m["name"] for m in snap["counters"]] == ["c"]
        assert [m["name"] for m in snap["gauges"]] == ["g"]
        assert [m["name"] for m in snap["histograms"]] == ["h"]
