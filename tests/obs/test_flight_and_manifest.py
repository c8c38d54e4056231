"""Unit tests for the flight recorder and run manifests."""

from __future__ import annotations

import json

import pytest

from repro.obs import FlightRecorder, RunManifest, config_digest
from repro.obs.flight import FLIGHT_CAPACITY


class TestFlightRecorder:
    def test_records_in_order_with_data(self):
        rec = FlightRecorder()
        rec.record(1.0, "bus.drop", reason="overflow")
        rec.record(2.0, "chaos.crash_node", target="region1")
        events = rec.events()
        assert [e.kind for e in events] == ["bus.drop", "chaos.crash_node"]
        assert events[0].data == {"reason": "overflow"}

    def test_ring_evicts_oldest_and_counts_seen(self):
        rec = FlightRecorder()
        total = FLIGHT_CAPACITY + 7
        for i in range(total):
            rec.record(float(i), f"e{i}")
        assert len(rec) == FLIGHT_CAPACITY
        assert rec.seen == total
        assert [e.kind for e in rec.events()][:2] == ["e7", "e8"]
        assert rec.events()[-1].kind == f"e{total - 1}"
        snap = rec.snapshot()
        assert snap["evicted"] == 7
        assert snap["capacity"] == FLIGHT_CAPACITY

    def test_kind_prefix_filter(self):
        rec = FlightRecorder()
        rec.record(0.0, "chaos.crash_node")
        rec.record(1.0, "bus.drop")
        rec.record(2.0, "chaos.message_loss")
        assert [e.kind for e in rec.events("chaos.")] == [
            "chaos.crash_node",
            "chaos.message_loss",
        ]

    def test_snapshot_is_json_ready(self):
        rec = FlightRecorder()
        rec.record(1.5, "x", n=3)
        doc = rec.snapshot()
        assert json.loads(json.dumps(doc)) == doc


class TestConfigDigest:
    def test_stable_across_key_order(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest(
            {"b": 2, "a": 1}
        )

    def test_sensitive_to_values(self):
        assert config_digest({"seed": 7}) != config_digest({"seed": 8})

    def test_non_json_values_fall_back_to_str(self):
        class Opaque:
            def __str__(self):
                return "opaque"

        assert config_digest({"x": Opaque()}) == config_digest({"x": "opaque"})


class TestRunManifest:
    def test_build_stamps_package_version(self):
        import repro

        m = RunManifest.build(seed=7, config={"eras": 10}, scenario="fig3")
        assert m.version == repro.__version__
        assert m.extra == {"scenario": "fig3"}

    def test_dict_roundtrip(self):
        m = RunManifest.build(seed=3, config={"a": 1}, eras=12)
        again = RunManifest.from_dict(json.loads(m.to_json()))
        assert again == m

    def test_same_config_same_digest(self):
        a = RunManifest.build(seed=1, config={"eras": 240, "policy": "p2"})
        b = RunManifest.build(seed=1, config={"policy": "p2", "eras": 240})
        assert a.config_digest == b.config_digest
