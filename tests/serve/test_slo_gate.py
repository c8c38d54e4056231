"""The serve-side SLO gate: 429 + Retry-After, ladder dwell, admin ops.

The service's ``_mono`` attribute is an injectable monotonic clock, so
dwell timing runs on a fake clock -- deterministic, and no sleeps but
the one that lets the real admission bucket refill.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.experiments.scenarios import two_region_scenario
from repro.obs.telemetry import Telemetry
from repro.serve.clock import WallClock
from repro.serve.ingress import HttpIngress
from repro.serve.service import AcmService, ServeConfig
from repro.slo import SloConfig, SloController, SloEvaluator, nearest_rank_quantile
from tests.serve.test_ingress import split_reply


class FakeMono:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def make_service(slo: SloConfig | None = None, **cfg_kw) -> AcmService:
    cfg = ServeConfig(seed=7, slo=slo, **cfg_kw)
    service = AcmService(
        two_region_scenario(), WallClock(speed=100.0), cfg
    )
    return service


def slo_service(**slo_kw):
    """Service with a fake mono clock and a p95 target requests do breach."""
    defaults = dict(
        p95_target_s=1e-9, window_s=30.0, min_dwell_s=10.0
    )
    defaults.update(slo_kw)
    service = make_service(slo=SloConfig(**defaults))
    mono = FakeMono()
    service._mono = mono
    return service, mono


class TestSloGate:
    def test_no_slo_config_means_no_gate(self):
        service = make_service()
        assert service.slo is None
        status, _ = service.handle_request(service.regions[0])
        assert status == 200

    def test_breach_sheds_with_retry_after(self):
        service, mono = slo_service()
        region = service.regions[0]
        status, _ = service.handle_request(region)  # seeds a latency sample
        assert status == 200
        mono.advance(0.1)
        status, body = service.handle_request(region)  # gate now breached
        assert status == 429
        assert body["error"] == "slo"
        assert body["retry_after_s"] >= 1
        # regression: every shed body carries the Retry-After hint
        assert isinstance(body["retry_after_s"], int)

    def test_retry_after_tracks_dwell_remainder(self):
        service, mono = slo_service(min_dwell_s=10.0)
        region = service.regions[0]
        service.handle_request(region)
        mono.advance(0.1)
        status, body = service.handle_request(region)
        assert status == 429
        assert body["retry_after_s"] == pytest.approx(10, abs=1)
        mono.advance(6.0)
        status, body = service.handle_request(region)
        assert status == 429
        assert body["retry_after_s"] <= 4

    def test_recovery_requires_dwell_and_drained_window(self):
        service, mono = slo_service(min_dwell_s=10.0, window_s=5.0)
        region = service.regions[0]
        service.handle_request(region)
        mono.advance(0.1)
        assert service.handle_request(region)[0] == 429
        # past the dwell AND past the window: the breach sample has aged
        # out, the empty window counts as recovered
        mono.advance(20.0)
        status, _ = service.handle_request(region)
        assert status == 200

    def test_era_tick_recovers_idle_region(self):
        service, mono = slo_service(min_dwell_s=10.0, window_s=5.0)
        region = service.regions[0]
        service.handle_request(region)
        mono.advance(0.1)
        assert service.handle_request(region)[0] == 429
        mono.advance(20.0)
        service.slo.observe(mono(), {})  # era tick, no probe traffic needed
        assert service.slo.level_codes()[region] == 0

    def test_slo_shed_metric_counts(self):
        service, mono = slo_service()
        region = service.regions[0]
        service.handle_request(region)
        mono.advance(0.1)
        service.handle_request(region)
        counters = service.telemetry.snapshot()["metrics"]["counters"]
        by_name = {
            (c["name"], c["labels"].get("region")): c["value"]
            for c in counters
        }
        assert by_name[("slo_shed_total", region)] == 1


class TestPerRequestPath:
    """A request's gate decides on threshold counts; the p95 is read only
    by ``/slo``, the era sweep and a transition event."""

    def test_no_p95_on_the_request_path(self, monkeypatch):
        service, mono = slo_service(p95_target_s=10.0)
        recorded = {id(service.slo.evaluators[r]): [] for r in service.regions}
        observe_latency = SloEvaluator.observe_latency

        def recording(self, now, latency_s):
            recorded[id(self)].append(latency_s)
            observe_latency(self, now, latency_s)

        def no_p95(self, now):
            raise AssertionError("p95 computed on the request path")

        monkeypatch.setattr(SloEvaluator, "observe_latency", recording)
        with monkeypatch.context() as patched:
            patched.setattr(SloEvaluator, "p95", no_p95)
            for k in range(1000):
                mono.advance(0.001)
                region = service.regions[k % len(service.regions)]
                assert service.handle_request(region)[0] == 200
        assert all(
            ladder.transitions == 0 for ladder in service.slo.ladders.values()
        )
        want = {
            r: nearest_rank_quantile(recorded[id(service.slo.evaluators[r])], 0.95)
            for r in service.regions
        }
        assert all(len(v) == 500 for v in recorded.values())
        _, _, raw = split_reply(
            HttpIngress(service)._dispatch("GET", "/slo", True)
        )
        regions = json.loads(raw)["regions"]
        assert {r: regions[r]["p95_s"] for r in service.regions} == want
        service.slo.observe(mono(), {})
        gauges = {
            g["labels"]["region"]: g["value"]
            for g in service.telemetry.snapshot()["metrics"]["gauges"]
            if g["name"] == "slo_p95_seconds"
        }
        assert gauges == want


class TestQueueDepthSignal:
    def test_shed_region_recovers_once_the_bucket_refills(self):
        # regression: the deficit was only refreshed by admission, which
        # an SLO-shed request never reaches -- a region degraded by the
        # queue-depth signal stayed shed forever.  Fake _mono (the dwell),
        # real bucket (time.monotonic).
        service = make_service(
            slo=SloConfig(
                p95_target_s=10.0,
                queue_depth_max=5.0,
                min_dwell_s=0.2,
                window_s=1.0,
            ),
            admission_rps=80.0,  # a bucket of 20 tokens
        )
        mono = service._mono = FakeMono()
        by_request, by_sweep = service.regions
        for region in service.regions:
            replies = [service.handle_request(region) for _ in range(15)]
            assert replies[0][0] == 200
            assert replies[-1][0] == 429 and replies[-1][1]["error"] == "slo"
        mono.advance(2.0)  # the dwell is long over
        time.sleep(0.25)  # 20 tokens back: deficit 0, exit threshold 4
        assert service.handle_request(by_request)[0] == 200
        service._era_tick()  # no traffic at all: the era sweep refills
        snap = service.slo_snapshot()["regions"][by_sweep]
        assert snap["level"] == "normal"
        assert snap["queue_depth"] <= 4.0


class TestOneVocabulary:
    """Sim and serve drive one SLO plane: same metrics, same event."""

    @staticmethod
    def _vocabulary(tel):
        snap = tel.snapshot()
        metrics = {
            (m["name"], tuple(sorted(m["labels"])))
            for kind in ("counters", "gauges")
            for m in snap["metrics"][kind]
            if m["name"].startswith("slo_")
        }
        transitions = [
            e["data"]
            for e in snap["events"]["events"]
            if e["kind"] == "slo.transition"
        ]
        return metrics, transitions

    def test_breach_dwell_recover_reads_the_same_on_both_clocks(self):
        # sim: the era sweep on virtual time
        sim_tel = Telemetry(enabled=True)
        sim = SloController(
            ["r1", "r2"],
            SloConfig(p95_target_s=1.0, window_s=5.0, min_dwell_s=10.0),
            telemetry=sim_tel,
        )
        sim.observe(0.0, {"r1": 5.0, "r2": 0.1})  # r1 breaches
        sim.observe(6.0, {"r2": 0.1})  # window drained, still dwelling
        assert sim.level_codes()["r1"] == 1
        sim.observe(12.0, {"r2": 0.1})  # dwell over: recovered
        assert sim.level_codes()["r1"] == 0

        # serve: per-request advance on (fake) monotonic time
        service, mono = slo_service(min_dwell_s=10.0, window_s=5.0)
        region = service.regions[0]
        assert service.handle_request(region)[0] == 200  # breach sample
        mono.advance(0.1)
        assert service.handle_request(region)[0] == 429
        mono.advance(6.0)
        assert service.handle_request(region)[0] == 429  # still dwelling
        mono.advance(6.0)
        assert service.handle_request(region)[0] == 200

        sim_metrics, sim_events = self._vocabulary(sim_tel)
        serve_metrics, serve_events = self._vocabulary(service.telemetry)
        # the 429 counter is the serve actuator's, not the plane's
        assert serve_metrics - {("slo_shed_total", ("region",))} == sim_metrics
        assert sim_metrics == {
            ("slo_level", ("region",)),
            ("slo_p95_seconds", ("region",)),
            ("slo_transitions_total", ("region",)),
        }
        assert [(e["frm"], e["to"]) for e in sim_events] == [
            ("normal", "degraded"),
            ("degraded", "normal"),
        ]
        assert [(e["frm"], e["to"]) for e in serve_events] == [
            (e["frm"], e["to"]) for e in sim_events
        ]
        for event in sim_events + serve_events:
            assert set(event) == {"region", "frm", "to", "source", "p95_s"}


class TestTokenBucketRetryAfter:
    def test_shed_body_carries_refill_hint(self):
        # satellite regression: the token-bucket 429 must include a
        # Retry-After derived from the refill rate
        service = make_service(admission_rps=8.0)  # a bucket of 2 tokens
        region = service.regions[0]
        bodies = [service.handle_request(region) for _ in range(40)]
        shed = [b for s, b in bodies if s == 429]
        assert shed
        for body in shed:
            assert body["error"] == "shed"
            assert body["retry_after_s"] >= 1
            # deficit < 1 token at 8 rps -> at most ~1s, never huge
            assert body["retry_after_s"] <= 2


class TestAdminOps:
    def test_kill_switch_sheds_and_lifts(self):
        service, _ = slo_service(p95_target_s=10.0)  # healthy target
        region = service.regions[0]
        assert service.handle_request(region)[0] == 200
        assert service.slo_kill(True)
        status, body = service.handle_request(region)
        assert status == 429
        assert service.slo_snapshot()["kill_switch"] is True
        service.slo_kill(False)
        assert service.handle_request(region)[0] == 200

    def test_override_pins_and_clears(self):
        service, _ = slo_service(p95_target_s=10.0)
        region = service.regions[0]
        assert service.slo_override("degraded")
        assert service.handle_request(region)[0] == 429
        service.slo_override(None)
        assert service.handle_request(region)[0] == 200
        with pytest.raises(ValueError):
            service.slo_override("panic")

    def test_admin_ops_report_disabled_without_slo(self):
        service = make_service()
        assert service.slo_kill(True) is False
        assert service.slo_override("degraded") is False
        assert service.slo_snapshot() == {"enabled": False}

    def test_snapshot_shape(self):
        service, _ = slo_service(p95_target_s=10.0)
        snap = service.slo_snapshot()
        assert snap["enabled"] is True
        assert snap["config"].startswith("p95:")
        for region in service.regions:
            entry = snap["regions"][region]
            assert entry["level"] == "normal"
            assert entry["source"] == "default"


class TestHttpSloEndpoints:
    def _body(self, reply: bytes):
        status, headers, raw = split_reply(reply)
        assert headers["Content-Type"] == "application/json"
        return status, json.loads(raw), headers

    def test_shed_maps_retry_after_header(self):
        service, mono = slo_service()
        ingress = HttpIngress(service)
        region = service.regions[0]
        service.handle_request(region)
        mono.advance(0.1)
        status, body, headers = self._body(
            ingress._dispatch("GET", f"/route?region={region}", True)
        )
        assert status == 429
        assert headers["Retry-After"] == str(body["retry_after_s"])

    def test_slo_endpoint(self):
        service, _ = slo_service(p95_target_s=10.0)
        ingress = HttpIngress(service)
        status, body, _ = self._body(ingress._dispatch("GET", "/slo", True))
        assert status == 200
        assert body["enabled"] is True

    def test_kill_and_override_endpoints(self):
        service, _ = slo_service(p95_target_s=10.0)
        ingress = HttpIngress(service)
        status, body, _ = self._body(
            ingress._dispatch("POST", "/slo/kill?on=1", True)
        )
        assert status == 200
        assert service.slo_snapshot()["kill_switch"] is True
        status, _, _ = self._body(
            ingress._dispatch("POST", "/slo/override?level=degraded", True)
        )
        assert status == 200
        status, _, _ = self._body(
            ingress._dispatch("POST", "/slo/override?level=panic", True)
        )
        assert status == 400

    def test_endpoints_400_when_slo_disabled(self):
        ingress = HttpIngress(make_service())
        status, body, _ = self._body(
            ingress._dispatch("POST", "/slo/kill?on=1", True)
        )
        assert status == 400
        assert "disabled" in body["error"]
