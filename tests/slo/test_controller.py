"""Units for the SLO plane: era sweep, shaping, per-request advance."""

import numpy as np
import pytest

from repro.obs.telemetry import Telemetry
from repro.slo import SloConfig, SloController


def make_controller(telemetry=None, **cfg_kw) -> SloController:
    defaults = dict(
        p95_target_s=1.0, window_s=10.0, min_dwell_s=5.0, shed_factor=0.5
    )
    defaults.update(cfg_kw)
    return SloController(
        ["r1", "r2"], SloConfig(**defaults), telemetry=telemetry
    )


class TestObserveAndShape:
    def test_healthy_regions_leave_plan_unchanged(self):
        ctl = make_controller()
        ctl.observe(0.0, {"r1": 0.1, "r2": 0.1})
        planned = np.array([0.6, 0.4])
        shaped = ctl.shape(planned)
        assert shaped is planned  # identity, not just equality

    def test_degraded_region_is_scaled_and_renormalized(self):
        ctl = make_controller()
        ctl.observe(0.0, {"r1": 5.0, "r2": 0.1})  # r1 breaches
        shaped = ctl.shape(np.array([0.5, 0.5]))
        assert shaped.sum() == pytest.approx(1.0)
        assert shaped[0] == pytest.approx(0.25 / 0.75)
        assert shaped[1] > shaped[0]

    def test_all_degraded_cancels_out(self):
        ctl = make_controller()
        ctl.observe(0.0, {"r1": 5.0, "r2": 5.0})
        planned = np.array([0.7, 0.3])
        # uniform scaling cancels in the renormalisation
        assert ctl.shape(planned) == pytest.approx(planned)

    def test_recovery_requires_dwell(self):
        ctl = make_controller(min_dwell_s=5.0, window_s=1.0)
        ctl.observe(0.0, {"r1": 5.0, "r2": 0.1})
        # healthy again, but inside the dwell (breach sample aged out)
        levels = ctl.observe(2.0, {"r1": 0.1, "r2": 0.1})
        assert levels["r1"] == "degraded"
        levels = ctl.observe(6.0, {"r1": 0.1, "r2": 0.1})
        assert levels["r1"] == "normal"

    def test_stats(self):
        ctl = make_controller()
        ctl.observe(0.0, {"r1": 5.0, "r2": 0.1})
        ctl.observe(1.0, {"r1": 5.0, "r2": 0.1})
        stats = ctl.stats()
        assert stats["eras"] == 2
        assert stats["degraded_eras"] == 2
        assert stats["violation_rate"] == pytest.approx(1.0)
        assert stats["transitions"] == 1

    def test_level_codes(self):
        ctl = make_controller()
        ctl.observe(0.0, {"r1": 5.0, "r2": 0.1})
        assert ctl.level_codes() == {"r1": 1, "r2": 0}

    def test_non_finite_samples_ignored(self):
        ctl = make_controller()
        levels = ctl.observe(0.0, {"r1": float("inf"), "r2": float("nan")})
        assert levels == {"r1": "normal", "r2": "normal"}


class TestTelemetry:
    def test_disabled_telemetry_is_dropped(self):
        ctl = make_controller(telemetry=Telemetry(enabled=False))
        assert ctl._tel is None

    def test_enabled_telemetry_emits_transition_event(self):
        tel = Telemetry(enabled=True)
        ctl = make_controller(telemetry=tel)
        ctl.observe(0.0, {"r1": 5.0, "r2": 0.1})
        snap = tel.snapshot()
        gauges = {
            (g["name"], g["labels"].get("region")): g["value"]
            for g in snap["metrics"]["gauges"]
        }
        assert gauges[("slo_level", "r1")] == 1
        assert gauges[("slo_level", "r2")] == 0
        kinds = [e["kind"] for e in snap["events"]["events"]]
        assert "slo.transition" in kinds


class TestPerRequestAndAdmin:
    """The surface the serve runtime drives: advance + operator rungs."""

    def test_advance_steps_one_region_and_returns_the_decision(self):
        ctl = make_controller()
        ctl.evaluators["r1"].observe_latency(0.0, 5.0)
        decision = ctl.advance("r1", 0.0)
        assert (decision.level, decision.source) == ("degraded", "adaptive")
        assert decision.dwell_remaining_s == 5.0
        assert ctl.level_codes() == {"r1": 1, "r2": 0}
        assert ctl.stats()["eras"] == 0  # only the era sweep counts eras

    def test_bookkeeping_only_when_the_level_changes(self):
        tel = Telemetry(enabled=True)
        ctl = make_controller(telemetry=tel)
        ctl.evaluators["r1"].observe_latency(0.0, 5.0)
        for now in (0.0, 1.0, 2.0):
            ctl.advance("r1", now)
        snap = tel.snapshot()
        events = [
            e for e in snap["events"]["events"] if e["kind"] == "slo.transition"
        ]
        assert len(events) == 1
        assert events[0]["data"]["p95_s"] == 5.0
        counters = {
            c["labels"]["region"]: c["value"]
            for c in snap["metrics"]["counters"]
            if c["name"] == "slo_transitions_total"
        }
        assert counters == {"r1": 1, "r2": 0}

    def test_ladders_start_at_the_given_time(self):
        ctl = SloController(["r1"], SloConfig(), now=123.0)
        assert ctl.ladders["r1"].decision(124.0).since == 123.0

    def test_kill_switch_and_override_move_every_region(self):
        tel = Telemetry(enabled=True)
        ctl = make_controller(telemetry=tel)
        ctl.set_kill_switch(True, 1.0)
        assert ctl.level_codes() == {"r1": 1, "r2": 1}
        assert ctl.snapshot(1.0)["kill_switch"] is True
        ctl.set_kill_switch(False, 2.0)
        assert ctl.level_codes() == {"r1": 0, "r2": 0}
        ctl.set_override("degraded", 3.0)
        assert ctl.snapshot(3.0)["regions"]["r2"]["source"] == "manual-override"
        ctl.set_override(None, 4.0)
        assert ctl.level_codes() == {"r1": 0, "r2": 0}
        with pytest.raises(ValueError):
            ctl.set_override("panic", 5.0)
        kinds = [e["kind"] for e in tel.snapshot()["events"]["events"]]
        assert kinds.count("slo.kill_switch") == 2
        assert kinds.count("slo.override") == 2
        assert kinds.count("slo.transition") == 8

    def test_snapshot_shape(self):
        ctl = make_controller()
        ctl.observe(0.0, {"r1": 0.2})
        snap = ctl.snapshot(0.0)
        assert snap["enabled"] is True
        assert snap["config"].startswith("p95:")
        assert snap["regions"]["r1"]["p95_s"] == 0.2
        assert snap["regions"]["r2"]["p95_s"] is None  # empty window
        assert set(snap["regions"]["r1"]) == {
            "level", "source", "dwell_remaining_s", "p95_s", "samples",
            "queue_depth", "error_rate", "transitions",
        }
