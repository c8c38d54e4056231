"""Units for the open-loop load generator's schedules and report math."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve.loadgen import (
    FLASH_END,
    FLASH_FACTOR,
    FLASH_START,
    SCHEDULES,
    LoadConfig,
    LoadReport,
    _split_url,
    build_schedule,
)

URL = "http://127.0.0.1:8080"


class TestSchedules:
    def test_unknown_schedule_raises(self):
        with pytest.raises(ValueError, match="unknown schedule"):
            build_schedule(LoadConfig(url=URL, schedule="bursty"))

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_arrivals_sorted_within_window(self, schedule):
        cfg = LoadConfig(
            url=URL, rate=200.0, duration_s=3.0, schedule=schedule, seed=11
        )
        arrivals = build_schedule(cfg)
        assert len(arrivals) > 0
        assert np.all(arrivals >= 0.0)
        assert np.all(arrivals < cfg.duration_s)
        assert np.all(np.diff(arrivals) >= 0.0)

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_same_seed_same_schedule(self, schedule):
        cfg = LoadConfig(url=URL, rate=150.0, schedule=schedule, seed=3)
        a = build_schedule(cfg)
        b = build_schedule(cfg)
        np.testing.assert_array_equal(a, b)
        c = build_schedule(
            LoadConfig(url=URL, rate=150.0, schedule=schedule, seed=4)
        )
        assert len(a) != len(c) or not np.array_equal(a, c)

    def test_poisson_count_tracks_rate(self):
        cfg = LoadConfig(url=URL, rate=500.0, duration_s=4.0, seed=5)
        n = len(build_schedule(cfg))
        # lambda*T = 2000; 5 sigma ~ 224
        assert 1700 < n < 2300

    def test_flash_spike_is_denser(self):
        cfg = LoadConfig(
            url=URL,
            rate=300.0,
            duration_s=4.0,
            schedule="flash",
            seed=9,
        )
        arrivals = build_schedule(cfg)
        lo, hi = FLASH_START * 4.0, FLASH_END * 4.0
        in_spike = np.sum((arrivals >= lo) & (arrivals < hi))
        before = np.sum((arrivals >= lo - (hi - lo)) & (arrivals < lo))
        # spike window and the window before it have equal width; the
        # spike runs at FLASH_FACTOR (4x) the base rate
        assert FLASH_FACTOR == 4.0
        assert in_spike > 2.5 * before

    def test_diurnal_low_rate_does_not_crash(self):
        # trough clamps to >= 1 client even for tiny configured rates
        cfg = LoadConfig(
            url=URL, rate=1.0, duration_s=2.0, schedule="diurnal", seed=2
        )
        arrivals = build_schedule(cfg)
        assert np.all(arrivals < 2.0)


def filled(**fields) -> LoadReport:
    """A report whose counters a run would have filled with ``fields``."""
    report = LoadReport(scheduled=fields.pop("scheduled", 0))
    for name, value in fields.items():
        setattr(report, name, value)
    return report


class TestReport:
    def test_quantiles_and_rates(self):
        report = filled(
            scheduled=10,
            completed=10,
            ok=8,
            shed=2,
            forwarded=4,
            duration_s=2.0,
            latencies_s=[0.01 * (i + 1) for i in range(8)],
        )
        assert report.quantile(0.50) == pytest.approx(0.04)
        assert report.quantile(1.0) == pytest.approx(0.08)
        d = report.as_dict()
        assert d["achieved_rps"] == pytest.approx(5.0)
        assert d["shed_rate"] == pytest.approx(0.2)
        assert d["forward_rate"] == pytest.approx(0.5)
        assert d["latency_p99_s"] == pytest.approx(0.08)

    def test_empty_report_is_nan_not_crash(self):
        report = LoadReport()
        assert np.isnan(report.quantile(0.95))
        d = report.as_dict()
        assert d["achieved_rps"] == 0.0
        assert np.isnan(d["latency_p50_s"])

    def test_known_answer_quantiles_n20(self):
        # nearest rank on 1..20 (in ms): p50 = 10th, p95 = 19th, p99 =
        # 20th order statistic.
        report = filled(latencies_s=[0.001 * v for v in range(1, 21)])
        assert report.quantile(0.50) == pytest.approx(0.010)
        assert report.quantile(0.95) == pytest.approx(0.019)
        assert report.quantile(0.99) == pytest.approx(0.020)

    def test_known_answer_quantiles_small_arrays(self):
        # n = 4: p50 -> 2nd, p95/p99 -> 4th order statistic
        report = filled(latencies_s=[0.4, 0.1, 0.3, 0.2])
        assert report.quantile(0.50) == pytest.approx(0.2)
        assert report.quantile(0.95) == pytest.approx(0.4)
        assert report.quantile(0.99) == pytest.approx(0.4)
        # n = 1: every quantile is the sample
        single = filled(latencies_s=[0.123])
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert single.quantile(q) == pytest.approx(0.123)

    def test_quantile_agrees_with_slo_evaluator(self):
        from repro.slo import nearest_rank_quantile

        lats = [0.005 * (i % 7 + 1) for i in range(23)]
        report = filled(latencies_s=lats)
        for q in (0.5, 0.9, 0.95, 0.99):
            assert report.quantile(q) == nearest_rank_quantile(lats, q)


class TestUrlSplit:
    def test_host_port_path(self):
        assert _split_url("http://10.0.0.5:9000/route") == (
            "10.0.0.5",
            9000,
            "/route",
        )

    def test_defaults(self):
        assert _split_url("http://example.org") == ("example.org", 80, "/")
