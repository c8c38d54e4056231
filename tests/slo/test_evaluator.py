"""Units for the SLO evaluator: quantile estimator, spec grammar,
rolling window, and hysteresis verdicts."""

import math

import pytest

from repro.slo import SloConfig, SloEvaluator, nearest_rank_quantile, parse_slo_spec
from repro.slo.evaluator import COMPACT_SLACK, nearest_rank


class TestNearestRankQuantile:
    """Known-answer cases.  Nearest rank: the ceil(q*n)-th smallest."""

    def test_known_answers_n10(self):
        data = [float(v) for v in range(1, 11)]  # 1..10
        assert nearest_rank_quantile(data, 0.50) == 5.0
        assert nearest_rank_quantile(data, 0.95) == 10.0
        assert nearest_rank_quantile(data, 0.99) == 10.0

    def test_known_answers_n20(self):
        data = [float(v) for v in range(1, 21)]  # 1..20
        assert nearest_rank_quantile(data, 0.50) == 10.0
        assert nearest_rank_quantile(data, 0.95) == 19.0
        assert nearest_rank_quantile(data, 0.99) == 20.0

    def test_rank_needs_no_upper_clamp(self):
        # q <= 1 keeps ceil(q*n - eps) <= n; only the lower clamp is kept
        for q in (0.0, 1e-12, 0.07, 0.5, 0.95, 0.99, 1.0):
            for n in range(1, 3000):
                want = min(n, max(1, math.ceil(q * n - 1e-9)))
                assert nearest_rank(n, q) == want, (q, n)

    def test_epsilon_guard(self):
        # 0.07 * 100 == 7.000000000000001 in floats: the epsilon keeps
        # this at the 7th order statistic, a bare ceil takes the 8th
        data = [float(v) for v in range(1, 101)]
        assert nearest_rank_quantile(data, 0.07) == 7.0

    def test_known_answers_n5(self):
        data = [9.0, 1.0, 7.0, 3.0, 5.0]  # unsorted on purpose
        assert nearest_rank_quantile(data, 0.50) == 5.0
        assert nearest_rank_quantile(data, 0.95) == 9.0
        assert nearest_rank_quantile(data, 0.99) == 9.0

    def test_single_sample(self):
        assert nearest_rank_quantile([4.2], 0.5) == 4.2
        assert nearest_rank_quantile([4.2], 0.99) == 4.2

    def test_extremes(self):
        data = [3.0, 1.0, 2.0]
        assert nearest_rank_quantile(data, 0.0) == 1.0
        assert nearest_rank_quantile(data, 1.0) == 3.0

    def test_empty_sample_is_nan(self):
        assert math.isnan(nearest_rank_quantile([], 0.95))

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            nearest_rank_quantile([1.0], 1.5)
        with pytest.raises(ValueError):
            nearest_rank_quantile([1.0], -0.1)


class TestSpecGrammar:
    def test_minimal_spec(self):
        cfg = parse_slo_spec("p95:0.5")
        assert cfg.p95_target_s == 0.5
        assert cfg.min_dwell_s == 60.0  # default

    def test_full_spec(self):
        cfg = parse_slo_spec(
            "p95:0.5+exit:0.7+queue:10+budget:0.05+window:30+dwell:120+shed:0.25"
        )
        assert cfg.p95_target_s == 0.5
        assert cfg.exit_ratio == 0.7
        assert cfg.queue_depth_max == 10.0
        assert cfg.error_budget == 0.05
        assert cfg.window_s == 30.0
        assert cfg.min_dwell_s == 120.0
        assert cfg.shed_factor == 0.25

    def test_round_trip(self):
        for spec in ("p95:0.5", "p95:0.5+dwell:120+shed:0.25"):
            cfg = parse_slo_spec(spec)
            assert parse_slo_spec(cfg.spec()) == cfg

    def test_spec_omits_defaults(self):
        assert SloConfig(p95_target_s=0.5).spec() == "p95:0.5"

    def test_rejects_garbage(self):
        for bad in ("", "p95", "p95:abc", "nope:1", "p95:0.5,dwell:3"):
            with pytest.raises(ValueError):
                parse_slo_spec(bad)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SloConfig(p95_target_s=0.0)
        with pytest.raises(ValueError):
            SloConfig(exit_ratio=1.5)
        with pytest.raises(ValueError):
            SloConfig(shed_factor=0.0)
        with pytest.raises(ValueError):
            SloConfig(window_s=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field",
        ["p95_target_s", "exit_ratio", "queue_depth_max", "error_budget",
         "window_s", "min_dwell_s", "shed_factor"],
    )
    def test_config_refuses_non_finite(self, field, value):
        """A NaN or infinite field would leave a gate that never fires
        (or always does); every field refuses one."""
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SloConfig(**{field: value})


class TestEvaluator:
    def make(self, **kw) -> SloEvaluator:
        defaults = dict(p95_target_s=1.0, window_s=10.0)
        defaults.update(kw)
        return SloEvaluator(SloConfig(**defaults))

    def test_empty_window_is_healthy(self):
        ev = self.make()
        status = ev.status(0.0)
        assert not status.breach
        assert status.recovered
        assert math.isnan(status.p95_s)

    def test_breach_on_slow_p95(self):
        ev = self.make()
        for i in range(20):
            ev.observe_latency(float(i) * 0.1, 2.0)
        status = ev.status(2.0)
        assert status.breach
        assert not status.recovered

    def test_hysteresis_band_neither_breach_nor_recovered(self):
        # p95 between exit (0.8) and enter (1.0) thresholds
        ev = self.make()
        for i in range(10):
            ev.observe_latency(float(i) * 0.1, 0.9)
        status = ev.status(1.0)
        assert not status.breach
        assert not status.recovered

    def test_fast_p95_is_recovered(self):
        ev = self.make()
        for i in range(10):
            ev.observe_latency(float(i) * 0.1, 0.1)
        status = ev.status(1.0)
        assert not status.breach
        assert status.recovered

    def test_verdict_uses_the_epsilon_rank(self):
        # the p95 of twenty samples is the 19th: one slow sample in
        # twenty holds the verdict, a second breaches
        ev = self.make()
        for i in range(19):
            ev.observe_latency(float(i) * 0.1, 0.1)
        ev.observe_latency(1.9, 5.0)
        status = ev.status(2.0)
        assert status.p95_s == 0.1
        assert not status.breach and status.recovered
        ev.observe_latency(2.0, 5.0)
        assert ev.verdict(2.0).breach

    def test_window_trims_old_samples(self):
        ev = self.make(window_s=5.0)
        ev.observe_latency(0.0, 9.0)  # breach-worthy, but stale later
        assert ev.status(1.0).breach
        status = ev.status(10.0)  # sample aged out of the window
        assert not status.breach
        assert status.samples == 0

    def test_error_budget_signal(self):
        ev = self.make(error_budget=0.1)
        for i in range(10):
            ev.observe_outcome(float(i) * 0.1, ok=(i % 2 == 0))
        status = ev.status(1.0)  # 50% errors against a 10% budget
        assert status.error_rate == pytest.approx(0.5)
        assert status.breach

    def test_queue_depth_signal(self):
        ev = self.make(queue_depth_max=10.0)
        ev.set_queue_depth(50.0)
        assert ev.status(0.0).breach
        ev.set_queue_depth(1.0)
        assert ev.status(0.0).recovered

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_latency_is_refused(self, bad):
        ev = self.make()
        with pytest.raises(ValueError, match="latency must be finite"):
            ev.observe_latency(0.0, bad)
        assert ev.status(0.0).samples == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_queue_depth_is_refused(self, bad):
        ev = self.make(queue_depth_max=10.0)
        ev.set_queue_depth(50.0)
        with pytest.raises(ValueError, match="queue depth must be finite"):
            ev.set_queue_depth(bad)
        assert ev.status(0.0).queue_depth == 50.0


class TestBoundedWindow:
    """Trimming moves a head; compaction keeps storage near the live part."""

    def test_storage_tracks_the_live_window(self):
        # 1 ms apart in a 2 s window: a steady ~2 000 live samples
        ev = SloEvaluator(SloConfig(p95_target_s=1.0, window_s=2.0))
        grid = [0.1, 0.5, 0.8, 0.9, 1.0, 2.0]
        columns = (ev._lat_t, ev._lat_v, ev._out_t, ev._err_t)
        heads = ("_lat_head", "_lat_head", "_out_head", "_err_head")
        peak_live = 0
        for i in range(200_000):
            now = i * 0.001
            ev.observe_latency(now, grid[i % len(grid)])
            ev.observe_outcome(now, ok=i % 7 != 0)
            assert ev.verdict(now) is not None
            for column, head in zip(columns, heads):
                live = len(column) - getattr(ev, head)
                assert len(column) <= 2 * live + COMPACT_SLACK
            peak_live = max(peak_live, len(ev._lat_t) - ev._lat_head)
        assert 1990 <= peak_live <= 2010
        status = ev.status(now)
        assert status.samples == peak_live
        assert ev._over_target > 0 and ev._over_exit > ev._over_target
        # a gap longer than the window empties every count
        status = ev.status(now + 2.5)
        assert (status.samples, status.error_rate) == (0, 0.0)
        assert (ev._over_target, ev._over_exit) == (0, 0)
        assert len(ev._err_t) == ev._err_head
        assert len(ev._out_t) == ev._out_head
        assert math.isnan(status.p95_s)
        assert status.recovered and not status.breach
