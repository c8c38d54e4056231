"""Tests for browser populations and arrival processes."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.workload import (
    BrowserPopulation,
    PoissonArrivals,
    browsers,
    closed_loop_rate,
)


class TestClosedLoopRate:
    def test_interactive_response_time_law(self):
        # 64 clients, 7s think, 1s response -> 8 req/s
        assert closed_loop_rate(64, 7.0, 1.0) == pytest.approx(8.0)

    def test_zero_clients(self):
        assert closed_loop_rate(0, 7.0, 0.5) == 0.0

    def test_rate_decreases_with_response_time(self):
        fast = closed_loop_rate(100, 7.0, 0.1)
        slow = closed_loop_rate(100, 7.0, 5.0)
        assert fast > slow

    def test_validation(self):
        with pytest.raises(ValueError):
            closed_loop_rate(-1, 7.0, 0.0)
        with pytest.raises(ValueError):
            closed_loop_rate(1, 0.0, 0.0)
        with pytest.raises(ValueError):
            closed_loop_rate(1, 7.0, -1.0)

    @pytest.mark.parametrize("think_time_s", [math.nan, math.inf])
    def test_non_finite_think_time_is_refused(self, think_time_s):
        # nan would return a NaN rate, inf a silent 0.0
        with pytest.raises(ValueError, match="finite"):
            closed_loop_rate(10, think_time_s, 0.0)


@pytest.fixture
def think_time(monkeypatch):
    """Sets :data:`browsers.THINK_TIME_S` for one test."""
    return lambda value: monkeypatch.setattr(browsers, "THINK_TIME_S", value)


class TestBrowserPopulation:
    def test_offered_rate_uses_closed_loop_law(self):
        pop = BrowserPopulation(n_clients=70)
        assert pop.offered_rate(0.0) == pytest.approx(10.0)

    def test_think_time_samples_have_right_mean(self):
        pop = BrowserPopulation(n_clients=10)
        rng = np.random.default_rng(0)
        samples = pop.sample_think_times(rng, 50_000)
        assert samples.mean() == pytest.approx(7.0, rel=0.05)
        assert (samples >= 0).all()

    def test_scaled_copy(self):
        pop = BrowserPopulation(n_clients=16, name="r1")
        big = replace(pop, n_clients=512)
        assert big.n_clients == 512
        assert big.name == "r1"
        assert pop.n_clients == 16  # original untouched

    def test_validation(self):
        with pytest.raises(ValueError):
            BrowserPopulation(n_clients=-1)

    @pytest.mark.parametrize("think_time_s", [math.nan, math.inf])
    def test_non_finite_think_time_is_refused(self, think_time_s, think_time):
        # nan would make offered_rate() NaN, inf a silent 0.0
        think_time(think_time_s)
        with pytest.raises(ValueError, match="finite"):
            BrowserPopulation(n_clients=16).offered_rate(0.0)


class TestPoissonArrivals:
    def test_mean_interarrival(self):
        p = PoissonArrivals(np.random.default_rng(0), rate=10.0)
        gaps = [p.next_interarrival() for _ in range(20_000)]
        assert np.mean(gaps) == pytest.approx(0.1, rel=0.05)

    def test_zero_rate_returns_inf(self):
        p = PoissonArrivals(np.random.default_rng(0), rate=0.0)
        assert p.next_interarrival() == float("inf")

    def test_sample_window_sorted_within_bounds(self):
        p = PoissonArrivals(np.random.default_rng(1), rate=5.0)
        t = p.sample_window(10.0, 20.0)
        assert (t >= 10.0).all() and (t < 20.0).all()
        assert (np.diff(t) >= 0).all()
        # ~50 arrivals expected
        assert 20 <= t.size <= 90

    def test_time_varying_rate_thinning(self):
        # rate ramps 0 -> 20 over [0, 10]: second half must hold more arrivals
        p = PoissonArrivals(
            np.random.default_rng(2), rate=lambda t: 2.0 * t, rate_max=20.0
        )
        t = p.sample_window(0.0, 10.0)
        first = np.sum(t < 5.0)
        second = np.sum(t >= 5.0)
        assert second > first * 1.5

    def test_callable_rate_requires_rate_max(self):
        with pytest.raises(ValueError):
            PoissonArrivals(np.random.default_rng(0), rate=lambda t: 1.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            PoissonArrivals(np.random.default_rng(0), rate=-1.0)

    def test_window_order_validated(self):
        p = PoissonArrivals(np.random.default_rng(0), rate=1.0)
        with pytest.raises(ValueError):
            p.sample_window(5.0, 1.0)
