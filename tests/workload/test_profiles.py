"""Tests for the diurnal workload profile."""

import math

import numpy as np
import pytest

from repro.workload.profiles import DiurnalProfile


def test_range_respected():
    p = DiurnalProfile(trough_clients=50, peak_clients=200, period_s=1000.0)
    counts = [p.clients_at(t) for t in np.linspace(0, 1000, 101)]
    assert min(counts) >= 50 - 1
    assert max(counts) <= 200 + 1


def test_peak_at_quarter_period():
    p = DiurnalProfile(50, 200, period_s=1000.0)
    assert p.clients_at(p.peak_time()) == 200


def test_trough_at_three_quarters():
    p = DiurnalProfile(50, 200, period_s=1000.0)
    assert p.clients_at(750.0) == 50


def test_mean_is_midpoint():
    p = DiurnalProfile(50, 150, period_s=500.0)
    assert p.mean_clients() == 100.0
    counts = [p.clients_at(t) for t in np.linspace(0, 500, 1001)]
    assert np.mean(counts) == pytest.approx(100.0, rel=0.02)


def test_phase_shifts_curve():
    p0 = DiurnalProfile(50, 200, period_s=1000.0, phase_s=0.0)
    p250 = DiurnalProfile(50, 200, period_s=1000.0, phase_s=250.0)
    assert p250.clients_at(500.0) == p0.clients_at(250.0)


def test_noise_perturbs_but_stays_positive():
    p = DiurnalProfile(
        50, 200, period_s=1000.0, noise_std=0.2,
        rng=np.random.default_rng(0),
    )
    counts = [p.clients_at(100.0) for _ in range(200)]
    assert len(set(counts)) > 1
    assert all(c >= 1 for c in counts)


def test_noise_requires_rng():
    with pytest.raises(ValueError):
        DiurnalProfile(50, 200, noise_std=0.1)


@pytest.mark.parametrize(
    "kw",
    [
        dict(trough_clients=0, peak_clients=10),
        dict(trough_clients=20, peak_clients=10),
        dict(trough_clients=10, peak_clients=20, period_s=0.0),
        dict(trough_clients=10, peak_clients=20, noise_std=-1.0),
        # non-finite: a NaN noise was dropped silently, an infinite period
        # flattened the curve to its midpoint, a NaN phase failed later
        dict(trough_clients=10, peak_clients=20, noise_std=math.nan),
        dict(trough_clients=10, peak_clients=20, noise_std=math.inf,
             rng=np.random.default_rng(0)),
        dict(trough_clients=10, peak_clients=20, period_s=math.inf),
        dict(trough_clients=10, peak_clients=20, period_s=math.nan),
        dict(trough_clients=10, peak_clients=20, phase_s=math.nan),
        dict(trough_clients=10, peak_clients=20, phase_s=-math.inf),
    ],
)
def test_validation(kw):
    with pytest.raises(ValueError):
        DiurnalProfile(**kw)
