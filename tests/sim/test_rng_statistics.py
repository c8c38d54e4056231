"""Statistical quality tests for the named RNG streams.

Determinism is tested elsewhere; these tests check that distinct streams
are statistically *independent* and individually uniform -- the property
that justifies giving every VM its own anomaly stream.
"""

import numpy as np
from scipy import stats

from repro.sim import RngRegistry


def test_streams_uncorrelated():
    r = RngRegistry(seed=123)
    a = r.stream("alpha").random(20_000)
    b = r.stream("beta").random(20_000)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.02


def test_child_registries_uncorrelated():
    root = RngRegistry(seed=123)
    a = root.child("region1").stream("anomalies").random(20_000)
    b = root.child("region2").stream("anomalies").random(20_000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.02


def test_stream_uniformity_chi_square():
    r = RngRegistry(seed=7)
    x = r.stream("uniformity").random(50_000)
    counts, _ = np.histogram(x, bins=20, range=(0.0, 1.0))
    chi2, p = stats.chisquare(counts)
    assert p > 0.001  # not detectably non-uniform


def test_lagged_autocorrelation_small():
    r = RngRegistry(seed=11)
    x = r.stream("auto").random(50_000)
    x = x - x.mean()
    for lag in (1, 2, 7):
        ac = float(np.dot(x[:-lag], x[lag:]) / np.dot(x, x))
        assert abs(ac) < 0.02, lag


def test_similar_names_give_distinct_streams():
    """Name hashing must separate near-identical names (vm1 vs vm10)."""
    r = RngRegistry(seed=3)
    draws = {
        name: tuple(r.stream(name).integers(0, 2**31, 8))
        for name in ("vm1", "vm10", "vm11", "vm1 ", "Vm1")
    }
    values = list(draws.values())
    assert len(set(values)) == len(values)


def test_exponential_sampling_moments():
    """Workload think-time draws have the right first two moments."""
    r = RngRegistry(seed=17)
    x = r.stream("think").exponential(7.0, size=100_000)
    assert abs(x.mean() - 7.0) / 7.0 < 0.02
    assert abs(x.std() - 7.0) / 7.0 < 0.02
