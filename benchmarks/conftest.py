"""Shared fixtures for the reproduction benchmarks.

The figure experiments are expensive relative to a micro-benchmark, so each
full comparison runs once per session and every bench that checks a row of
the same figure shares the cached result.  The ``benchmark`` timing payload
of each test is a *small but real* unit of the workload (a bounded-era loop
chunk, one model fit, one policy step), so ``--benchmark-only`` runs stay
fast while the assertions cover the full-length runs.
"""

import numpy as np
import pytest

from repro.experiments import run_figure
from repro.experiments.runner import make_trained_predictor
from repro.ml.features import FEATURE_NAMES
from repro.pcam.monitor import ProfilingHarness
from repro.pcam.vm import VirtualMachine
from repro.sim.instances import get_instance_type
from repro.sim.rng import RngRegistry
from repro.workload.anomalies import AnomalyInjector

#: Eras per figure run; 240 eras x 30 s = 2 hours of simulated operation.
FIGURE_ERAS = 240
FIGURE_SEED = 7


@pytest.fixture(scope="session")
def figure3_results():
    """All three policies on the 2-region deployment (Fig. 3)."""
    return run_figure("fig3", eras=FIGURE_ERAS, seed=FIGURE_SEED)


@pytest.fixture(scope="session")
def figure4_results():
    """All three policies on the 3-region deployment (Fig. 4)."""
    return run_figure("fig4", eras=FIGURE_ERAS, seed=FIGURE_SEED)


@pytest.fixture(scope="session")
def profiling_dataset():
    """An F2PM profiling dataset for the ML model-selection bench."""
    rngs = RngRegistry(seed=31)
    counter = {"n": 0}
    itype = get_instance_type("m3.medium")

    def factory():
        counter["n"] += 1
        name = f"bench-prof/{counter['n']}"
        return VirtualMachine(
            name, itype, AnomalyInjector(rngs.child(name).stream("a"))
        )

    harness = ProfilingHarness(factory, sample_period_s=10.0)
    return harness.collect(
        [4.0, 8.0, 14.0, 22.0], runs_per_rate=2, rng=rngs.stream("prof")
    )


@pytest.fixture(scope="session")
def trained_reptree_predictor():
    """The paper's deployed model: REP-Tree over both Fig.3 shapes."""
    return make_trained_predictor(
        ["m3.medium", "private.small"], seed=13
    )


def series_tail_means(results, policy, prefix, tail=0.3):
    """Per-region steady-state means of a trace prefix."""
    traces = results[policy].traces
    return {
        name: s.tail_fraction(tail).mean()
        for name, s in traces.matching(prefix).items()
    }


def assert_simplex(values, atol=1e-6):
    arr = np.asarray(list(values))
    assert np.all(arr >= -atol)
    assert abs(arr.sum() - 1.0) < 1e-3
