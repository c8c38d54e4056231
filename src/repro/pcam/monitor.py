"""The F2PM profiling harness.

Sec. III: "the system under monitoring ... runs the application and a thin
software client which measures a large set of system features ...  This
information is transferred to a feature monitor agent.  This agent builds a
database of system features, for later usage by the ML algorithms."

That database is built offline, once: :class:`ProfilingHarness` drives
fresh VMs to their failure point and :meth:`ProfilingHarness.collect`
turns the run-to-failure traces into the RTTF-labelled training set.
The model trained on it is deployed frozen (Sec. VI-A); online, the VMC
monitors its VMs only to predict their RTTF.
"""

from __future__ import annotations

import numpy as np

from repro.ml.dataset import Dataset
from repro.ml.features import FEATURE_NAMES
from repro.pcam.vm import VmState


class ProfilingHarness:
    """F2PM's initial profiling phase: run-to-failure data collection.

    Parameters
    ----------
    make_vm:
        Zero-argument factory producing a *fresh* VM for each run (fresh
        anomaly state and injector stream position).
    sample_period_s:
        Feature-sampling interval during a run.
    mean_demand:
        Average demand-units per request of the driving mix.
    """

    def __init__(
        self,
        make_vm,
        sample_period_s: float = 15.0,
        mean_demand: float = 1.5,
    ) -> None:
        if sample_period_s <= 0:
            raise ValueError("sample_period_s must be positive")
        self.make_vm = make_vm
        self.sample_period_s = float(sample_period_s)
        self.mean_demand = float(mean_demand)

    def run_to_failure(
        self,
        request_rate: float,
        rng: np.random.Generator,
        max_time_s: float = 1e6,
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Drive one fresh VM at ``request_rate`` until its failure point.

        Returns ``(sample_times, feature_matrix, failure_time)`` in the
        format :meth:`repro.ml.Dataset.from_run_traces` consumes.

        Raises
        ------
        RuntimeError
            If the VM survives past ``max_time_s`` (mis-configured load).
        """
        if request_rate <= 0:
            raise ValueError("request_rate must be positive")
        vm = self.make_vm()
        if vm.state is VmState.STANDBY:
            vm.activate()
        times: list[float] = []
        rows: list[np.ndarray] = []
        t = 0.0
        dt = self.sample_period_s
        while t < max_time_s:
            n = int(rng.poisson(request_rate * dt))
            times.append(t)
            rows.append(vm.sample_features().to_array())
            vm.apply_load(n, dt, self.mean_demand)
            t += dt
            if vm.state is VmState.FAILED:
                return (
                    np.asarray(times),
                    np.vstack(rows),
                    t,
                )
        raise RuntimeError(
            f"VM survived past max_time_s={max_time_s} at rate {request_rate}"
        )

    def collect_runs(
        self,
        request_rates: list[float],
        runs_per_rate: int,
        rng: np.random.Generator,
    ) -> list[tuple[np.ndarray, np.ndarray, float]]:
        """Run the profiling campaign; returns the raw run-to-failure traces.

        One run per (rate, repetition); rates should span the load range
        the online system will see, so the models interpolate rather than
        extrapolate.
        """
        if runs_per_rate < 1:
            raise ValueError("runs_per_rate must be >= 1")
        if not request_rates:
            raise ValueError("need at least one request rate")
        runs = []
        for rate in request_rates:
            for _ in range(runs_per_rate):
                runs.append(self.run_to_failure(rate, rng))
        return runs

    def collect(
        self,
        request_rates: list[float],
        runs_per_rate: int,
        rng: np.random.Generator,
    ) -> Dataset:
        """Run the full profiling campaign and build the RTTF dataset."""
        return Dataset.from_run_traces(
            self.collect_runs(request_rates, runs_per_rate, rng),
            FEATURE_NAMES,
        )
