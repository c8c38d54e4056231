"""The feature-monitor agent and the F2PM profiling harness.

Sec. III: "the system under monitoring ... runs the application and a thin
software client which measures a large set of system features ...  This
information is transferred to a feature monitor agent.  This agent builds a
database of system features, for later usage by the ML algorithms."

Two pieces live here:

* :class:`FeatureMonitor` -- the online agent: a ring buffer of recent
  samples per VM, consulted by the VMC each control era;
* :class:`ProfilingHarness` -- the offline phase: drive a VM to its failure
  point repeatedly under known loads, recording ``(time, features)`` runs
  from which :meth:`ProfilingHarness.build_dataset` produces the
  RTTF-labelled training set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.ml.dataset import Dataset
from repro.ml.features import FEATURE_NAMES
from repro.pcam.vm import VirtualMachine, VmState


@dataclass(frozen=True, slots=True)
class MonitorSample:
    """One timestamped feature row."""

    time: float
    features: np.ndarray  # schema-ordered row


class FeatureMonitor:
    """Ring buffer of monitoring samples for one VM.

    Parameters
    ----------
    vm:
        The monitored VM.
    history:
        Samples retained (the VMC only needs the latest few; F2PM's online
        phase works on the reduced Lasso-selected features anyway).
    """

    def __init__(self, vm: VirtualMachine, history: int = 64) -> None:
        if history < 1:
            raise ValueError("history must be >= 1")
        self.vm = vm
        # The ring holds either materialised samples (record/sample) or
        # bare ``(time, row)`` tuples (push); accessors normalise on the
        # way out so the fleet-scale path never pays for the wrapper.
        self._buffer: deque[MonitorSample | tuple[float, np.ndarray]] = (
            deque(maxlen=history)
        )

    @staticmethod
    def _wrap(item: "MonitorSample | tuple[float, np.ndarray]") -> MonitorSample:
        if type(item) is MonitorSample:
            return item
        return MonitorSample(time=item[0], features=item[1])

    def sample(self, now: float) -> MonitorSample:
        """Take and store one sample at simulated time ``now``."""
        return self.record(now, self.vm.sample_features().to_array())

    def record(self, now: float, row: np.ndarray) -> MonitorSample:
        """Store a pre-computed feature row for this VM.

        The VMC builds the whole ACTIVE pool's feature matrix in
        one pass (:meth:`repro.pcam.state_table.VmStateTable.feature_matrix`)
        and hands each monitor its row here, instead of re-deriving it
        per VM through :meth:`sample`.  The row must follow the
        ``FEATURE_NAMES`` schema.
        """
        s = MonitorSample(time=float(now), features=row)
        self._buffer.append(s)
        return s

    def push(self, now: float, row: np.ndarray) -> None:
        """Store a feature row without materialising a :class:`MonitorSample`.

        Same contract as :meth:`record` minus the return value: the VMC
        uses this when nothing downstream consumes the sample object
        this era, saving one allocation per ACTIVE VM.
        The ring's accessors (:attr:`latest`, :meth:`window`) wrap the
        raw row on demand.
        """
        self._buffer.append((float(now), row))

    @property
    def latest(self) -> MonitorSample:
        """Most recent sample.

        Raises
        ------
        LookupError
            If no sample was taken yet.
        """
        if not self._buffer:
            raise LookupError(f"no samples collected for {self.vm.name}")
        return self._wrap(self._buffer[-1])

    def __len__(self) -> int:
        return len(self._buffer)

    def window(self, n: int) -> list[MonitorSample]:
        """The last ``n`` samples, oldest first."""
        if n < 0:
            raise ValueError("n must be >= 0")
        items = list(self._buffer)
        return [self._wrap(item) for item in items[-n:]] if n else []


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
