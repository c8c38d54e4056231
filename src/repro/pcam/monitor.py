"""The F2PM profiling harness.

Sec. III: "the system under monitoring ... runs the application and a thin
software client which measures a large set of system features ...  This
information is transferred to a feature monitor agent.  This agent builds a
database of system features, for later usage by the ML algorithms."

That database is built offline, once: :class:`ProfilingHarness` drives
fresh VMs to their failure point, stepping each on a state table, and
:meth:`ProfilingHarness.collect` turns the run-to-failure traces into the
RTTF-labelled training set.
The model trained on it is deployed frozen (Sec. VI-A); online, the VMC
monitors its VMs only to predict their RTTF.
"""

from __future__ import annotations

import numpy as np

from repro.ml.dataset import Dataset
from repro.ml.features import FEATURE_NAMES
from repro.pcam.state_table import VmStateTable
from repro.pcam.vm import fresh_ttf_s
from repro.workload.anomalies import draw_pool

#: Most steps a run takes per :meth:`VmStateTable.load_block` call.
MAX_BLOCK_STEPS = 256


class ProfilingHarness:
    """F2PM's initial profiling phase: run-to-failure data collection.

    Parameters
    ----------
    make_vm:
        Zero-argument factory producing a *fresh* VM for each run (fresh
        injector stream position): a run may draw from the injector past
        its failure step.
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

        Each step draws the step's request count from ``rng`` (Poisson),
        samples the VM's features, then applies the load.  Returns
        ``(sample_times, feature_matrix, failure_time)`` in the format
        :meth:`repro.ml.Dataset.from_run_traces` consumes.

        The steps run a block at a time on a :meth:`VmStateTable.block`
        table, row ``k`` the VM after the block's load ``k``
        (:meth:`VmStateTable.load_block`); a block is a tenth longer than
        the VM's mean-field life (:func:`~repro.pcam.vm.fresh_ttf_s`),
        so most runs take one.  A block draws all its counts from ``rng``
        at once; the block the VM fails in rewinds ``rng`` and draws
        again up to the failure step, so ``rng`` ends where a
        step-by-step run leaves it.

        Raises
        ------
        RuntimeError
            If the VM survives past ``max_time_s`` (mis-configured load).
        """
        if request_rate <= 0:
            raise ValueError("request_rate must be positive")
        vm = self.make_vm()
        dt = self.sample_period_s
        life = fresh_ttf_s(
            vm.itype, vm.failure_policy, vm.injector, request_rate,
            self.mean_demand,
        )
        steps = int(1.1 * min(life / dt, MAX_BLOCK_STEPS)) + 2
        table = VmStateTable.block(vm, steps)
        rows_k = np.arange(steps)
        table.activate(rows_k)
        injectors = [vm.injector] * steps
        lam = request_rate * dt
        times: list[np.ndarray] = []
        samples = [table.feature_matrix(rows_k[:1])]
        t = 0.0
        while True:
            # the time of each step, summed in order as a walk's ``t += dt``
            step_t = np.full(steps, dt)
            step_t[0] = t
            step_t = step_t.cumsum()
            running = step_t < max_time_s
            rewind = rng.bit_generator.state
            n = rng.poisson(lam, size=steps)
            leaked, threads = draw_pool(injectors, n.tolist())
            _, failed, pressures = table.load_block(
                n, dt, self.mean_demand, leaked, threads
            )
            after = table.feature_matrix(rows_k, pressures)
            hit = (failed & running).nonzero()[0]
            if hit.size:
                f = int(hit[0])
                rng.bit_generator.state = rewind
                rng.poisson(lam, size=f + 1)
                times.append(step_t[: f + 1])
                samples.append(after[:f])
                return (
                    np.concatenate(times),
                    np.vstack(samples),
                    float(step_t[f]) + dt,
                )
            if not running.all():
                raise RuntimeError(
                    f"VM survived past max_time_s={max_time_s} "
                    f"at rate {request_rate}"
                )
            times.append(step_t)
            samples.append(after)
            t = float(step_t[-1]) + dt

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
