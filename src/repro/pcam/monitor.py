"""The feature-monitor agent and the F2PM profiling harness.

Sec. III: "the system under monitoring ... runs the application and a thin
software client which measures a large set of system features ...  This
information is transferred to a feature monitor agent.  This agent builds a
database of system features, for later usage by the ML algorithms."

Three pieces live here:

* :class:`MonitorRing` -- the online agent's database for a whole pool:
  one history-major array ring the VMC writes an era's feature matrix
  into in a single pass, read per VM through :class:`RingMonitor`;
* :class:`FeatureMonitor` -- the same agent for one standalone VM (a
  ``deque``): the one-VM semantics the ring is tested against;
* :class:`ProfilingHarness` -- the offline phase: drive a VM to its failure
  point repeatedly under known loads, recording ``(time, features)`` runs
  from which :meth:`ProfilingHarness.build_dataset` produces the
  RTTF-labelled training set.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.ml.dataset import Dataset
from repro.ml.features import FEATURE_NAMES
from repro.pcam.vm import VirtualMachine, VmState

if TYPE_CHECKING:
    from repro.pcam.state_table import TableBackedVM


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
        self._buffer: deque[MonitorSample] = deque(maxlen=history)

    def sample(self, now: float) -> MonitorSample:
        """Take and store one sample at simulated time ``now``."""
        return self.record(now, self.vm.sample_features().to_array())

    def record(self, now: float, row: np.ndarray) -> MonitorSample:
        """Store a pre-computed feature row for this VM.

        The row must follow the ``FEATURE_NAMES`` schema.
        """
        s = MonitorSample(time=float(now), features=row)
        self._buffer.append(s)
        return s

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
        return self._buffer[-1]

    def __len__(self) -> int:
        return len(self._buffer)

    def window(self, n: int) -> list[MonitorSample]:
        """The last ``n`` samples, oldest first."""
        if n < 0:
            raise ValueError("n must be >= 0")
        return list(self._buffer)[-n:] if n else []


class MonitorRing:
    """The last ``history`` samples of every VM of a pool, as arrays.

    Indexed by the pool's :class:`~repro.pcam.state_table.VmStateTable`
    row.  The layout is *history-major* -- ``features[slot, row]`` is one
    schema-ordered sample, ``times[slot, row]`` its timestamp -- so that
    an era in which every monitored VM is at the same ring position
    writes one contiguous slab, and a run of ``k`` eras touches ``k``
    slabs of the lazily-zeroed allocation rather than all ``history`` of
    them (at 10 000 rows x 64 samples the whole ring is 77 MB).
    ``count[row]`` is the number of samples ever recorded for the row's
    current tenant; only the ``min(count, history)`` most recent slots
    of a row are ever read, so clearing a row is resetting its count.

    Parameters
    ----------
    history:
        Samples retained per VM.
    capacity:
        Rows allocated (the table's capacity; see :meth:`grow`).
    """

    def __init__(self, history: int, capacity: int) -> None:
        if history < 1:
            raise ValueError("history must be >= 1")
        self.history = history
        self._allocate(capacity)

    def _allocate(self, capacity: int) -> None:
        # zeros, not empty + fill: the pages stay untouched until written
        self._features = np.zeros(
            (self.history, capacity, len(FEATURE_NAMES)), dtype=np.float64
        )
        self._times = np.zeros((self.history, capacity), dtype=np.float64)
        self._count = np.zeros(capacity, dtype=np.int64)

    @property
    def capacity(self) -> int:
        """Rows allocated."""
        return len(self._count)

    def record(self, rows: np.ndarray, now: float, features: np.ndarray) -> None:
        """Append one sample per row: ``features[k]`` at ``now`` to ``rows[k]``.

        ``rows`` must not repeat a row.
        """
        count = self._count[rows]
        slots = count % self.history
        self._features[slots, rows] = features
        self._times[slots, rows] = now
        self._count[rows] = count + 1

    def _slots_written(self) -> int:
        """Leading ring slots any row has written (the rest are untouched)."""
        return min(self.history, int(self._count.max(initial=0)))

    def grow(self, capacity: int) -> None:
        """Reallocate for ``capacity`` rows, keeping every sample."""
        features, times, count = self._features, self._times, self._count
        used = self._slots_written()
        self._allocate(capacity)
        self._features[:used, : len(count)] = features[:used]
        self._times[:used, : len(count)] = times[:used]
        self._count[: len(count)] = count

    def clear(self, row: int) -> None:
        """Forget ``row``'s samples (its VM left the pool)."""
        self._count[row] = 0

    def remap(self, mapping: dict[int, int]) -> None:
        """Follow a :meth:`VmStateTable.compact`: ``{old_row: new_row}``."""
        old = np.fromiter(mapping.keys(), dtype=np.intp, count=len(mapping))
        new = np.fromiter(mapping.values(), dtype=np.intp, count=len(mapping))
        used = self._slots_written()
        self._features[:used, new] = self._features[:used, old]
        self._times[:used, new] = self._times[:used, old]
        count = np.zeros_like(self._count)
        count[new] = self._count[old]
        self._count = count

    def n_samples(self, row: int) -> int:
        """Samples currently held for ``row``."""
        return min(int(self._count[row]), self.history)

    def window(self, row: int, n: int) -> list[MonitorSample]:
        """The last ``n`` samples of ``row``, oldest first (copies)."""
        count = int(self._count[row])
        first = count - min(n, count, self.history)
        return [
            MonitorSample(
                time=float(self._times[i % self.history, row]),
                features=self._features[i % self.history, row].copy(),
            )
            for i in range(first, count)
        ]


class RingMonitor:
    """Read side of :class:`FeatureMonitor` for one VM of a :class:`MonitorRing`.

    Holds the table-backed VM, not its row, so it keeps reading the right
    samples across a table compaction.
    """

    def __init__(self, ring: MonitorRing, vm: TableBackedVM) -> None:
        self._ring = ring
        self.vm = vm

    def __len__(self) -> int:
        return self._ring.n_samples(self.vm.row)

    @property
    def latest(self) -> MonitorSample:
        """Most recent sample.

        Raises
        ------
        LookupError
            If no sample was taken yet.
        """
        newest = self._ring.window(self.vm.row, 1)
        if not newest:
            raise LookupError(f"no samples collected for {self.vm.name}")
        return newest[0]

    def window(self, n: int) -> list[MonitorSample]:
        """The last ``n`` samples, oldest first."""
        if n < 0:
            raise ValueError("n must be >= 0")
        return self._ring.window(self.vm.row, n)


class PoolMonitors(Mapping):
    """Read-only ``VM name -> RingMonitor`` over a controller's pool.

    A live view: it follows the ``name -> VM`` dict it is given, which
    the controller keeps in step with its pool.
    """

    def __init__(
        self, ring: MonitorRing, vms_by_name: dict[str, TableBackedVM]
    ) -> None:
        self._ring = ring
        self._vms = vms_by_name

    def __getitem__(self, name: str) -> RingMonitor:
        return RingMonitor(self._ring, self._vms[name])

    def __iter__(self) -> Iterator[str]:
        return iter(self._vms)

    def __len__(self) -> int:
        return len(self._vms)


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
