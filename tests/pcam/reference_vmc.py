"""Tests-only reference VMC: one scalar :class:`ReferenceVm` at a time.

Until PR 13 this era loop shipped in ``repro.pcam.vmc`` as
``_process_era_objects`` behind ``VmcConfig(columnar=False)``.  The
:class:`~repro.pcam.state_table.VmStateTable` is now the only store in
production; the object walk lives on here, moved verbatim, as the
comparator of ``tests/pcam/test_columnar_parity.py``: the same seeds
through :class:`ReferenceVmc` and the real
:class:`~repro.pcam.vmc.VirtualMachineController` must give ``==`` era
reports, per-VM state, capacities and ``stats()``, and
:class:`RecordingPredictor` wrapped around each side's predictor must
record the same feature rows, VM names and RTTFs, call by call.

The pool is :class:`ReferenceVm` objects, never in a table, so every
quantity is a scalar attribute mutated by their methods (``apply_load``,
``activate``, ``start_rejuvenation``) and :func:`idle` -- the one-VM
semantics the array kernels replicate.  The plug points
keep their per-object rules here too: :func:`weights` is the balancer's
weight per VM, :func:`rejuvenation_rule` the discipline's verdict and
urgency per VM, and the predictor sees rows built by each VM's
``sample_features()`` (:func:`feature_rows`); an oracle is asked through
:class:`ReferenceOracle`, per VM.  None of them calls the row methods
(``weights_of``, ``at_risk``) or reads the table columns the real VMC's
do.  Only the
controller's observers (telemetry, online lifecycle) are left out: no
parity test passes them and they never touch VM state.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.ml.features import FEATURE_NAMES, FeatureVector
from repro.pcam.balancer import DomainAwareBalancer, LocalBalancer
from repro.pcam.predictor import OracleRttfPredictor, RttfPredictor
from repro.pcam.rejuvenation import (
    NoRejuvenation,
    PeriodicRejuvenation,
    RejuvenationDiscipline,
    RttfThresholdRejuvenation,
)
from repro.pcam.vm import (
    BASELINE_MEMORY_MB,
    BASELINE_THREADS,
    FailurePolicy,
    VmState,
    effective_capacity,
    mean_field_ttf_s,
    swap_pressure,
    swap_used_mb,
    thread_free_slots,
    thread_pressure,
    usable_memory_mb,
)
from repro.pcam.vmc import EraReport, VmcConfig
from repro.sim.instances import InstanceType
from repro.workload.anomalies import AnomalyInjector


def mm1_response_time_s(
    capacity: float, request_rate: float, mean_demand: float
) -> float:
    """M/M/1-style mean response time on ``capacity`` demand-units/second.

    Utilisation is clamped at 0.99: past saturation the model reports a
    steeply growing but finite response time, which is what a real
    overloaded server (with queue limits) exhibits.
    """
    mu = capacity / mean_demand  # requests/second
    service_time = 1.0 / mu
    rho = min(request_rate / mu, 0.99)
    return service_time / (1.0 - rho)


class ReferenceVm:
    """One simulated VM with its state in scalar attributes.

    The one-VM semantics the table kernels replicate, moved here from
    ``repro.pcam.vm.VirtualMachine`` when that became a view of a
    :class:`~repro.pcam.state_table.VmStateTable` row: the same
    constructor, every quantity a plain attribute mutated by the
    transitions below.  Never adopted into a table.

    Parameters
    ----------
    name:
        Unique identifier ("region1/vm3").
    itype:
        Hardware shape from the instance catalog.
    injector:
        Per-VM anomaly injector (owns its own random stream).
    failure_policy:
        The failure-point definition.
    rejuvenation_time_s:
        How long a rejuvenation (process/system restart) takes.
    state:
        Initial lifecycle state.
    rack_id:
        Global rack id in the deployment's
        :class:`~repro.topology.domains.FailureDomainTree` (0 -- the
        region's single rack -- for flat topologies).  Fixed for the
        VM's lifetime: rejuvenation restarts the software, not the
        hardware placement.
    """

    def __init__(
        self,
        name: str,
        itype: InstanceType,
        injector: AnomalyInjector,
        failure_policy: FailurePolicy | None = None,
        rejuvenation_time_s: float = 120.0,
        state: VmState = VmState.STANDBY,
        rack_id: int = 0,
    ) -> None:
        if rejuvenation_time_s < 0:
            raise ValueError("rejuvenation_time_s must be >= 0")
        if rack_id < 0:
            raise ValueError("rack_id must be >= 0")
        self.name = name
        self.itype = itype
        self.injector = injector
        self.failure_policy = failure_policy or FailurePolicy()
        self.rejuvenation_time_s = float(rejuvenation_time_s)
        self.state = state
        self.rack_id = int(rack_id)
        # anomaly accumulation
        self.leaked_mb = 0.0
        self.stuck_threads = 0
        self.uptime_s = 0.0
        # rejuvenation progress
        self._rejuvenation_remaining_s = 0.0
        # last-era telemetry
        self.last_request_rate = 0.0
        self.last_response_time_s = 0.0
        self.total_requests = 0
        self.rejuvenation_count = 0
        self.failure_count = 0

    # ------------------------------------------------------------------ #
    # resource pressures and capacity
    # ------------------------------------------------------------------ #

    @property
    def usable_memory_mb(self) -> float:
        """RAM available to absorb leaks before spilling to swap."""
        return usable_memory_mb(self.itype.memory_mb)

    @property
    def anomaly_budget_mb(self) -> float:
        """Total leak absorption before the hard-crash point (RAM + swap)."""
        return self.usable_memory_mb + self.itype.swap_mb

    @property
    def thread_free_slots(self) -> int:
        """Scheduler slots stuck threads can occupy before exhaustion."""
        return thread_free_slots(self.itype.thread_slots)

    @property
    def swap_used_mb(self) -> float:
        """Leaked memory that spilled past RAM into swap."""
        return swap_used_mb(
            self.leaked_mb, self.usable_memory_mb, self.itype.swap_mb
        )

    @property
    def swap_pressure(self) -> float:
        """Swap occupancy in [0, 1]."""
        return swap_pressure(
            self.leaked_mb, self.usable_memory_mb, self.itype.swap_mb
        )

    @property
    def thread_pressure(self) -> float:
        """Thread-slot occupancy by stuck threads, in [0, 1]."""
        return thread_pressure(self.stuck_threads, self.thread_free_slots)

    @property
    def effective_capacity(self) -> float:
        """Current service capacity in demand-units/second."""
        itype = self.itype
        return effective_capacity(
            itype.cpu_power,
            self.leaked_mb,
            self.usable_memory_mb,
            itype.swap_mb,
            self.stuck_threads,
            self.thread_free_slots,
        )

    def response_time_s(self, request_rate: float, mean_demand: float = 1.5) -> float:
        """M/M/1-style mean response time at ``request_rate`` req/s.

        ``mean_demand`` is the average demand-units per request (from the
        TPC-W mix); see :func:`mm1_response_time_s`.
        """
        if request_rate < 0:
            raise ValueError("request_rate must be >= 0")
        return mm1_response_time_s(
            self.effective_capacity, request_rate, mean_demand
        )

    # ------------------------------------------------------------------ #
    # failure point
    # ------------------------------------------------------------------ #

    def failure_point_reached(self) -> bool:
        """Evaluate the F2PM failure-point predicate on the current state."""
        p = self.failure_policy
        if self.leaked_mb >= self.anomaly_budget_mb:
            return True
        if self.thread_pressure >= 1.0:
            return True
        if self.last_response_time_s > p.sla_response_time_s:
            return True
        return False

    def true_time_to_failure_s(
        self, request_rate: float, mean_demand: float = 1.5
    ) -> float:
        """Mean-field (noise-free) time to this VM's failure point.

        Used by tests, the planner and the oracle predictor:
        :func:`mean_field_ttf_s` on the current anomaly level, with the
        injector's expected leak and thread rates at ``request_rate``.
        """
        if request_rate <= 0:
            return float("inf")
        itype = self.itype
        policy = self.failure_policy
        return mean_field_ttf_s(
            self.leaked_mb,
            self.stuck_threads,
            request_rate,
            mean_demand,
            itype.cpu_power,
            self.usable_memory_mb,
            itype.swap_mb,
            self.thread_free_slots,
            policy.sla_response_time_s,
            self.injector.expected_leak_rate_mb(request_rate),
            self.injector.expected_thread_rate(request_rate),
        )

    # ------------------------------------------------------------------ #
    # era advancement
    # ------------------------------------------------------------------ #

    def apply_load(
        self, n_requests: int, dt: float, mean_demand: float = 1.5
    ) -> float:
        """Serve ``n_requests`` over an era of ``dt`` seconds.

        Injects anomalies, advances uptime, updates telemetry, and returns
        the era's mean response time.  Only valid for ACTIVE VMs.
        """
        if self.state is not VmState.ACTIVE:
            raise RuntimeError(
                f"{self.name}: apply_load on {self.state.value} VM"
            )
        if dt <= 0:
            raise ValueError("dt must be positive")
        if n_requests < 0:
            raise ValueError("n_requests must be >= 0")
        leaked_mb, stuck_threads = self.injector.draw(n_requests)
        self.leaked_mb += leaked_mb
        self.stuck_threads += stuck_threads
        self.uptime_s += dt
        self.total_requests += n_requests
        self.last_request_rate = n_requests / dt
        self.last_response_time_s = self.response_time_s(
            self.last_request_rate, mean_demand
        )
        if self.failure_point_reached():
            self.fail()
        return self.last_response_time_s

    # ------------------------------------------------------------------ #
    # lifecycle transitions
    # ------------------------------------------------------------------ #

    def activate(self) -> None:
        """STANDBY -> ACTIVE (the PCAM ACTIVATE command)."""
        if self.state is not VmState.STANDBY:
            raise RuntimeError(
                f"{self.name}: cannot ACTIVATE from {self.state.value}"
            )
        self.state = VmState.ACTIVE
        self.uptime_s = 0.0

    def start_rejuvenation(self) -> None:
        """ACTIVE/FAILED -> REJUVENATING (the PCAM REJUVENATE command)."""
        if self.state not in (VmState.ACTIVE, VmState.FAILED):
            raise RuntimeError(
                f"{self.name}: cannot REJUVENATE from {self.state.value}"
            )
        self.state = VmState.REJUVENATING
        self._rejuvenation_remaining_s = self.rejuvenation_time_s
        self.rejuvenation_count += 1
        if self.rejuvenation_time_s == 0:
            self._finish_rejuvenation()

    def _finish_rejuvenation(self) -> None:
        self.state = VmState.STANDBY
        self.leaked_mb = 0.0
        self.stuck_threads = 0
        self.uptime_s = 0.0
        self.last_response_time_s = 0.0
        self.last_request_rate = 0.0
        self._rejuvenation_remaining_s = 0.0

    def fail(self) -> None:
        """Transition to FAILED (failure point reached before rejuvenation)."""
        if self.state is VmState.FAILED:
            return
        self.state = VmState.FAILED
        self.failure_count += 1

    # ------------------------------------------------------------------ #
    # monitoring
    # ------------------------------------------------------------------ #

    def sample_features(self) -> FeatureVector:
        """Produce one F2PM monitoring sample of the current state."""
        mem_used = BASELINE_MEMORY_MB + min(self.leaked_mb, self.usable_memory_mb)
        mu = self.effective_capacity / 1.5
        rho = min(self.last_request_rate / mu, 0.99) if mu > 0 else 0.99
        cpu_user = 70.0 * rho
        cpu_system = 10.0 * rho + 20.0 * self.swap_pressure
        return FeatureVector(
            mem_used_mb=mem_used,
            mem_free_mb=max(self.itype.memory_mb - mem_used, 0.0),
            swap_used_mb=self.swap_used_mb,
            cpu_user_pct=cpu_user,
            cpu_system_pct=cpu_system,
            cpu_idle_pct=max(100.0 - cpu_user - cpu_system, 0.0),
            num_threads=BASELINE_THREADS + self.stuck_threads,
            num_processes=60.0,
            disk_read_mbps=0.5 + 4.0 * self.swap_pressure,
            disk_write_mbps=0.3 + 6.0 * self.swap_pressure,
            net_in_mbps=0.02 * self.last_request_rate,
            net_out_mbps=0.12 * self.last_request_rate,
            request_rate=self.last_request_rate,
            response_time_ms=self.last_response_time_s * 1000.0,
            uptime_s=self.uptime_s,
        )

    def __repr__(self) -> str:
        return (
            f"ReferenceVm({self.name!r}, {self.itype.name}, "
            f"{self.state.value}, leaked={self.leaked_mb:.0f}MB, "
            f"threads+{self.stuck_threads})"
        )


class ReferenceOracle(RttfPredictor):
    """:class:`~repro.pcam.predictor.OracleRttfPredictor` over reference
    VMs: one ``true_time_to_failure_s`` per VM at its last rate (1 req/s
    when idle), noise drawn from the wrapped oracle's stream in the same
    order."""

    def __init__(self, oracle: OracleRttfPredictor) -> None:
        self.oracle = oracle

    def predict_rttf_rows(
        self, features: np.ndarray, vms: list[ReferenceVm], table, rows
    ) -> np.ndarray:
        oracle = self.oracle
        out = np.empty(len(vms), dtype=float)
        for k, vm in enumerate(vms):
            rate = vm.last_request_rate
            ttf = vm.true_time_to_failure_s(
                rate if rate > 0 else 1.0, oracle.mean_demand
            )
            if oracle.noise_std > 0 and math.isfinite(ttf):
                ttf *= max(1.0 + oracle._rng.normal(0.0, oracle.noise_std), 0.05)
            out[k] = ttf
        return out


def idle(vm: ReferenceVm, dt: float) -> None:
    """Advance a plain VM's time without load: an ACTIVE VM ages idle, a
    REJUVENATING one progresses (and returns to STANDBY when done)."""
    if dt < 0:
        raise ValueError("dt must be >= 0")
    if vm.state is VmState.ACTIVE:
        vm.uptime_s += dt
        vm.last_request_rate = 0.0
    elif vm.state is VmState.REJUVENATING:
        vm._rejuvenation_remaining_s -= dt
        if vm._rejuvenation_remaining_s <= 0:
            vm._finish_rejuvenation()


def feature_rows(vms: list) -> np.ndarray:
    """Each VM's ``sample_features()`` row, stacked in pool order (VM
    views or :class:`ReferenceVm` objects alike)."""
    rows = [vm.sample_features().to_array() for vm in vms]
    return np.array(rows, dtype=np.float64).reshape(len(vms), len(FEATURE_NAMES))


def table_rows(vms: list):
    """``(table, rows)`` of VM views of one table, the plug point's
    arguments beside the VMs; ``(None, rows)`` for :class:`ReferenceVm`
    objects, which have no table (only the table-reading oracle needs
    one, and the reference side runs :class:`ReferenceOracle`)."""
    table = getattr(vms[0], "table", None) if vms else None
    rows = np.array(
        [vm.row for vm in vms] if table is not None else range(len(vms)),
        dtype=np.intp,
    )
    return table, rows


def predict_rows(predictor: RttfPredictor, vms: list) -> np.ndarray:
    """One ``predict_rttf_rows`` call over ``vms``, built as a VMC builds
    it: their feature rows, and their table rows."""
    return predictor.predict_rttf_rows(feature_rows(vms), vms, *table_rows(vms))


def predict_one(predictor: RttfPredictor, vm) -> float:
    """One one-row call: ``vm``'s predicted RTTF."""
    return float(predict_rows(predictor, [vm])[0])


class PredictCall(NamedTuple):
    """One ``predict_rttf_rows`` call, as plain lists."""

    rows: list[list[float]]
    names: list[str]
    rttf: list[float]


class RecordingPredictor(RttfPredictor):
    """Wraps a predictor and keeps every ``predict_rttf_rows`` call.

    What a controller monitored and predicted each era -- the feature
    rows it built, the VMs it asked about and the RTTFs it got back --
    is read from :attr:`calls` (oldest first) instead of from the
    controller.
    """

    def __init__(self, inner: RttfPredictor) -> None:
        self.inner = inner
        self.calls: list[PredictCall] = []

    def predict_rttf_rows(
        self, features: np.ndarray, vms: list, table, rows
    ) -> np.ndarray:
        rttf = self.inner.predict_rttf_rows(features, vms, table, rows)
        self.calls.append(
            PredictCall(
                np.asarray(features).tolist(),
                [vm.name for vm in vms],
                np.asarray(rttf, dtype=np.float64).tolist(),
            )
        )
        return rttf

    def rttf_by_name(self) -> dict[str, float]:
        """The last call's ``VM name -> RTTF``."""
        call = self.calls[-1]
        return dict(zip(call.names, call.rttf))


def reference_predictor(predictor: RttfPredictor) -> RttfPredictor:
    """``predictor`` as the reference VMC asks it: an oracle (also one a
    :class:`RecordingPredictor` wraps) through :class:`ReferenceOracle`."""
    if isinstance(predictor, RecordingPredictor):
        predictor.inner = reference_predictor(predictor.inner)
    elif isinstance(predictor, OracleRttfPredictor):
        return ReferenceOracle(predictor)
    return predictor


def weights(balancer: LocalBalancer, vms: list[ReferenceVm]) -> np.ndarray:
    """The balancer's routing weight of each VM, one object at a time."""
    if balancer.discipline == "uniform":
        w = np.ones(len(vms))
    else:
        w = np.array([vm.effective_capacity for vm in vms])
    if isinstance(balancer, DomainAwareBalancer):
        degraded = balancer.health.degraded_racks()
        if degraded:
            w = w * np.array(
                [
                    balancer.degraded_penalty if vm.rack_id in degraded else 1.0
                    for vm in vms
                ]
            )
    return w


def rejuvenation_rule(
    discipline: RejuvenationDiscipline, vm: ReferenceVm, rttf: float
) -> float | None:
    """``vm``'s urgency (lower = sooner) if ``discipline`` swaps it out
    this era, else ``None``."""
    if type(discipline) is RttfThresholdRejuvenation:
        return rttf if rttf < discipline.threshold_s else None
    if type(discipline) is PeriodicRejuvenation:
        # the longest-running VM goes first
        return -vm.uptime_s if vm.uptime_s >= discipline.period_s else None
    assert type(discipline) is NoRejuvenation, discipline
    return None


class ReferenceVmc:
    """Object-walking twin of ``VirtualMachineController``.

    Same constructor arguments (minus the observers) over a pool of
    :class:`ReferenceVm`, and the pool operations the scripted scenarios
    use: ``set_target_active``, ``vms_in``, the two capacities and
    ``stats``.  An :class:`~repro.pcam.predictor.OracleRttfPredictor` is
    asked through :class:`ReferenceOracle`.
    """

    def __init__(
        self,
        region_name: str,
        vms: list[ReferenceVm],
        predictor: RttfPredictor,
        config: VmcConfig | None = None,
        balancer: LocalBalancer | None = None,
        discipline: RejuvenationDiscipline | None = None,
    ) -> None:
        self.region_name = region_name
        self.vms = list(vms)
        self.predictor = reference_predictor(predictor)
        self.config = config or VmcConfig()
        self.balancer = balancer or LocalBalancer()
        self.discipline = discipline or RttfThresholdRejuvenation(
            self.config.rttf_threshold_s
        )
        self._target_active = self.config.target_active
        self.total_rejuvenations = 0
        self.total_failures = 0
        self.spread_deferrals = 0
        self._ensure_active_pool()

    # ------------------------------------------------------------------ #
    # pool management
    # ------------------------------------------------------------------ #

    def vms_in(self, state: VmState) -> list[ReferenceVm]:
        return [vm for vm in self.vms if vm.state is state]

    @property
    def target_active(self) -> int:
        return self._target_active

    def set_target_active(self, n: int) -> None:
        self._target_active = n
        active = self.vms_in(VmState.ACTIVE)
        while len(active) > self._target_active:
            # Retire the most-degraded VM first.
            worst = max(active, key=lambda vm: vm.leaked_mb)
            worst.start_rejuvenation()
            active.remove(worst)
        self._ensure_active_pool()

    def _ensure_active_pool(self) -> None:
        active = self.vms_in(VmState.ACTIVE)
        standby = self.vms_in(VmState.STANDBY)
        while len(active) < self._target_active and standby:
            vm = standby.pop(0)
            vm.activate()
            active.append(vm)

    def total_capacity(self) -> float:
        return float(
            sum(vm.effective_capacity for vm in self.vms_in(VmState.ACTIVE))
        )

    def healthy_capacity(self) -> float:
        return float(
            sum(vm.itype.cpu_power for vm in self.vms_in(VmState.ACTIVE))
        )

    def _rack_rejuvenation_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for vm in self.vms:
            if vm.state is VmState.REJUVENATING:
                rack = vm.rack_id
                counts[rack] = counts.get(rack, 0) + 1
        return counts

    def _spread_defer(
        self, rack_busy: dict[int, int], vm: ReferenceVm
    ) -> bool:
        if rack_busy.get(vm.rack_id, 0) < self.config.spread_k:
            return False
        self.spread_deferrals += 1
        return True

    # ------------------------------------------------------------------ #
    # era processing
    # ------------------------------------------------------------------ #

    def process_era(self, n_requests: int, dt: float, now: float) -> EraReport:
        """Reference era implementation: one Python VM object at a time."""
        self._ensure_active_pool()
        active = self.vms_in(VmState.ACTIVE)
        era_failures = 0
        era_rejuvenations = 0

        # 1. split the batch over ACTIVE VMs and apply the load
        response_num = 0.0
        served = 0
        if active:
            counts = self.balancer.split_counts(
                n_requests, weights(self.balancer, active)
            )
            for vm, n_vm in zip(active, counts.tolist()):
                rt = vm.apply_load(n_vm, dt, self.config.mean_demand)
                response_num += rt * n_vm
                served += n_vm
                if vm.state is VmState.FAILED:
                    era_failures += 1

        # advance non-active VMs (rejuvenation progress)
        for vm in self.vms:
            if vm.state in (VmState.STANDBY, VmState.REJUVENATING):
                idle(vm, dt)

        # 2. monitor + predict + proactive rejuvenation (PCAM policy).
        # The swap is *paired*: REJUVENATE goes out together with an
        # ACTIVATE to a STANDBY VM.  Without a standby the swap is
        # postponed (taking a VM down with no replacement would cut
        # availability -- the exact thing PCAM exists to protect), unless
        # the VM is about to hard-fail within the next era anyway.
        mttf_values: list[float] = []
        at_risk: list[tuple[float, float, ReferenceVm]] = []
        monitored = self.vms_in(VmState.ACTIVE)
        # One prediction call for the whole ACTIVE pool; MTTF derives
        # from the RTTF already in hand (a second prediction per era
        # would double-append to trend-predictor histories).
        rttf_batch = predict_rows(self.predictor, monitored)
        for vm, rttf in zip(monitored, rttf_batch):
            rttf = float(rttf)
            mttf_values.append(vm.uptime_s + max(rttf, 0.0))
            urgency = rejuvenation_rule(self.discipline, vm, rttf)
            if urgency is not None:
                at_risk.append((urgency, rttf, vm))
        at_risk.sort(key=lambda triple: triple[0])
        n_standby = len(self.vms_in(VmState.STANDBY))
        rack_busy = (
            self._rack_rejuvenation_counts() if self.config.spread_k else None
        )
        for _, rttf, vm in at_risk:
            if rack_busy is not None and self._spread_defer(rack_busy, vm):
                continue
            if n_standby > 0:
                n_standby -= 1
            elif rttf >= dt:
                continue  # postpone: no replacement and not imminent
            vm.start_rejuvenation()
            if rack_busy is not None:
                rack_busy[vm.rack_id] = rack_busy.get(vm.rack_id, 0) + 1
            era_rejuvenations += 1

        # 3. reactive path: failed VMs go to rejuvenation too
        for vm in self.vms_in(VmState.FAILED):
            vm.start_rejuvenation()
            era_rejuvenations += 1

        # 4. backfill the ACTIVE pool from STANDBY (the ACTIVATE command)
        self._ensure_active_pool()

        self.total_rejuvenations += era_rejuvenations
        self.total_failures += era_failures

        mean_rt = response_num / served if served else 0.0
        last_rmttf = float(np.mean(mttf_values)) if mttf_values else 0.0
        return EraReport(
            region=self.region_name,
            time=now,
            last_rmttf=last_rmttf,
            response_time_s=mean_rt,
            n_active=len(self.vms_in(VmState.ACTIVE)),
            n_standby=len(self.vms_in(VmState.STANDBY)),
            n_rejuvenating=len(self.vms_in(VmState.REJUVENATING)),
            n_failed=len(self.vms_in(VmState.FAILED)),
            requests_served=served,
            rejuvenations_triggered=era_rejuvenations,
            failures=era_failures,
        )

    def stats(self) -> dict[str, float]:
        active = self.vms_in(VmState.ACTIVE)
        return {
            "n_vms": float(len(self.vms)),
            "n_active": float(len(active)),
            "n_standby": float(len(self.vms_in(VmState.STANDBY))),
            "n_rejuvenating": float(len(self.vms_in(VmState.REJUVENATING))),
            "n_failed": float(len(self.vms_in(VmState.FAILED))),
            "total_requests": float(
                sum(vm.total_requests for vm in self.vms)
            ),
            "total_rejuvenations": float(self.total_rejuvenations),
            "total_failures": float(self.total_failures),
            "mean_active_uptime_s": (
                float(np.mean([vm.uptime_s for vm in active]))
                if active
                else 0.0
            ),
            "mean_leak_mb": (
                float(np.mean([vm.leaked_mb for vm in active]))
                if active
                else 0.0
            ),
            "effective_capacity": self.total_capacity(),
            "healthy_capacity": self.healthy_capacity(),
        }
