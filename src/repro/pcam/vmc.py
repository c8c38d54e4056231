"""The Virtual Machine Controller (VMC).

One VMC manages one cloud region (Sec. III): it hosts the local load
balancer, monitors the system features of its VMs, maps the F2PM model onto
them to predict RTTF at runtime, and enforces proactive rejuvenation:

    "Whenever the estimated RTTF of an ACTIVE VM is less than a threshold
    (established by the user), VMC sends an ACTIVATE command to a VM in the
    STANDBY state and a REJUVENATE command to the about-to-fail VM."

The controller advances in *eras* (the control-loop period).  Each era it
(1) tops up the ACTIVE pool from STANDBY, (2) splits the era's request
batch over ACTIVE VMs, (3) applies the load (anomalies accumulate),
(4) samples features, predicts RTTF, and swaps out any VM whose predicted
RTTF dropped below the threshold, and (5) reports the region's lastRMTTF
(mean predicted MTTF over ACTIVE VMs) and mean response time for the
global control loop.  (4)-(5) are ``close_era``, which a host that applies
the load itself (the request-level DES loop) calls directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.pcam.balancer import LocalBalancer

if TYPE_CHECKING:
    from repro.ml.online.lifecycle import OnlineLifecycle
    from repro.obs.telemetry import Telemetry
from repro.pcam.monitor import MonitorRing, MonitorSample, PoolMonitors
from repro.pcam.predictor import RttfPredictor
from repro.pcam.rejuvenation import (
    NoRejuvenation,
    PeriodicRejuvenation,
    RejuvenationDiscipline,
    RttfThresholdRejuvenation,
)
from repro.pcam.state_table import (
    CODE_ACTIVE,
    CODE_FAILED,
    CODE_REJUVENATING,
    CODE_STANDBY,
    Pressures,
    VmStateTable,
)
from repro.pcam.vm import VirtualMachine, VmState
from repro.workload.anomalies import draw_pool


@dataclass(frozen=True, slots=True)
class VmcConfig:
    """VMC tuning knobs.

    Parameters
    ----------
    rttf_threshold_s:
        Proactive-rejuvenation trigger: swap a VM whose predicted RTTF
        falls below this.
    target_active:
        ACTIVE pool size the controller maintains (initial deployment
        size; autoscaling may change it at runtime).
    mean_demand:
        Average demand-units per request of the workload mix.
    monitor_history:
        Feature-monitor ring size per VM (>= 1).
    columnar:
        Inert compatibility field, read nowhere: the controller always
        keeps its pool in a :class:`~repro.pcam.state_table.VmStateTable`.
        Only ``True`` is accepted; the next benchmark PR drops the field
        together with its last caller.
    spread_k:
        Anti-affinity spread cap: never hold more than ``spread_k`` VMs
        of one rack in REJUVENATING concurrently on the *proactive* path
        (at-risk swaps are deferred to a later era instead).  The
        reactive path is exempt -- a VM that already failed serves
        nothing, so taking it down cannot reduce availability.  ``0``
        (the default) disables the cap, which keeps flat topologies
        bit-identical to the pre-topology scheduler.
    """

    rttf_threshold_s: float = 240.0
    target_active: int = 2
    mean_demand: float = 1.5
    monitor_history: int = 64
    # inert: benchmarks/e2e/sim_workloads.py:74 (frozen) still passes it
    columnar: bool = True
    spread_k: int = 0

    def __post_init__(self) -> None:
        # written so that NaN fails: a NaN threshold never triggers a
        # swap, and a NaN or infinite demand makes every service rate
        # NaN or 0
        if not self.rttf_threshold_s >= 0:
            raise ValueError("rttf_threshold_s must be >= 0")
        if self.target_active < 1:
            raise ValueError("target_active must be >= 1")
        if not 0 < self.mean_demand < math.inf:
            raise ValueError("mean_demand must be positive and finite")
        if self.monitor_history < 1:
            raise ValueError("monitor_history must be >= 1")
        if self.spread_k < 0:
            raise ValueError("spread_k must be >= 0")
        if not self.columnar:
            raise ValueError(
                "columnar=False was removed: the state table is the only "
                "VM-state store"
            )


@dataclass(slots=True)
class EraReport:
    """What a VMC reports to the leader after one era (Algorithm 1)."""

    region: str
    time: float
    last_rmttf: float
    response_time_s: float
    n_active: int
    n_standby: int
    n_rejuvenating: int
    n_failed: int
    requests_served: int
    rejuvenations_triggered: int
    failures: int
    per_vm_rttf: dict[str, float] = field(default_factory=dict)


class VirtualMachineController:
    """Per-region manager of VMs, balancer, monitors, and predictor.

    Parameters
    ----------
    region_name:
        Region label used in reports and traces.
    vms:
        The region's VM pool (all states).
    predictor:
        RTTF predictor (trained F2PM model or oracle).
    config:
        Tuning knobs.
    balancer:
        Intra-region balancer; defaults to capacity-weighted deterministic.
    discipline:
        When to proactively rejuvenate; defaults to PCAM's RTTF-threshold
        discipline at ``config.rttf_threshold_s``.  Pass
        :class:`~repro.pcam.rejuvenation.PeriodicRejuvenation` or
        :class:`~repro.pcam.rejuvenation.NoRejuvenation` for the
        literature baselines.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` facade recording
        a ``rejuvenation`` instant span per swap decision, per-region
        rejuvenation/failure counters, and ``vm.failure`` flight events.
    lifecycle:
        Optional :class:`~repro.ml.online.lifecycle.OnlineLifecycle`
        observer.  When set, the VMC feeds it each era's monitoring
        samples + predictions (``observe_era``) and every completed VM
        life (``observe_life_end``), closing the loop from live
        monitoring back into training.  ``None`` (the default) leaves
        the per-era control path untouched.
    """

    def __init__(
        self,
        region_name: str,
        vms: list[VirtualMachine],
        predictor: RttfPredictor,
        config: VmcConfig | None = None,
        balancer: LocalBalancer | None = None,
        discipline: RejuvenationDiscipline | None = None,
        telemetry: "Telemetry | None" = None,
        lifecycle: "OnlineLifecycle | None" = None,
    ) -> None:
        if not vms:
            raise ValueError(f"region {region_name!r}: empty VM pool")
        self.vms = list(vms)
        self._by_name = {vm.name: vm for vm in self.vms}
        if len(self._by_name) != len(self.vms):
            raise ValueError(f"region {region_name!r}: duplicate VM names")
        self.region_name = region_name
        self.predictor = predictor
        self.config = config or VmcConfig()
        self.balancer = balancer or LocalBalancer()
        self.discipline = discipline or RttfThresholdRejuvenation(
            self.config.rttf_threshold_s
        )
        # adopt the pool into the state table; `_rows` holds each VM's
        # table row, aligned with `self.vms` order (list position != table
        # row once VMs have been removed).
        self.table = VmStateTable(len(self.vms))
        self._rows = self.table.adopt_all(self.vms)
        # the monitor agent's database: one ring over the table's rows
        self._ring = MonitorRing(
            self.config.monitor_history, self.table.capacity
        )
        #: Read-only ``VM name -> monitor`` (``len``, ``latest``, ``window``).
        self.monitors = PoolMonitors(self._ring, self._by_name)
        self._target_active = self.config.target_active
        self.total_rejuvenations = 0
        self.total_failures = 0
        #: Proactive swaps postponed by the anti-affinity spread cap.
        self.spread_deferrals = 0
        self._obs = (
            telemetry if telemetry is not None and telemetry.enabled else None
        )
        self.lifecycle = lifecycle
        self._ensure_active_pool()

    # ------------------------------------------------------------------ #
    # pool management
    # ------------------------------------------------------------------ #

    def vms_in(self, state: VmState) -> list[VirtualMachine]:
        """All pool VMs currently in ``state`` (stable order)."""
        return [vm for vm in self.vms if vm.state is state]

    @property
    def target_active(self) -> int:
        """ACTIVE pool size the controller tries to maintain."""
        return self._target_active

    def set_target_active(self, n: int) -> None:
        """Autoscaling entry point: change the desired ACTIVE pool size.

        Shrinking rejuvenates the excess ACTIVE VMs (they return to
        STANDBY refreshed); growing activates STANDBY VMs immediately.
        """
        if n < 1:
            raise ValueError("target_active must be >= 1")
        self._target_active = n
        active = self._active_rows()
        excess = len(active) - n
        if excess > 0:
            # Retire the most-degraded VMs first; the stable sort breaks
            # leak ties in pool order.
            worst_first = np.argsort(
                -self.table.leaked_mb[active], kind="stable"
            )
            self.table.start_rejuvenation(active[worst_first[:excess]])
        self._ensure_active_pool()

    def _ensure_active_pool(self) -> None:
        """Activate STANDBYs until the ACTIVE pool meets the target."""
        self.table.activate_standby(self._rows, self._target_active)

    def total_capacity(self) -> float:
        """Sum of effective capacities of ACTIVE VMs (demand-units/s)."""
        rows = self._active_rows()
        if rows.size == 0:
            return 0.0
        # cumsum is sequential accumulation: bit-identical to a running
        # Python sum over the VMs (arr.sum() is pairwise)
        return float(self.table.effective_capacity_of(rows).cumsum()[-1])

    def healthy_capacity(self) -> float:
        """Nameplate capacity of the ACTIVE pool (no degradation)."""
        rows = self._active_rows()
        if rows.size == 0:
            return 0.0
        return float(self.table.cpu_power[rows].cumsum()[-1])

    def _active_rows(self) -> np.ndarray:
        """Table rows of ACTIVE pool VMs, in pool order."""
        return self._rows[
            self.table.state_code[self._rows] == CODE_ACTIVE
        ]

    def _rack_rejuvenation_counts(self) -> dict[int, int]:
        """REJUVENATING VMs per rack id (spread-cap bookkeeping).

        Only called when ``config.spread_k > 0``.
        """
        table = self.table
        rejuvenating = self._rows[
            table.state_code[self._rows] == CODE_REJUVENATING
        ]
        racks, counts = np.unique(
            table.rack_id[rejuvenating], return_counts=True
        )
        return dict(zip(racks.tolist(), counts.tolist()))

    def _spread_defer(
        self, rack_busy: dict[int, int], vm: VirtualMachine
    ) -> bool:
        """True when the anti-affinity cap postpones this proactive swap."""
        if rack_busy.get(vm.rack_id, 0) < self.config.spread_k:
            return False
        self.spread_deferrals += 1
        if self._obs is not None:
            self._obs.counter(
                "fd_antiaffinity_deferrals_total", region=self.region_name
            ).inc()
        return True

    # ------------------------------------------------------------------ #
    # era processing (Monitor + local part of Analyze)
    # ------------------------------------------------------------------ #

    def process_era(self, n_requests: int, dt: float, now: float) -> EraReport:
        """Serve one era's request batch and run the PCAM policies.

        Returns the :class:`EraReport` the slave VMC sends to the leader
        (Algorithm 1: predict local RMTTF, actuate PCAM policies).

        The era is array-at-a-time over the state table.  One loop stays
        per-VM by necessity: the anomaly draws (each VM owns its RNG
        stream and must consume it in pool order).  Everything else --
        load accounting, response times, failure checks, feature
        extraction, the monitor-ring write, threshold scans -- is one
        NumPy pass over the ACTIVE rows, bit-identical to walking plain
        ``VirtualMachine`` objects one at a time (pinned by
        ``tests/pcam/test_columnar_parity.py``).
        """
        if n_requests < 0:
            raise ValueError("n_requests must be >= 0")
        if dt <= 0:
            raise ValueError("dt must be positive")
        table = self.table
        rows = self._rows
        self._ensure_active_pool()
        active_pos = (table.state_code[rows] == CODE_ACTIVE).nonzero()[0]
        era_failures = 0
        pressures = None

        # 1. split the batch over ACTIVE VMs and apply the load
        response_num = 0.0
        served = 0
        if active_pos.size:
            active_rows = rows[active_pos]
            active_views = [self.vms[p] for p in active_pos.tolist()]
            counts = self._split_counts(n_requests, active_rows, active_views)
            # each VM consumes its own stream in pool order, exactly like
            # a scalar apply_load walk
            leaked, threads = draw_pool(
                [vm.injector for vm in active_views], counts.tolist()
            )
            rt, failed, pressures = table.era_load_update(
                active_rows, counts, dt, self.config.mean_demand,
                leaked, threads,
            )
            # what is still ACTIVE below is `active_rows` minus the rows
            # that just failed, in the same order
            if failed.any():
                pressures = pressures.take(~failed)
            # sequential cumsum matches a scalar running float sum
            products = rt * counts
            if products.size:
                response_num = float(products.cumsum()[-1])
            served = int(counts.sum())
            era_failures = int(np.count_nonzero(failed))

        mean_rt = response_num / served if served else 0.0
        return self.close_era(
            dt, now, served, mean_rt, era_failures, pressures
        )

    def close_era(
        self,
        dt: float,
        now: float,
        served: int,
        response_time_s: float,
        failures: int,
        pressures: Pressures | None = None,
    ) -> EraReport:
        """Close an era whose load is already on the table (Algorithm 1).

        The per-region control step every host shares: advance the
        rejuvenation clocks, monitor, predict RTTF, swap at-risk VMs
        against STANDBYs, rejuvenate the failed ones, backfill, report.
        How the load got there is the host's business: :meth:`process_era`
        applies a batch and ends here; the request-level
        :class:`~repro.core.des_loop.DesControlLoop` accumulates it one
        completion at a time and calls this at the boundary with the
        era's request count, mean response time and load-induced VM
        failures as it measured them.  ``pressures`` is
        :meth:`VmStateTable.pressures_of` of the rows still ACTIVE, when
        the host has it in hand.
        """
        table = self.table
        rows = self._rows
        era_rejuvenations = 0

        # advance rejuvenation clocks (STANDBY rows need no bookkeeping)
        table.idle_tick(rows, dt)

        # 2. monitor + predict + proactive rejuvenation (PCAM policy);
        # the snapshot excludes VMs that failed under this era's load
        codes = table.state_code[rows]
        mon_pos = (codes == CODE_ACTIVE).nonzero()[0]
        mon_rows = rows[mon_pos]
        monitored = [self.vms[p] for p in mon_pos.tolist()]
        features = table.feature_matrix(mon_rows, pressures)
        self._ring.record(mon_rows, now, features)
        rttf_arr = np.asarray(
            self.predictor.predict_rttf_rows(features, monitored),
            dtype=np.float64,
        )
        per_vm_rttf = dict(
            zip((vm.name for vm in monitored), rttf_arr.tolist())
        )
        mttf = table.uptime_s[mon_rows] + np.maximum(rttf_arr, 0.0)
        if self.lifecycle is not None:
            samples = [
                MonitorSample(time=float(now), features=row)
                for row in features
            ]
            self.lifecycle.observe_era(
                self.region_name, now, monitored, samples, rttf_arr
            )
        at_risk_pos, urgency = self._at_risk(
            monitored, mon_rows, rttf_arr, dt
        )
        order = urgency.argsort(kind="stable")
        n_standby = int(np.count_nonzero(codes == CODE_STANDBY))
        rack_busy = (
            self._rack_rejuvenation_counts() if self.config.spread_k else None
        )
        for p in at_risk_pos[order].tolist():
            vm = monitored[p]
            rttf = float(rttf_arr[p])
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
            if self.lifecycle is not None:
                self.lifecycle.observe_life_end(
                    self.region_name, vm.name, now, "rejuvenation"
                )
            if self._obs is not None:
                self._obs.instant(
                    f"rejuvenate {vm.name}",
                    kind="rejuvenation",
                    region=self.region_name,
                    reason="at_risk",
                    rttf_s=rttf,
                )
                self._obs.counter(
                    "rejuvenations_total", region=self.region_name
                ).inc()

        # 3. reactive path: failed VMs go to rejuvenation too
        for p in (codes == CODE_FAILED).nonzero()[0].tolist():
            vm = self.vms[p]
            vm.start_rejuvenation()
            era_rejuvenations += 1
            if self.lifecycle is not None:
                self.lifecycle.observe_life_end(
                    self.region_name, vm.name, now, "failure"
                )
            if self._obs is not None:
                self._obs.instant(
                    f"rejuvenate {vm.name}",
                    kind="rejuvenation",
                    region=self.region_name,
                    reason="failed",
                )
                self._obs.counter(
                    "rejuvenations_total", region=self.region_name
                ).inc()
                self._obs.event(
                    "vm.failure", region=self.region_name, vm=vm.name
                )
                self._obs.counter(
                    "vm_failures_total", region=self.region_name
                ).inc()

        # 4. backfill the ACTIVE pool from STANDBY (the ACTIVATE command)
        self._ensure_active_pool()

        self.total_rejuvenations += era_rejuvenations
        self.total_failures += failures

        last_rmttf = float(mttf.sum() / mttf.size) if mttf.size else 0.0
        n_active, n_stby, n_rejuv, n_failed = table.counts_by_state(rows)
        return EraReport(
            region=self.region_name,
            time=now,
            last_rmttf=last_rmttf,
            response_time_s=response_time_s,
            n_active=n_active,
            n_standby=n_stby,
            n_rejuvenating=n_rejuv,
            n_failed=n_failed,
            requests_served=served,
            rejuvenations_triggered=era_rejuvenations,
            failures=failures,
            per_vm_rttf=per_vm_rttf,
        )

    def _split_counts(
        self,
        n_requests: int,
        active_rows: np.ndarray,
        active_views: list[VirtualMachine],
    ) -> np.ndarray:
        """Per-VM request counts in pool order."""
        bal = self.balancer
        if type(bal) is LocalBalancer:
            if bal.discipline == "uniform":
                w = np.ones(len(active_rows))
            else:
                w = self.table.effective_capacity_of(active_rows)
            return np.asarray(bal.split_counts(n_requests, w))
        # unknown balancer subclass: go through the object API
        assignment = bal.split(n_requests, active_views)
        return np.array(
            [assignment.get(vm.name, 0) for vm in active_views],
            dtype=np.int64,
        )

    def _at_risk(
        self,
        monitored: list[VirtualMachine],
        mon_rows: np.ndarray,
        rttf_arr: np.ndarray,
        dt: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """At-risk candidates (positions into ``monitored``) + urgencies.

        Vectorised for the built-in disciplines; an unknown subclass is
        consulted per VM, in pool order.
        """
        disc = self.discipline
        if type(disc) is RttfThresholdRejuvenation:
            pos = (rttf_arr < disc.threshold_s).nonzero()[0]
            return pos, rttf_arr[pos]
        if type(disc) is PeriodicRejuvenation:
            uptime = self.table.uptime_s[mon_rows]
            pos = (uptime >= disc.period_s).nonzero()[0]
            return pos, -uptime[pos]
        if type(disc) is NoRejuvenation:
            return np.empty(0, dtype=np.intp), np.empty(0)
        flags = [
            disc.should_rejuvenate(vm, float(rttf), dt)
            for vm, rttf in zip(monitored, rttf_arr.tolist())
        ]
        pos = np.asarray(flags).nonzero()[0]
        urgency = np.array(
            [
                disc.urgency(monitored[p], float(rttf_arr[p]))
                for p in pos.tolist()
            ],
            dtype=np.float64,
        )
        return pos, urgency

    def compact_table(self) -> None:
        """Repack the state table after heavy churn.

        Live views are updated in place; the controller's row map is
        remapped to the new rows.
        """
        mapping = self.table.compact()
        self._rows = np.array(
            [mapping[int(r)] for r in self._rows], dtype=np.intp
        )
        self._ring.remap(mapping)

    # ------------------------------------------------------------------ #
    # pool growth (used by ACM autoscaling, Sec. V ADDVMS)
    # ------------------------------------------------------------------ #

    def add_vm(self, vm: VirtualMachine) -> None:
        """Add a freshly provisioned VM (in STANDBY) to the pool."""
        if vm.name in self._by_name:
            raise ValueError(f"duplicate VM name {vm.name!r}")
        if vm.state is not VmState.STANDBY:
            raise ValueError("new VMs must join in STANDBY state")
        # adopt first: it refuses a VM another table still owns, and the
        # pool must be untouched when it does.  (May reuse a released
        # slot; adopt() overwrites every column.)
        row = self.table.adopt(vm)
        self.vms.append(vm)
        self._by_name[vm.name] = vm
        self._rows = np.append(self._rows, row)
        if self.table.capacity > self._ring.capacity:
            self._ring.grow(self.table.capacity)

    def stats(self) -> dict[str, float]:
        """Aggregate pool statistics for reporting and dashboards."""
        table = self.table
        n_active, n_standby, n_rejuvenating, n_failed = (
            table.counts_by_state(self._rows)
        )
        active = self._active_rows()
        return {
            "n_vms": float(len(self.vms)),
            "n_active": float(n_active),
            "n_standby": float(n_standby),
            "n_rejuvenating": float(n_rejuvenating),
            "n_failed": float(n_failed),
            "total_requests": float(table.total_requests[self._rows].sum()),
            "total_rejuvenations": float(self.total_rejuvenations),
            "total_failures": float(self.total_failures),
            "mean_active_uptime_s": (
                float(table.uptime_s[active].sum() / n_active)
                if n_active
                else 0.0
            ),
            "mean_leak_mb": (
                float(table.leaked_mb[active].sum() / n_active)
                if n_active
                else 0.0
            ),
            "effective_capacity": self.total_capacity(),
            "healthy_capacity": self.healthy_capacity(),
        }

    def remove_vm(self, name: str) -> VirtualMachine:
        """Remove a VM from the pool (must not be ACTIVE)."""
        for i, vm in enumerate(self.vms):
            if vm.name == name:
                if vm.state is VmState.ACTIVE:
                    raise RuntimeError(
                        f"cannot remove ACTIVE VM {name!r}; deactivate first"
                    )
                del self.vms[i]
                del self._by_name[name]
                # a newcomer reusing the row must start with no history
                self._ring.clear(vm.row)
                # scrubs + frees the row and hands the VM back its
                # scalar attributes, so the caller keeps a usable
                # (detached) VirtualMachine
                self.table.release(vm)  # type: ignore[arg-type]
                self._rows = np.delete(self._rows, i)
                # Drop any per-VM predictor state (trend windows, stale
                # caches): a future same-named VM must start clean.
                self.predictor.evict(name)
                if self.lifecycle is not None:
                    self.lifecycle.discard_vm(self.region_name, name)
                return vm
        raise KeyError(f"no VM named {name!r} in region {self.region_name!r}")
