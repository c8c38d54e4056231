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
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.pcam.balancer import LocalBalancer

if TYPE_CHECKING:
    from repro.obs.telemetry import Telemetry
from repro.pcam.predictor import RttfPredictor
from repro.pcam.rejuvenation import (
    RejuvenationDiscipline,
    RttfThresholdRejuvenation,
)
from repro.pcam.state_table import Pressures, VmStateTable
from repro.pcam.vm import (
    CODE_ACTIVE,
    CODE_FAILED,
    CODE_REJUVENATING,
    CODE_STANDBY,
    VirtualMachine,
    VmState,
)
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


class VirtualMachineController:
    """Per-region manager of VMs, balancer, monitoring, and predictor.

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
    ) -> None:
        if not vms:
            raise ValueError(f"region {region_name!r}: empty VM pool")
        self.vms = list(vms)
        if len({vm.name for vm in self.vms}) != len(self.vms):
            raise ValueError(f"region {region_name!r}: duplicate VM names")
        self.region_name = region_name
        self.predictor = predictor
        self.config = config or VmcConfig()
        self.balancer = balancer or LocalBalancer()
        self.discipline = discipline or RttfThresholdRejuvenation(
            self.config.rttf_threshold_s
        )
        # the table adopts the pool in order: `self.vms[i]` is row `i`
        self.table = VmStateTable(self.vms)
        self._target_active = self.config.target_active
        self.total_rejuvenations = 0
        self.total_failures = 0
        #: Proactive swaps postponed by the anti-affinity spread cap.
        self.spread_deferrals = 0
        self._obs = (
            telemetry if telemetry is not None and telemetry.enabled else None
        )
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
        self.table.activate_standby(self._target_active)

    def healthy_capacity(self) -> float:
        """Nameplate capacity of the ACTIVE pool (no degradation)."""
        rows = self._active_rows()
        if rows.size == 0:
            return 0.0
        return float(self.table.cpu_power[rows].cumsum()[-1])

    def _active_rows(self) -> np.ndarray:
        """Table rows of ACTIVE pool VMs, in pool order."""
        return (self.table.state_code == CODE_ACTIVE).nonzero()[0]

    def _rack_rejuvenation_counts(self) -> dict[int, int]:
        """REJUVENATING VMs per rack id (spread-cap bookkeeping).

        Only called when ``config.spread_k > 0``.
        """
        table = self.table
        racks, counts = np.unique(
            table.rack_id[table.state_code == CODE_REJUVENATING],
            return_counts=True,
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
        extraction, threshold scans -- is one NumPy pass over the ACTIVE
        rows, bit-identical to walking scalar VM objects one at a time
        (pinned by ``tests/pcam/test_columnar_parity.py``).
        """
        if n_requests < 0:
            raise ValueError("n_requests must be >= 0")
        if dt <= 0:
            raise ValueError("dt must be positive")
        table = self.table
        self._ensure_active_pool()
        active_rows = self._active_rows()
        era_failures = 0
        pressures = None

        # 1. split the batch over ACTIVE VMs and apply the load
        response_num = 0.0
        served = 0
        if active_rows.size:
            bal = self.balancer
            counts = bal.split_counts(
                n_requests, bal.weights_of(table, active_rows)
            )
            # each VM consumes its own stream in pool order, exactly like
            # a walk of one VM at a time
            leaked, threads = draw_pool(
                [self.vms[r].injector for r in active_rows.tolist()],
                counts.tolist(),
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
        era_rejuvenations = 0

        # advance rejuvenation clocks (STANDBY rows need no bookkeeping)
        table.idle_tick(dt)

        # 2. monitor + predict + proactive rejuvenation (PCAM policy);
        # the snapshot excludes VMs that failed under this era's load
        codes = table.state_code.copy()
        mon_rows = (codes == CODE_ACTIVE).nonzero()[0]
        monitored = [self.vms[r] for r in mon_rows.tolist()]
        features = table.feature_matrix(mon_rows, pressures)
        rttf_arr = np.asarray(
            self.predictor.predict_rttf_rows(features, monitored),
            dtype=np.float64,
        )
        uptime = table.uptime_s[mon_rows]
        mttf = uptime + np.maximum(rttf_arr, 0.0)
        at_risk_pos, urgency = self.discipline.at_risk(rttf_arr, uptime)
        order = urgency.argsort(kind="stable")
        n_standby = int(np.count_nonzero(codes == CODE_STANDBY))
        rack_busy = (
            self._rack_rejuvenation_counts() if self.config.spread_k else None
        )
        rejuvenate: list[int] = []
        for p in at_risk_pos[order].tolist():
            vm = monitored[p]
            rttf = float(rttf_arr[p])
            if rack_busy is not None and self._spread_defer(rack_busy, vm):
                continue
            if n_standby > 0:
                n_standby -= 1
            elif rttf >= dt:
                continue  # postpone: no replacement and not imminent
            rejuvenate.append(vm.row)
            if rack_busy is not None:
                rack_busy[vm.rack_id] = rack_busy.get(vm.rack_id, 0) + 1
            era_rejuvenations += 1
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
        for r in (codes == CODE_FAILED).nonzero()[0].tolist():
            vm = self.vms[r]
            rejuvenate.append(r)
            era_rejuvenations += 1
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

        # the REJUVENATE commands of both paths
        if rejuvenate:
            table.start_rejuvenation(np.array(rejuvenate))

        # 4. backfill the ACTIVE pool from STANDBY (the ACTIVATE command)
        self._ensure_active_pool()

        self.total_rejuvenations += era_rejuvenations
        self.total_failures += failures

        last_rmttf = float(mttf.sum() / mttf.size) if mttf.size else 0.0
        n_active, n_stby, n_rejuv, n_failed = table.counts_by_state()
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
        )

    def stats(self) -> dict[str, float]:
        """Aggregate pool statistics for reporting and dashboards."""
        table = self.table
        n_active, n_standby, n_rejuvenating, n_failed = (
            table.counts_by_state()
        )
        active = self._active_rows()
        return {
            "n_vms": float(len(self.vms)),
            "n_active": float(n_active),
            "n_standby": float(n_standby),
            "n_rejuvenating": float(n_rejuvenating),
            "n_failed": float(n_failed),
            "total_requests": float(table.total_requests.sum()),
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
            # cumsum is sequential accumulation: bit-identical to a
            # running Python sum over the VMs (arr.sum() is pairwise)
            "effective_capacity": (
                float(table.effective_capacity_of(active).cumsum()[-1])
                if active.size
                else 0.0
            ),
            "healthy_capacity": self.healthy_capacity(),
        }
