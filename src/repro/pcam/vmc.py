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

A deployment's regions share one state table, each region's pool a
contiguous range of its rows, and :class:`RegionGroup` runs that era for
several regions in one pass over their rows; a controller's own
:meth:`~VirtualMachineController.process_era` and
:meth:`~VirtualMachineController.close_era` are the one-region case.
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
        RegionGroup([self]).top_up()

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
        (Algorithm 1: predict local RMTTF, actuate PCAM policies): the
        one-region case of :meth:`RegionGroup.process_era`.
        """
        return RegionGroup([self]).process_era([n_requests], dt, now)[0]

    def close_era(
        self,
        dt: float,
        now: float,
        served: int,
        response_time_s: float,
        failures: int,
    ) -> EraReport:
        """Close an era whose load is already on the table: the one-region
        case of :meth:`RegionGroup.close_era`."""
        return RegionGroup([self]).close_era(
            dt, now, [served], [response_time_s], [failures]
        )[0]

    def _swap(
        self,
        rttf: np.ndarray,
        uptime: np.ndarray,
        monitored: list[VirtualMachine],
        failed: list[VirtualMachine],
        n_standby: int,
        dt: float,
        offset: int,
        rejuvenate: list[int],
    ) -> int:
        """This region's REJUVENATE commands of one era; returns how many.

        ``rttf`` and ``uptime`` are those of the ``monitored`` ACTIVE VMs,
        ``failed`` the region's FAILED VMs, ``n_standby`` its STANDBY
        count.  Appends the swapped VMs' rows, shifted by ``offset`` into
        the caller's table, to ``rejuvenate``: at-risk VMs against
        STANDBYs (PCAM's policy) first, then every failed VM.
        """
        obs = self._obs
        at_risk_pos, urgency = self.discipline.at_risk(rttf, uptime)
        order = urgency.argsort(kind="stable")
        rack_busy = (
            self._rack_rejuvenation_counts() if self.config.spread_k else None
        )
        swapped = 0
        for p in at_risk_pos[order].tolist():
            vm = monitored[p]
            at_rttf = float(rttf[p])
            if rack_busy is not None and self._spread_defer(rack_busy, vm):
                continue
            if n_standby > 0:
                n_standby -= 1
            elif at_rttf >= dt:
                continue  # postpone: no replacement and not imminent
            rejuvenate.append(offset + vm.row)
            if rack_busy is not None:
                rack_busy[vm.rack_id] = rack_busy.get(vm.rack_id, 0) + 1
            swapped += 1
            if obs is not None:
                obs.instant(
                    f"rejuvenate {vm.name}",
                    kind="rejuvenation",
                    region=self.region_name,
                    reason="at_risk",
                    rttf_s=at_rttf,
                )
                obs.counter(
                    "rejuvenations_total", region=self.region_name
                ).inc()

        # the reactive path: failed VMs go to rejuvenation too
        for vm in failed:
            rejuvenate.append(offset + vm.row)
            swapped += 1
            if obs is not None:
                obs.instant(
                    f"rejuvenate {vm.name}",
                    kind="rejuvenation",
                    region=self.region_name,
                    reason="failed",
                )
                obs.counter(
                    "rejuvenations_total", region=self.region_name
                ).inc()
                obs.event("vm.failure", region=self.region_name, vm=vm.name)
                obs.counter(
                    "vm_failures_total", region=self.region_name
                ).inc()
        return swapped

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


class RegionGroup:
    """Consecutive regions of one deployment table, stepped as one.

    The regions' VMCs hold consecutive row ranges of one table, in list
    order (:meth:`join` builds it; a lone VMC is the one-region case on
    its own table).  An era runs each table kernel once over all their
    rows: the top-up, the load, the rejuvenation clocks, the feature
    rows, one prediction per distinct predictor object and the state
    counts.  Only what is per region by definition stays a loop over the
    regions: each balancer's split, each at-risk loop with its own
    STANDBY count, telemetry, and each report's sums in the order a lone
    region sums them, so every region's outcome is bit-identical to
    stepping it alone.  Rows outside the group are not touched: a region
    left out of a step keeps its state, rejuvenation clocks included.
    """

    def __init__(self, vmcs: list[VirtualMachineController]) -> None:
        if not vmcs:
            raise ValueError("a region group needs a region")
        first = vmcs[0].table
        self._base = base = first.base
        lo = end = first.offset
        for vmc in vmcs:
            if vmc.table.base is not base or vmc.table.offset != end:
                raise ValueError(
                    "a region group steps consecutive regions of one table"
                )
            end += len(vmc.table)
        self.vmcs = list(vmcs)
        #: the group's rows as one table (a view of the deployment's)
        if len(vmcs) == 1:
            self.table = first
        elif lo == 0 and end == len(base):
            self.table = base
        else:
            self.table = base.view(lo, end)
        sizes = [len(vmc.table) for vmc in vmcs]
        #: the region index of each row, and each region's first row
        #: followed by the end
        self.region_of = np.repeat(np.arange(len(vmcs)), sizes)
        self._code_key = self.region_of * 4
        self.bounds = np.array([0, *sizes]).cumsum()
        self.vms = (
            vmcs[0].vms if len(vmcs) == 1
            else [vm for vmc in vmcs for vm in vmc.vms]
        )

    @classmethod
    def join(cls, vmcs: list[VirtualMachineController]) -> RegionGroup:
        """One deployment table over ``vmcs``' pools, in list order
        (:meth:`VmStateTable.deployment`), and the group that steps them."""
        VmStateTable.deployment([vmc.table for vmc in vmcs])
        return cls(vmcs)

    def _check(self) -> None:
        """Refuse to step a region whose table was joined elsewhere since."""
        for vmc in self.vmcs:
            if vmc.table.base is not self._base:
                raise ValueError(
                    f"region {vmc.region_name!r} left the group's table"
                )

    def top_up(self) -> None:
        """Activate each region's STANDBYs until it meets its target."""
        self.table.activate_standby(
            self.region_of,
            np.array([vmc.target_active for vmc in self.vmcs]),
        )

    def process_era(
        self, n_requests: list[int], dt: float, now: float
    ) -> list[EraReport]:
        """Serve each region's request batch, then :meth:`close_era`.

        ``n_requests[k]`` is region ``k``'s batch.  One loop stays
        per-VM by necessity: the anomaly draws (each VM owns its RNG
        stream and consumes it in row order).  Everything else -- load
        accounting, response times, failure checks, feature extraction,
        threshold scans -- is one NumPy pass over the ACTIVE rows,
        bit-identical to walking scalar VM objects one at a time (pinned
        by ``tests/pcam/test_columnar_parity.py``).
        """
        if min(n_requests) < 0:
            raise ValueError("n_requests must be >= 0")
        if dt <= 0:
            raise ValueError("dt must be positive")
        vmcs = self.vmcs
        mean_demand = vmcs[0].config.mean_demand
        if any(vmc.config.mean_demand != mean_demand for vmc in vmcs):
            raise ValueError("the regions of a group disagree on mean_demand")
        self._check()
        table = self.table
        self.top_up()
        active = (table.state_code == CODE_ACTIVE).nonzero()[0]
        cuts = active.searchsorted(self.bounds).tolist()
        served = [0] * len(vmcs)
        response_time_s = [0.0] * len(vmcs)
        failures = [0] * len(vmcs)
        pressures = None
        if active.size:
            # split each region's batch over its ACTIVE VMs
            parts = []
            for k, vmc in enumerate(vmcs):
                rows = active[cuts[k]:cuts[k + 1]]
                if rows.size:
                    bal = vmc.balancer
                    parts.append(
                        bal.split_counts(
                            n_requests[k], bal.weights_of(table, rows)
                        )
                    )
            counts = parts[0] if len(parts) == 1 else np.concatenate(parts)
            # each VM consumes its own stream in row order, exactly like
            # a walk of one VM at a time
            vms = self.vms
            leaked, threads = draw_pool(
                [vms[r].injector for r in active.tolist()], counts.tolist()
            )
            rt, failed, pressures = table.era_load_update(
                active, counts, dt, mean_demand, leaked, threads
            )
            # what is still ACTIVE below is `active` minus the rows that
            # just failed, in the same order
            if failed.any():
                pressures = pressures.take(~failed)
            products = rt * counts
            for k in range(len(vmcs)):
                a, b = cuts[k], cuts[k + 1]
                if a < b:
                    # sequential cumsum matches a scalar running float sum
                    n = served[k] = int(counts[a:b].sum())
                    if n:
                        response_time_s[k] = (
                            float(products[a:b].cumsum()[-1]) / n
                        )
                    failures[k] = int(np.count_nonzero(failed[a:b]))
        return self._close(
            dt, now, served, response_time_s, failures, pressures
        )

    def close_era(
        self,
        dt: float,
        now: float,
        served: list[int],
        response_time_s: list[float],
        failures: list[int],
    ) -> list[EraReport]:
        """Close an era whose load is already on the table (Algorithm 1).

        The per-region control step every host shares: advance the
        rejuvenation clocks, monitor, predict RTTF, swap at-risk VMs
        against STANDBYs, rejuvenate the failed ones, backfill, report.
        How the load got there is the host's business: :meth:`process_era`
        applies a batch and ends here; the request-level
        :class:`~repro.core.des_loop.DesControlLoop` accumulates it one
        completion at a time and calls this at the boundary with each
        region's request count, mean response time and load-induced VM
        failures as it measured them.
        """
        self._check()
        return self._close(dt, now, served, response_time_s, failures, None)

    def _close(
        self,
        dt: float,
        now: float,
        served: list[int],
        response_time_s: list[float],
        failures: list[int],
        pressures: Pressures | None,
    ) -> list[EraReport]:
        """:meth:`close_era`; ``pressures`` is
        :meth:`VmStateTable.pressures_of` of the rows still ACTIVE, when
        :meth:`process_era` has it in hand."""
        table = self.table
        vmcs = self.vmcs
        vms = self.vms
        bounds = self.bounds

        # advance rejuvenation clocks (STANDBY rows need no bookkeeping)
        table.idle_tick(dt)

        # monitor + predict + proactive rejuvenation (PCAM policy); the
        # snapshot excludes VMs that failed under this era's load
        codes = table.state_code.copy()
        mon = (codes == CODE_ACTIVE).nonzero()[0]
        cuts = mon.searchsorted(bounds).tolist()
        monitored = [vms[r] for r in mon.tolist()]
        features = table.feature_matrix(mon, pressures)
        rttf = self._predict(features, monitored, mon, cuts)
        uptime = table.uptime_s[mon]
        mttf = uptime + np.maximum(rttf, 0.0)
        n_standby = np.bincount(
            self.region_of[codes == CODE_STANDBY], minlength=len(vmcs)
        ).tolist()
        failed = (codes == CODE_FAILED).nonzero()[0]
        failed_cuts = failed.searchsorted(bounds).tolist()
        failed = failed.tolist()

        # the REJUVENATE commands of every region, then the ACTIVATEs
        rejuvenate: list[int] = []
        swapped = []
        for k, vmc in enumerate(vmcs):
            a, b = cuts[k], cuts[k + 1]
            swapped.append(
                vmc._swap(
                    rttf[a:b],
                    uptime[a:b],
                    monitored[a:b],
                    [vms[r] for r in failed[failed_cuts[k]:failed_cuts[k + 1]]],
                    n_standby[k],
                    dt,
                    int(bounds[k]),
                    rejuvenate,
                )
            )
        if rejuvenate:
            table.start_rejuvenation(np.array(rejuvenate))
        self.top_up()

        counts = (
            np.bincount(
                self._code_key + table.state_code, minlength=4 * len(vmcs)
            )
            .reshape(len(vmcs), 4)
            .tolist()
        )
        reports = []
        for k, vmc in enumerate(vmcs):
            vmc.total_rejuvenations += swapped[k]
            vmc.total_failures += failures[k]
            region_mttf = mttf[cuts[k]:cuts[k + 1]]
            n_active, n_stby, n_rejuv, n_failed = counts[k]
            reports.append(
                EraReport(
                    region=vmc.region_name,
                    time=now,
                    last_rmttf=(
                        float(region_mttf.sum() / region_mttf.size)
                        if region_mttf.size
                        else 0.0
                    ),
                    response_time_s=response_time_s[k],
                    n_active=n_active,
                    n_standby=n_stby,
                    n_rejuvenating=n_rejuv,
                    n_failed=n_failed,
                    requests_served=served[k],
                    rejuvenations_triggered=swapped[k],
                    failures=failures[k],
                )
            )
        return reports

    def _predict(
        self,
        features: np.ndarray,
        monitored: list[VirtualMachine],
        mon: np.ndarray,
        cuts: list[int],
    ) -> np.ndarray:
        """The RTTF of the ``monitored`` rows ``mon``: one
        ``predict_rttf_rows`` call per distinct predictor object, over the
        rows of the regions it serves, in row order."""
        table = self.table
        predictors = [vmc.predictor for vmc in self.vmcs]
        first = predictors[0]
        if all(predictor is first for predictor in predictors):
            return np.asarray(
                first.predict_rttf_rows(features, monitored, table, mon),
                dtype=np.float64,
            )
        rttf = np.empty(mon.size, dtype=np.float64)
        for predictor in {id(p): p for p in predictors}.values():
            pos = np.concatenate(
                [
                    np.arange(cuts[k], cuts[k + 1])
                    for k, p in enumerate(predictors)
                    if p is predictor
                ]
            )
            rttf[pos] = predictor.predict_rttf_rows(
                features[pos],
                [monitored[p] for p in pos.tolist()],
                table,
                mon[pos],
            )
        return rttf


def process_eras(
    vmcs: list[VirtualMachineController],
    n_requests: list[int],
    dt: float,
    now: float,
) -> list[EraReport]:
    """:meth:`RegionGroup.process_era` over regions of one deployment
    table in row order, not necessarily consecutive: each run of
    consecutive ones is one group.  The regions between runs are not
    touched (serve leaves a dark region out this way)."""
    reports: list[EraReport] = []
    start = 0
    for k in range(1, len(vmcs) + 1):
        if k == len(vmcs) or (
            vmcs[k].table.offset
            != vmcs[k - 1].table.offset + len(vmcs[k - 1].table)
        ):
            reports += RegionGroup(vmcs[start:k]).process_era(
                n_requests[start:k], dt, now
            )
            start = k
    return reports
