"""Request-level multi-region control loop.

The fluid :class:`~repro.core.control_loop.AcmControlLoop` batches each
era's requests; this loop runs the *same* MAPE architecture with
per-request discrete events, the way the paper's actual testbed operated:

* each emulated browser belongs to an arrival region and, per click, is
  routed to a *processing* region by the current forward-plan row (remote
  processing pays the overlay round trip);
* requests queue at individual VMs (join-shortest-queue within a region)
  and inject anomalies on completion;
* at every era boundary the per-VM RTTF is predicted, at-risk VMs are
  swapped against standbys (the PCAM pairing rule), the leader folds the
  region reports through Eq. (1) and runs ``POLICY()``.

It is intentionally oracle-predictor-only and lighter than the fluid loop
(no autoscaling, no partitions): its job is to confirm that the policy
conclusions do not depend on the fluid approximation.  The DES-FIG3 bench
runs both loops on the same deployment and compares verdicts.  With no
report loss and no election, its leader step is the bare ``update_all``
-> ``compute_fractions`` -> ``build_forward_plan``, not
``AcmControlLoop.plan``; what it shares with the serve runtime is the
installed plan, a ``PlanTable``.

Hot-path layout
---------------
This loop is the throughput ceiling of the whole reproduction (see
``benchmarks/bench_hotpath.py``), so the per-request machinery is
index-based and closure-free, while remaining *bit-identical* to the
per-request reference semantics (pinned by the golden-trace test):

* browser start-up think times are drawn in one vectorised block per
  region (``Generator.exponential(scale, size=n)`` consumes the stream
  exactly like ``n`` scalar draws);
* forward-plan routing is one uniform draw through the installed
  :class:`~repro.core.forward_plan.PlanTable` (per-row CDFs built once
  at plan install) -- the same stream consumption and result as
  ``Generator.choice(n, p=row/row.sum())``, without its per-call
  validation and CDF construction;
* join-shortest-queue is one Python scan, at every pool size, over a
  per-region ``in_flight`` ``list[int]`` indexed by VM slot (loop-private
  and only ever read one cell at a time, so a list, not an array), and
  breaks ties with ``Generator.integers(0, k)`` -- the draw
  ``Generator.choice(candidates)`` performs internally;
* request completion and next-click events go through the engine's
  fire-and-forget, argument-binding path
  (:meth:`repro.sim.engine.Simulator.schedule_pooled`): one heap tuple
  each, instead of two lambda closures and two ``Event`` records per
  click.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.forward_plan import PlanTable, build_forward_plan
from repro.core.policy import Policy, compute_fractions
from repro.core.rmttf import RmttfAggregator
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.overlay.network import OverlayNetwork
from repro.overlay.routing import NoRouteError, Router
from repro.pcam.predictor import RttfPredictor
from repro.pcam.state_table import (
    CODE_ACTIVE,
    CODE_FAILED,
    CODE_STANDBY,
    VmStateTable,
)
from repro.pcam.vm import VirtualMachine, VmState
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.tracing import TraceRecorder
from repro.workload.browsers import BrowserPopulation

#: Timeout-and-retry penalty absorbed by a forwarded request when the
#: overlay is partitioned (no live path between the two controllers).
FORWARD_FALLBACK_PENALTY_S = 0.5


@dataclass
class _RegionState:
    """Mutable per-region bookkeeping of the DES loop."""

    name: str
    vms: list[VirtualMachine]
    population: BrowserPopulation
    target_active: int
    #: Outstanding requests per VM, indexed by slot (position in ``vms``).
    in_flight: list[int]
    #: Life (incarnation) number per slot, incremented every time the VM
    #: is sent to rejuvenation.  A completion whose request was issued in
    #: a previous life must not mutate the fresh VM: without this gate a
    #: long-queued request could dump its (rejuvenation-spanning) response
    #: time into a just-reactivated VM and instantly SLA-fail it.
    life: list[int]
    #: The pool's VM state, adopted in pool order (row index == slot).
    table: VmStateTable
    #: Slots of ACTIVE VMs in ``vms`` order; rebuilt at era boundaries and
    #: maintained incrementally on mid-era failures.
    active_slots: list[int] = field(default_factory=list)
    era_completed: int = 0
    era_response_sum: float = 0.0
    #: Active VM count at the start of the current era -- the divisor for
    #: the per-VM request rate (VMs that fail mid-era still served it).
    era_active_start: int = 0

    def active(self) -> list[VirtualMachine]:
        return [vm for vm in self.vms if vm.state is VmState.ACTIVE]

    def rebuild_active_slots(self) -> None:
        self.active_slots = np.flatnonzero(
            self.table.state_code == CODE_ACTIVE
        ).tolist()


class DesControlLoop:
    """Per-request MAPE loop over multiple heterogeneous regions.

    Parameters
    ----------
    regions:
        name -> (vms, population, target_active).  VM pools should start
        in STANDBY; the loop activates the targets.  Each pool is adopted
        into a :class:`~repro.pcam.state_table.VmStateTable` (row index ==
        slot): the per-request path reads and writes its cells, the
        era-boundary analytics are array passes, and the VM objects stay
        valid views.
    policy:
        The ``POLICY()`` of Algorithm 2.
    predictor:
        RTTF predictor (oracle recommended; trained models work too).
    rngs:
        Root registry (streams: per-region ``des/<region>``).
    era_s, beta:
        Control period and the Eq. (1) weight.
    rttf_threshold_s:
        Proactive-swap threshold.
    overlay:
        Optional controller overlay; remote forwarding pays its RTT.
    mean_demand:
        Demand-units per request.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` facade.  Disabled
        (the default) it is a strict no-op and the loop stays bit-identical
        to an un-instrumented one.
    clock:
        Optional :class:`~repro.sim.clock.Clock` to drive the loop.  By
        default the loop builds its own simulator (virtual time, the
        behaviour every golden trace pins); passing a clock lets callers
        share one time source across components or substitute a
        wall-clock implementation.
    """

    def __init__(
        self,
        regions: dict[str, tuple[list[VirtualMachine], BrowserPopulation, int]],
        policy: Policy,
        predictor: RttfPredictor,
        rngs: RngRegistry,
        era_s: float = 30.0,
        beta: float = 0.5,
        rttf_threshold_s: float = 240.0,
        overlay: OverlayNetwork | None = None,
        mean_demand: float = 1.5,
        telemetry: Telemetry | None = None,
        clock: "Simulator | None" = None,
    ) -> None:
        if not regions:
            raise ValueError("need at least one region")
        if era_s <= 0:
            raise ValueError("era_s must be positive")
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._obs_on = self._tel.enabled
        self.sim = clock if clock is not None else Simulator(telemetry=telemetry)
        self.policy = policy
        self.predictor = predictor
        self.era_s = float(era_s)
        self.rttf_threshold_s = float(rttf_threshold_s)
        self.mean_demand = float(mean_demand)
        self.region_names = sorted(regions)
        self.aggregator = RmttfAggregator(beta)
        self.traces = TraceRecorder()
        self.fractions = policy.initial_fractions(len(self.region_names))
        self._states: dict[str, _RegionState] = {}
        self._rngs = {
            name: rngs.child(name).stream("des") for name in self.region_names
        }
        for name in self.region_names:
            vms, population, target = regions[name]
            if target < 1 or target > len(vms):
                raise ValueError(f"{name}: bad target_active {target}")
            table = VmStateTable(len(vms))
            rows = table.adopt_all(vms)
            # adoption in pool order makes row index == slot index,
            # which the per-request path relies on
            assert rows.size == 0 or int(rows[-1]) == len(vms) - 1
            state = _RegionState(
                name=name,
                vms=vms,
                population=population,
                target_active=target,
                in_flight=[0] * len(vms),
                life=[0] * len(vms),
                table=table,
            )
            self._states[name] = state
            self._ensure_active(state)
            state.rebuild_active_slots()
            state.era_active_start = len(state.active_slots)
        # index-aligned views of the per-name maps (hot-path access)
        self._state_by_idx = [self._states[r] for r in self.region_names]
        self._rng_by_idx = [self._rngs[r] for r in self.region_names]
        # telemetry handles are pre-fetched per region; the per-request
        # path pays one is-None check when telemetry is off
        self._obs_resp = (
            [
                self._tel.histogram("request_response_time_s", region=r)
                for r in self.region_names
            ]
            if self._obs_on
            else None
        )
        self.overlay = overlay
        self._router = Router(overlay) if overlay is not None else None
        self._install_plan()
        self.era_index = 0
        self.total_rejuvenations = 0
        self.total_failures = 0
        self.total_forward_fallbacks = 0
        self._started = False

    # ------------------------------------------------------------------ #
    # request-level machinery
    # ------------------------------------------------------------------ #

    def _arrival_fractions(self) -> np.ndarray:
        counts = np.array(
            [self._states[r].population.n_clients for r in self.region_names],
            dtype=float,
        )
        return counts / counts.sum()

    def _ensure_active(self, state: _RegionState) -> None:
        state.table.activate_standby(
            np.arange(len(state.vms)), state.target_active
        )

    def _install_plan(self) -> None:
        """Execute: install the forward plan realising ``self.fractions``
        (routing reads the table's CDF snapshot, never a half-built plan)."""
        self._plan = PlanTable(
            build_forward_plan(
                self.region_names,
                self._arrival_fractions(),
                self.fractions,
            ).matrix
        )

    def _forward_latency_s(self, src: str, dst: str) -> float:
        if src == dst or self._router is None:
            return 0.0
        try:
            return 2.0 * self._router.latency(src, dst) / 1000.0
        except NoRouteError:
            # Overlay partition: the request absorbs a timeout-and-retry
            # penalty.  Leave a trace so partitions are observable rather
            # than silently folded into the response time.
            self.total_forward_fallbacks += 1
            self.traces.record(
                f"forward_fallback/{src}", self.sim.now, 1.0
            )
            return FORWARD_FALLBACK_PENALTY_S

    def _start_browsers(self) -> None:
        schedule = self.sim.schedule_pooled
        for i, name in enumerate(self.region_names):
            state = self._state_by_idx[i]
            n = state.population.n_clients
            if n == 0:
                continue
            # one vectorised block per region: consumes the stream exactly
            # like n sequential scalar exponential draws
            delays = self._rng_by_idx[i].exponential(
                state.population.think_time_s, size=n
            )
            args = (i,)
            for delay in delays.tolist():
                schedule(delay, self._issue, args)

    def _issue(self, i: int) -> None:
        rng = self._rng_by_idx[i]
        j = self._plan.route(i, rng.random())
        state = self._state_by_idx[j]
        active = state.active_slots
        if not active:
            # regional outage: retry after thinking
            self._schedule_next(i)
            return
        # join-shortest-queue over the slot-indexed in-flight counts;
        # tie-break with the same integers draw Generator.choice performs
        in_flight = state.in_flight
        best = in_flight[active[0]]
        candidates = [active[0]]
        for slot in active[1:]:
            load = in_flight[slot]
            if load < best:
                best = load
                candidates = [slot]
            elif load == best:
                candidates.append(slot)
        slot = candidates[int(rng.integers(0, len(candidates)))]
        capacity = state.table.capacity_at(slot)
        share = in_flight[slot] = in_flight[slot] + 1
        t_start = self.sim.now
        extra = (
            0.0
            if i == j
            else self._forward_latency_s(
                self.region_names[i], self.region_names[j]
            )
        )
        mu = capacity / self.mean_demand / share
        service = float(rng.exponential(1.0 / mu)) if mu > 0 else 1.0
        self.sim.schedule_pooled(
            service,
            self._complete,
            (i, j, slot, state.life[slot], t_start, extra),
        )

    def _complete(
        self,
        i: int,
        j: int,
        slot: int,
        life: int,
        t_start: float,
        extra: float,
    ) -> None:
        state = self._state_by_idx[j]
        state.in_flight[slot] -= 1
        rt = (self.sim.now - t_start) + extra
        state.era_completed += 1
        state.era_response_sum += rt
        if self._obs_resp is not None:
            self._obs_resp[j].observe(rt)
        # the life gate drops completions issued to a previous incarnation
        # of this slot (queued before a rejuvenation, finishing after the
        # reactivation) -- see _RegionState.life
        table = state.table
        if table.state_code[slot] == CODE_ACTIVE and state.life[slot] == life:
            vm = state.vms[slot]
            leaked_mb, stuck_threads = vm.injector.draw(1)
            table.leaked_mb[slot] += leaked_mb
            table.stuck_threads[slot] += stuck_threads
            table.total_requests[slot] += 1
            table.last_response_time_s[slot] = rt
            if table.failure_point_at(slot):
                table.state_code[slot] = CODE_FAILED
                table.failure_count[slot] += 1
                # mid-era failure: out of JSQ now, ``vms`` order kept
                state.active_slots.remove(slot)
                self.total_failures += 1
                if self._obs_on:
                    self._tel.event(
                        "vm.failure", region=state.name, vm=vm.name
                    )
        self._schedule_next(i)

    def _schedule_next(self, i: int) -> None:
        think = float(
            self._rng_by_idx[i].exponential(
                self._state_by_idx[i].population.think_time_s
            )
        )
        self.sim.schedule_pooled(think, self._issue, (i,))

    # ------------------------------------------------------------------ #
    # era boundary: Analyze / Plan / Execute
    # ------------------------------------------------------------------ #

    def run_era(self) -> dict[str, float]:
        """Advance one era of request events, then run the control cycle.

        Returns the per-region RMTTF after Eq. (1).
        """
        with self._tel.span(f"era {self.era_index}", kind="era", era=self.era_index):
            return self._run_era_body()

    def _run_era_body(self) -> dict[str, float]:
        tel = self._tel
        with tel.span("monitor", kind="mape", era=self.era_index):
            if not self._started:
                self._start_browsers()
                self._started = True
            t_end = self.sim.now + self.era_s
            self.sim.run_until(t_end)
        now = self.sim.now

        with tel.span("analyze", kind="mape", era=self.era_index):
            reports, lam = self._analyze_regions(now)

        # leader: Eq. (1), POLICY(), new plan.  An idle era (zero
        # completed requests) holds the previous fractions rather than
        # feeding the policy a fabricated load, matching the fluid loop
        # which never plans against a zero-demand era.
        with tel.span("plan", kind="mape", era=self.era_index):
            current = self.aggregator.update_all(reports)
            rmttf_vec = np.array([current[r] for r in self.region_names])
            if lam > 0.0:
                self.fractions = compute_fractions(
                    self.policy, self.fractions, rmttf_vec, lam
                )
        with tel.span("execute", kind="mape", era=self.era_index):
            if lam > 0.0:
                self._install_plan()
            for j, name in enumerate(self.region_names):
                self.traces.record(f"rmttf/{name}", now, float(rmttf_vec[j]))
                self.traces.record(
                    f"fraction/{name}", now, float(self.fractions[j])
                )
        self.era_index += 1
        return current

    def _analyze_regions(self, now: float) -> tuple[dict[str, float], float]:
        """Per-region era accounting, prediction, and PCAM swaps."""
        reports: dict[str, float] = {}
        lam = 0.0
        for name in self.region_names:
            state = self._states[name]
            # uptime bookkeeping for this era.  The per-VM rate divides by
            # the active count that *started* the era: VMs that failed
            # mid-era served part of it, and excluding them would inflate
            # the rate the ML features see.
            rate_per_vm = (
                state.era_completed
                / max(state.era_active_start, 1)
                / self.era_s
            )
            mttf_values = self._region_pcam(state, name, rate_per_vm)
            self._ensure_active(state)
            state.rebuild_active_slots()
            state.era_active_start = len(state.active_slots)

            reports[name] = (
                float(np.mean(mttf_values)) if len(mttf_values) else 0.0
            )
            rate = state.era_completed / self.era_s
            lam += rate
            mean_rt = (
                state.era_response_sum / state.era_completed
                if state.era_completed
                else 0.0
            )
            self.traces.record(f"completed/{name}", now, state.era_completed)
            self.traces.record(f"response_time/{name}", now, mean_rt)
            state.era_completed = 0
            state.era_response_sum = 0.0
        return reports, lam

    def _region_pcam(
        self, state: _RegionState, name: str, rate_per_vm: float
    ) -> np.ndarray:
        """Era accounting + PCAM swaps as array passes over the table.

        Predicts once per era from one stacked feature matrix (MTTF
        derives from the in-hand RTTF: a second prediction would
        double-append to trend-predictor histories) and swaps at-risk
        VMs against standbys; only the swap actuation itself walks the
        (few) affected VMs.
        """
        table = state.table
        active_mask = table.state_code == CODE_ACTIVE
        table.uptime_s[active_mask] += self.era_s
        table.last_request_rate[active_mask] = rate_per_vm
        table.idle_tick(np.arange(len(state.vms)), self.era_s)
        slots = np.flatnonzero(active_mask)
        pool = [state.vms[s] for s in slots.tolist()]
        features = table.feature_matrix(slots)
        rttf_arr = np.asarray(
            self.predictor.predict_rttf_rows(features, pool),
            dtype=np.float64,
        )
        mttf_values = table.uptime_s[slots] + np.maximum(rttf_arr, 0.0)
        at_pos = np.flatnonzero(rttf_arr < self.rttf_threshold_s)
        order = np.argsort(rttf_arr[at_pos], kind="stable")
        n_standby = int(np.count_nonzero(table.state_code == CODE_STANDBY))
        for p in at_pos[order].tolist():
            rttf = float(rttf_arr[p])
            if n_standby > 0:
                n_standby -= 1
            elif rttf >= self.era_s:
                continue
            slot = int(slots[p])
            vm = state.vms[slot]
            vm.start_rejuvenation()
            state.life[slot] += 1
            self.total_rejuvenations += 1
            if self._obs_on:
                self._tel.instant(
                    f"rejuvenate {vm.name}",
                    kind="rejuvenation",
                    region=name,
                    reason="at_risk",
                    rttf_s=rttf,
                )
        for slot in np.flatnonzero(
            table.state_code == CODE_FAILED
        ).tolist():
            vm = state.vms[slot]
            vm.start_rejuvenation()
            state.life[slot] += 1
            self.total_rejuvenations += 1
            if self._obs_on:
                self._tel.instant(
                    f"rejuvenate {vm.name}",
                    kind="rejuvenation",
                    region=name,
                    reason="failed",
                )
        return mttf_values

    def run(self, n_eras: int) -> dict[str, float]:
        """Run several eras; returns the final RMTTF snapshot."""
        if n_eras < 1:
            raise ValueError("n_eras must be >= 1")
        out: dict[str, float] = {}
        for _ in range(n_eras):
            out = self.run_era()
        return out
