"""Request-level multi-region control loop.

The fluid :class:`~repro.core.control_loop.AcmControlLoop` batches each
era's requests; this loop runs the *same* MAPE architecture with
per-request discrete events, the way the paper's actual testbed operated:

* each emulated browser belongs to an arrival region and, per click, is
  routed to a *processing* region by the current forward-plan row (remote
  processing pays the overlay round trip);
* requests queue at individual VMs (join-shortest-queue within a region)
  and inject anomalies on completion;
* at every era boundary each region's
  :class:`~repro.pcam.vmc.VirtualMachineController` closes the era
  (``close_era``: predict per-VM RTTF, swap at-risk VMs against standbys,
  report ``lastRMTTF``), and the leader folds the region reports through
  Eq. (1), walks the degradation ladder and runs ``POLICY()``.

Its job is to confirm that the policy conclusions do not depend on the
fluid approximation (the DES-FIG3 bench runs both loops on the same
deployment and compares verdicts), so its regions run the VMC the fluid
loop runs, and its leader (``loop.leader``) is an ``AcmControlLoop`` over
those VMCs whose ``plan`` it calls as the serve runtime does.  Only the
load reaches the state table differently: one completion at a time
instead of one batch an era.

Hot-path layout
---------------
This loop is the throughput ceiling of the whole reproduction (the
``des_two_region`` workload of ``benchmarks/e2e/run.py``), so the
per-request machinery is index-based and closure-free, while remaining
*bit-identical* to the per-request reference semantics (pinned by the
golden-trace test):

* browser start-up think times are drawn in one vectorised block per
  region (``BrowserPopulation.sample_think_times``:
  ``Generator.exponential(scale, size=n)`` consumes the stream exactly
  like ``n`` scalar draws);
* the routing and tie-break draws come straight from the region stream's
  bit generator through :class:`~repro.sim.rng.ExactDraws`, which
  consumes it exactly as ``Generator.random()`` and
  ``Generator.integers(0, k)`` do, without NumPy's ~1-2.5 us of
  per-call scalar overhead; service and think times stay
  ``Generator.exponential`` calls (a ziggurat draw has no public
  bit-generator equivalent);
* forward-plan routing is one uniform draw through the installed
  :class:`~repro.core.forward_plan.PlanTable`: ``bisect_right`` over a
  per-row CDF list built once at plan install -- the same stream
  consumption and result as ``Generator.choice(n, p=row/row.sum())``,
  without its per-call validation and CDF construction;
* a VM's service capacity and its hard-failure flag are cell reads: the
  state table keeps both as derived columns, refreshed when the VM's
  load state changes (:meth:`VmStateTable.complete_request` refreshes
  only on a non-zero anomaly draw), so neither is recomputed per
  request;
* join-shortest-queue is one Python scan, at every pool size, over a
  per-region ``in_flight`` ``list[int]`` indexed by VM slot (loop-private
  and only ever read one cell at a time, so a list, not an array), and
  breaks ties with ``ExactDraws.integers(k)``: the ``integers(0, k)``
  draw ``Generator.choice(candidates)`` performs internally;
* request completion and next-click events go through the engine's
  fire-and-forget, argument-binding path
  (:meth:`repro.sim.engine.Simulator.schedule_pooled`): one heap tuple
  each, instead of two lambda closures and two ``Event`` records per
  click.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.control_loop import AcmControlLoop, ControlLoopConfig
from repro.core.forward_plan import (
    FORWARD_FALLBACK_PENALTY_S,
    PlanTable,
    build_forward_plan,
)
# compute_fractions is not called here: the e2e harness wraps it by name
from repro.core.policy import Policy, compute_fractions  # noqa: F401
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.overlay.network import OverlayNetwork
from repro.overlay.routing import NoRouteError
from repro.pcam.predictor import RttfPredictor
from repro.pcam.state_table import VmStateTable
from repro.pcam.vm import CODE_ACTIVE, VirtualMachine
from repro.pcam.vmc import VirtualMachineController, VmcConfig
from repro.sim.engine import Simulator
from repro.sim.rng import ExactDraws, RngRegistry
from repro.sim.tracing import TraceRecorder
from repro.workload.browsers import BrowserPopulation


@dataclass
class _RegionState:
    """What the per-request path keeps per region, beside its VMC."""

    vms: list[VirtualMachine]
    population: BrowserPopulation
    #: Outstanding requests per VM, indexed by slot (position in ``vms``).
    in_flight: list[int]
    #: The VMC's state table; its fixed-pool contract makes row == slot.
    table: VmStateTable
    #: Life (incarnation) number per slot: the table's
    #: ``rejuvenation_count`` column as of the last era boundary.  A
    #: completion whose request was issued in a previous life must not
    #: mutate the fresh VM: without this gate a long-queued request could
    #: dump its (rejuvenation-spanning) response time into a
    #: just-reactivated VM and instantly SLA-fail it.
    life: list[int] = field(default_factory=list)
    #: Slots of ACTIVE VMs in ``vms`` order; rebuilt at era boundaries and
    #: maintained incrementally on mid-era failures.
    active_slots: list[int] = field(default_factory=list)
    era_completed: int = 0
    era_response_sum: float = 0.0
    #: VMs that hit their failure point under this era's requests.
    era_failures: int = 0
    #: Active VM count at the start of the current era -- the divisor for
    #: the per-VM request rate (VMs that fail mid-era still served it).
    era_active_start: int = 0

    def rebuild_active_slots(self) -> None:
        """Re-read what the request path caches off the table, and open
        the next era's accounting."""
        self.active_slots = np.flatnonzero(
            self.table.state_code == CODE_ACTIVE
        ).tolist()
        self.life = self.table.rejuvenation_count.tolist()
        self.era_active_start = len(self.active_slots)
        self.era_completed = 0
        self.era_response_sum = 0.0
        self.era_failures = 0


class DesControlLoop:
    """Per-request MAPE loop over multiple heterogeneous regions.

    Parameters
    ----------
    regions:
        name -> (vms, population, target_active).  VM pools should start
        in STANDBY; each region's VMC (``loop.vmcs``) adopts its pool into
        a :class:`~repro.pcam.state_table.VmStateTable` (row index ==
        slot) and activates the target: the per-request path reads and
        writes the table's cells, the VMC closes each era over it, and
        the VM objects stay valid views.
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
        config = ControlLoopConfig(era_s=era_s, beta=beta)
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self.sim = clock if clock is not None else Simulator(telemetry=telemetry)
        self.era_s = float(era_s)
        self.mean_demand = float(mean_demand)
        self.region_names = sorted(regions)
        self.traces = TraceRecorder()
        self.vmcs: dict[str, VirtualMachineController] = {}
        self._states: dict[str, _RegionState] = {}
        self._rngs = {
            name: rngs.child(name).stream("des") for name in self.region_names
        }
        for name in self.region_names:
            vms, population, target = regions[name]
            if target < 1 or target > len(vms):
                raise ValueError(f"{name}: bad target_active {target}")
            vmc = self.vmcs[name] = VirtualMachineController(
                name,
                vms,
                predictor,
                VmcConfig(
                    rttf_threshold_s=rttf_threshold_s,
                    target_active=target,
                    mean_demand=mean_demand,
                ),
                telemetry=telemetry,
            )
            state = self._states[name] = _RegionState(
                vms=vms,
                population=population,
                in_flight=[0] * len(vms),
                table=vmc.table,
            )
            state.rebuild_active_slots()
        # index-aligned views of the per-name maps (hot-path access)
        self._state_by_idx = [self._states[r] for r in self.region_names]
        self._rng_by_idx = [self._rngs[r] for r in self.region_names]
        self._draws_by_idx = [ExactDraws(rng) for rng in self._rng_by_idx]
        # telemetry handles are pre-fetched per region; the per-request
        # path pays one is-None check when telemetry is off
        self._obs_resp = (
            [
                self._tel.histogram("request_response_time_s", region=r)
                for r in self.region_names
            ]
            if self._tel.enabled
            else None
        )
        #: The leader step over this loop's VMCs; its ``fractions`` route.
        self.leader = AcmControlLoop(
            self.vmcs, {r: regions[r][1] for r in self.region_names},
            policy, rngs, overlay=overlay, config=config, telemetry=telemetry,
        )
        # the leader points the telemetry clock at its own era arithmetic
        self._tel.set_clock(lambda: self.sim.now)
        self.overlay = overlay
        self._install_plan()
        self.era_index = 0
        #: Swaps and VM failures over all regions, as of the last boundary.
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

    def _install_plan(self) -> None:
        """Execute: install the forward plan realising ``leader.fractions``
        (routing reads the table's CDF snapshot, never a half-built plan)."""
        self._plan = PlanTable(
            build_forward_plan(
                self.region_names,
                self._arrival_fractions(),
                self.leader.fractions,
            ).matrix
        )

    def _forward_latency_s(self, src: str, dst: str) -> float:
        if src == dst or self.overlay is None:
            return 0.0
        try:
            return 2.0 * self.leader.router.latency(src, dst) / 1000.0
        except NoRouteError:
            # Overlay partition: the request absorbs the fallback
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
            delays = state.population.sample_think_times(
                self._rng_by_idx[i], n
            )
            args = (i,)
            for delay in delays.tolist():
                schedule(delay, self._issue, args)

    def _issue(self, i: int) -> None:
        rng = self._rng_by_idx[i]
        draws = self._draws_by_idx[i]
        j = self._plan.route(i, draws.random())
        state = self._state_by_idx[j]
        active = state.active_slots
        if not active:
            # regional outage: retry after thinking
            self._schedule_next(i)
            return
        # join-shortest-queue over the slot-indexed in-flight counts;
        # tie-break with the integers(0, k) draw Generator.choice performs
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
        slot = candidates[draws.integers(len(candidates))]
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
            leaked_mb, stuck_threads = state.vms[slot].injector.draw(1)
            if table.complete_request(slot, rt, leaked_mb, stuck_threads):
                table.fail(np.array([slot]))
                # mid-era failure: out of JSQ now, ``vms`` order kept; the
                # VMC reports it (event, counter) when it closes the era
                state.active_slots.remove(slot)
                state.era_failures += 1
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

        # the leader step every host runs (an idle era, lam == 0, holds
        # the installed fractions)
        leader = self.leader
        with tel.span("plan", kind="mape", era=self.era_index):
            planned, _, rmttf_vec = leader.plan(self.era_index, reports, lam)
            leader.fractions = planned
        with tel.span("execute", kind="mape", era=self.era_index):
            if lam > 0.0:
                self._install_plan()
            for j, name in enumerate(self.region_names):
                self.traces.record(f"rmttf/{name}", now, float(rmttf_vec[j]))
                self.traces.record(f"fraction/{name}", now, float(planned[j]))
        self.era_index += 1
        return leader.aggregator.snapshot()

    def _analyze_regions(self, now: float) -> tuple[dict[str, float], float]:
        """Per-region era accounting, then the VMC's close-out."""
        reports: dict[str, float] = {}
        lam = 0.0
        for name in self.region_names:
            state = self._states[name]
            table = state.table
            completed = state.era_completed
            # what a batch era stamps while applying its load.  The per-VM
            # rate divides by the active count that *started* the era: VMs
            # that failed mid-era served part of it, and excluding them
            # would inflate the rate the ML features see.
            active = table.state_code == CODE_ACTIVE
            table.uptime_s[active] += self.era_s
            table.last_request_rate[active] = (
                completed / max(state.era_active_start, 1) / self.era_s
            )
            mean_rt = state.era_response_sum / completed if completed else 0.0
            report = self.vmcs[name].close_era(
                self.era_s, now, completed, mean_rt, state.era_failures
            )
            state.rebuild_active_slots()
            self.total_rejuvenations += report.rejuvenations_triggered
            self.total_failures += report.failures

            reports[name] = report.last_rmttf
            lam += completed / self.era_s
            self.traces.record(f"completed/{name}", now, completed)
            self.traces.record(f"response_time/{name}", now, mean_rt)
        return reports, lam

    def run(self, n_eras: int) -> dict[str, float]:
        """Run several eras; returns the final RMTTF snapshot."""
        if n_eras < 1:
            raise ValueError("n_eras must be >= 1")
        out: dict[str, float] = {}
        for _ in range(n_eras):
            out = self.run_era()
        return out
