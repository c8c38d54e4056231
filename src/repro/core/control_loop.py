"""The ACM closed control loop -- Sec. V, Figure 2, Algorithms 1-3.

One era of the loop walks the four states:

* **Monitor** -- client populations offer load to their region's LB; the
  global forward plan routes arrivals to processing regions; each VMC
  serves its batch (features are collected inside
  :meth:`~repro.pcam.vmc.RegionGroup.process_era`, one pass over every
  region's rows of the deployment's state table).
* **Analyze** (Algorithm 1) -- every VMC predicts its local RMTTF with the
  ML models and actuates PCAM locally; slave VMCs send ``lastRMTTF_i`` to
  the leader over the overlay message bus; the leader folds each report
  into Eq. (1).
* **Plan** (Algorithm 2, leader only) -- ``POLICY()`` computes the new
  ``f_i^t`` from the previous fractions and the RMTTF vector; the leader
  sends each slave its fraction.
* **Execute** (Algorithm 3) -- the new fractions are installed in the load
  balancers (a fresh forward plan); if the autoscaler is enabled, regions
  whose measured response time exceeds the threshold ADDVMS.

Partitions are handled the way a real deployment degrades: a slave that
cannot reach the leader keeps serving with its last installed fraction, and
the leader plans with the slave's last known RMTTF.

Forwarded (non-local) requests pay the overlay round-trip latency on top of
the processing time, so plan thrash shows up as measurable response-time
overhead -- the effect the paper attributes to Policy 1's oscillations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.autoscale import Autoscaler
from repro.core.degradation import MODE_CODES, DegradationTracker
from repro.core.forward_plan import (
    FORWARD_FALLBACK_PENALTY_S,
    build_forward_plan,
)
from repro.core.policy import Policy, compute_fractions
from repro.core.rmttf import RmttfAggregator
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.overlay.election import LeaderElection
from repro.overlay.network import OverlayNetwork
from repro.overlay.routing import NoRouteError, Router
from repro.pcam.vmc import EraReport, RegionGroup, VirtualMachineController
from repro.sim.rng import RngRegistry
from repro.sim.tracing import TraceRecorder
from repro.workload.browsers import BrowserPopulation


@dataclass(frozen=True, slots=True)
class ControlLoopConfig:
    """Control-loop tuning.

    Parameters
    ----------
    era_s:
        Length of one Monitor/Analyze/Plan/Execute cycle in simulated
        seconds.
    beta:
        EWMA weight of Eq. (1).
    """

    era_s: float = 30.0
    beta: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.era_s < math.inf:
            raise ValueError("era_s must be positive and finite")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")


@dataclass(slots=True)
class EraSummary:
    """Global outcome of one control era (one row of the figures' series)."""

    era: int
    time: float
    fractions: dict[str, float]
    rmttf: dict[str, float]
    response_time_s: float
    per_region_response_s: dict[str, float]
    forwarded_fraction: float
    leader: str
    total_requests: int
    rejuvenations: int
    failures: int
    active_vms: dict[str, int]
    #: Plan-step degradation mode: ``normal`` | ``hold`` | ``fallback``
    #: (see :mod:`repro.core.degradation`).
    degradation: str = "normal"


class AcmControlLoop:
    """The full multi-region closed loop.

    Parameters
    ----------
    vmcs:
        Region name -> controller.  Region order is the sorted key order.
    populations:
        Region name -> the browser population whose clients connect to
        that region's LB (must cover exactly the same regions).
    policy:
        The ``POLICY()`` implementation to run at the leader.
    rngs:
        Root RNG registry (streams: ``arrivals``, ``routing``).
    overlay:
        Controller overlay; defaults to a full mesh with uniform 20 ms
        links.  Used for leader election and forwarding latency.
    config:
        Loop tuning.
    autoscaler:
        Optional :class:`~repro.core.autoscale.Autoscaler` running the
        Sec. V reactive pool resizing; ``None`` (the default) keeps every
        pool at its configured size.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` facade recording
        MAPE phase spans, per-era latency histograms, and leader-change /
        degradation flight events.  Disabled (the default) it is a strict
        no-op.
    slo:
        Optional :class:`~repro.slo.SloController`.  When set, the
        Monitor phase feeds each era's per-region response time to the
        SLO evaluators and the Plan phase shapes the planned fractions
        away from degraded regions (the sim-side degradation signal).
        ``None`` (the default) takes no SLO code path at all -- golden
        traces stay bit-identical.
    cost:
        Optional :class:`~repro.core.cost.CostTracker` billed once per
        era per region (plus inter-region egress when its model prices
        it).  Pure accounting: touches no RNG stream and no trace, so
        it is always safe to attach.
    """

    def __init__(
        self,
        vmcs: dict[str, VirtualMachineController],
        populations: dict[str, BrowserPopulation],
        policy: Policy,
        rngs: RngRegistry,
        overlay: OverlayNetwork | None = None,
        config: ControlLoopConfig | None = None,
        autoscaler: Autoscaler | None = None,
        telemetry: Telemetry | None = None,
        slo=None,
        cost=None,
    ) -> None:
        if not vmcs:
            raise ValueError("need at least one region")
        if set(vmcs) != set(populations):
            raise ValueError(
                f"regions {sorted(vmcs)} and populations "
                f"{sorted(populations)} must match"
            )
        self.regions: list[str] = sorted(vmcs)
        self.vmcs = vmcs
        #: one state table for the deployment, each region's pool a range
        #: of its rows in region order; an era steps them all at once
        self._regions_step = RegionGroup.join([vmcs[r] for r in self.regions])
        self.populations = populations
        self.policy = policy
        self.config = config or ControlLoopConfig()
        self.rngs = rngs
        self.overlay = overlay or self._default_overlay()
        self.router = Router(self.overlay)
        self.election = LeaderElection(self.overlay)
        self.aggregator = RmttfAggregator(self.config.beta)
        self.autoscaler = autoscaler
        self.degradation = DegradationTracker(
            self.regions, telemetry=telemetry
        )
        #: the Analyze/Execute message transport (``gather_reports`` /
        #: ``push_fractions``) a :class:`repro.core.distributed.
        #: DistributedControlPlane` installs; ``None`` keeps the
        #: overlay-oracle exchange: reachability decides which reports
        #: arrive and fraction installs are instantaneous.  The fluid and
        #: the DES loop exchange through :meth:`receive_reports` and
        #: :meth:`install_fractions`; serve calls the transport's halves.
        self.transport = None
        self.slo = slo
        self.cost = cost
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._obs_on = self._tel.enabled
        self._last_leader: str | None = None
        if self._obs_on:
            # A distributed plane built later re-points the clock at its
            # simulator; standalone fluid runs use era-boundary time.
            self._tel.set_clock(lambda: self.now)
        self.traces = TraceRecorder()
        self.fractions = policy.initial_fractions(len(self.regions))
        self.era_index = 0
        self.summaries: list[EraSummary] = []
        # clients' most recent observed response time, per arrival region
        self._client_rt: dict[str, float] = {r: 0.0 for r in self.regions}
        self._arrival_rng = rngs.stream("arrivals")
        self._routing_rng = rngs.stream("routing")

    def _default_overlay(self) -> OverlayNetwork:
        pairs = {}
        for i, a in enumerate(self.regions):
            for b in self.regions[i + 1 :]:
                pairs[(a, b)] = 20.0
        net = OverlayNetwork()
        for r in self.regions:
            net.add_node(r)
        for (a, b), lat in pairs.items():
            net.add_link(a, b, lat)
        return net

    # ------------------------------------------------------------------ #

    @property
    def now(self) -> float:
        """Current time by era arithmetic (what every trace pins)."""
        return self.era_index * self.config.era_s

    def current_leader(self) -> str:
        """Leader of the component containing the first live region."""
        for r in self.regions:
            if self.overlay.is_alive(r):
                return self.election.elect(r, now=self.now)
        raise RuntimeError("all region controllers are down")

    # ------------------------------------------------------------------ #
    # one era
    # ------------------------------------------------------------------ #

    def run_era(self) -> EraSummary:
        """Advance the loop by one Monitor/Analyze/Plan/Execute cycle."""
        with self._tel.span(
            f"era {self.era_index}", kind="era", era=self.era_index
        ):
            return self._run_era_body()

    def _run_era_body(self) -> EraSummary:
        cfg = self.config
        tel = self._tel
        dt = cfg.era_s
        now = self.now
        n = len(self.regions)

        with tel.span("monitor", kind="mape", era=self.era_index):
            # ---- Monitor: offered load and the forward plan ------------ #
            rates = np.array(
                [
                    self.populations[r].offered_rate(self._client_rt[r])
                    for r in self.regions
                ]
            )
            lam = float(rates.sum())
            if lam <= 0:
                raise RuntimeError("no offered load: all populations empty")
            arrival_fractions = rates / lam
            plan = build_forward_plan(
                self.regions, arrival_fractions, self.fractions
            )

            arrivals = self._arrival_rng.poisson(rates * dt).astype(int)
            routed = plan.route_counts(arrivals, self._routing_rng)
            processed = routed.sum(axis=0)

            # ---- Monitor/Analyze: serve the era, predict local RMTTF --- #
            reports: dict[str, EraReport] = dict(
                zip(
                    self.regions,
                    self._regions_step.process_era(
                        processed.tolist(), dt, now
                    ),
                )
            )

            # clients of arrival region i see the plan-weighted response
            # time, plus the overlay round-trip for remotely served requests
            per_region_rt: dict[str, float] = {}
            for i, region in enumerate(self.regions):
                rt = 0.0
                for j, target in enumerate(self.regions):
                    share = plan.matrix[i, j]
                    if share <= 0:
                        continue
                    extra = 0.0
                    if i != j:
                        try:
                            extra = (
                                2.0 * self.router.latency(region, target) / 1000.0
                            )
                        except NoRouteError:
                            extra = FORWARD_FALLBACK_PENALTY_S
                    rt += share * (reports[target].response_time_s + extra)
                per_region_rt[region] = rt
                self._client_rt[region] = rt
            if self.slo is not None:
                # SLO Monitor: era response times are the latency samples;
                # the ladders advance here so Plan sees current levels
                self.slo.observe(now, per_region_rt)

        with tel.span("analyze", kind="mape", era=self.era_index):
            # ---- Analyze (leader side): collect reports over the overlay #
            leader = self.current_leader()
            if self._obs_on:
                if self._last_leader is not None and leader != self._last_leader:
                    tel.event(
                        "election.leader_change",
                        previous=self._last_leader,
                        leader=leader,
                        era=self.era_index,
                    )
                self._last_leader = leader
            received = self.receive_reports(
                leader, {r: reports[r].last_rmttf for r in self.regions}
            )

        with tel.span("plan", kind="mape", era=self.era_index):
            # ---- Plan (Algorithm 2, leader only) ------------------------ #
            planned, mode, rmttf_vec = self.plan(
                self.era_index, received, lam, reports
            )

        with tel.span("execute", kind="mape", era=self.era_index):
            # ---- Execute (Algorithm 3) ---------------------------------- #
            self.fractions = self.install_fractions(leader, planned)
            if self.autoscaler is not None:
                for j, region in enumerate(self.regions):
                    self.autoscaler.apply(
                        self.vmcs[region], reports[region], float(rmttf_vec[j])
                    )

        # ---- bookkeeping ------------------------------------------------ #
        total_requests = int(processed.sum())
        served_weights = np.maximum(processed, 1)
        global_rt = float(
            sum(
                reports[r].response_time_s * served_weights[j]
                for j, r in enumerate(self.regions)
            )
            / served_weights.sum()
        )
        summary = EraSummary(
            era=self.era_index,
            time=now,
            fractions={
                r: float(self.fractions[j])
                for j, r in enumerate(self.regions)
            },
            rmttf={
                r: float(rmttf_vec[j]) for j, r in enumerate(self.regions)
            },
            response_time_s=global_rt,
            per_region_response_s=per_region_rt,
            forwarded_fraction=plan.forwarded_fraction(),
            leader=leader,
            total_requests=total_requests,
            rejuvenations=sum(
                rep.rejuvenations_triggered for rep in reports.values()
            ),
            failures=sum(rep.failures for rep in reports.values()),
            active_vms={r: reports[r].n_active for r in self.regions},
            degradation=mode,
        )
        self._record(summary)
        if self.slo is not None:
            for region, code in self.slo.level_codes().items():
                self.traces.record(f"slo_level/{region}", now, float(code))
        if self.cost is not None:
            for j, region in enumerate(self.regions):
                self.cost.charge_era(
                    self.vmcs[region], dt, requests_served=int(processed[j])
                )
            self.cost.charge_egress(
                int(routed.sum() - np.trace(routed))
            )
        if self._obs_on:
            tel.histogram("era_response_time_s").observe(global_rt)
            for region, rt in per_region_rt.items():
                tel.histogram("era_response_time_s", region=region).observe(rt)
        self.summaries.append(summary)
        self.era_index += 1
        return summary

    def plan(
        self,
        era: int,
        received: dict[str, float],
        lam: float,
        reports: dict[str, EraReport] | None = None,
    ) -> tuple[np.ndarray, str, np.ndarray]:
        """The leader's step: ``(planned, mode, rmttf_vec)`` from the
        reports that reached it.

        Folds ``received`` through Eq. (1), walks the degradation ladder
        and runs ``POLICY()`` from ``self.fractions``.  Installs nothing:
        Execute belongs to the host -- ``run_era`` here, ``AcmService``
        on the wall clock.  A region the leader has never heard from is
        planned at its own ``reports[r].last_rmttf`` (0 without
        ``reports``).  An idle era (``lam <= 0``, DES only) holds
        ``self.fractions``.
        """
        # A corrupted predictor can emit NaN; a non-finite report is as
        # useless as a missing one, and must never reach Eq. (1) or the
        # policy simplex projection.
        received = {
            region: value
            for region, value in received.items()
            if np.isfinite(value)
        }
        self.aggregator.update_all(received)
        known = self.aggregator.snapshot()
        for r, rep in (reports or {}).items():
            if r not in known and np.isfinite(rep.last_rmttf):
                known[r] = rep.last_rmttf
        rmttf_vec = np.array([known.get(r, 0.0) for r in self.regions])
        mode = self.degradation.observe(era, received)
        if lam <= 0.0:
            return self.fractions, mode, rmttf_vec
        planned = compute_fractions(
            self.policy,
            self.fractions,
            rmttf_vec,
            lam,
            mode=mode,
            capacities=self._healthy_capacities()
            if mode == "fallback"
            else None,
        )
        if self.slo is not None:
            # degradation signal: starve regions whose ladder is
            # degraded (the fluid analogue of serve's 429 shedding)
            planned = self.slo.shape(planned)
        return planned, mode, rmttf_vec

    def _healthy_capacities(self) -> np.ndarray:
        """Per-region healthy capacity, the fallback ladder's static prior.

        The information-free input of the available-resources policy:
        computable from deployment knowledge alone, so it is safe to
        plan from when RMTTF reports have been missing for too long.
        """
        return np.array(
            [self.vmcs[r].healthy_capacity() for r in self.regions]
        )

    def receive_reports(
        self, leader: str, raw_reports: dict[str, float]
    ) -> dict[str, float]:
        """The reports that reach ``leader`` (Analyze, Algorithm 1): over
        the transport's channel, or without one by the overlay oracle (a
        report arrives when its region can reach the leader)."""
        if self.transport is None:
            return {
                region: raw_reports[region]
                for region in self.regions
                if region == leader or self.router.reachable(region, leader)
            }
        return self.transport.gather_reports(leader, raw_reports)

    def install_fractions(self, leader: str, planned: np.ndarray) -> np.ndarray:
        """Push the planned fractions to the regions (Execute, Algorithm 3).

        Without a transport the install is an oracle: every region gets
        its fraction instantly.  With one, the leader pushes each slave
        its fraction over the (reliable) channel.  When every region
        acknowledges, the plan is installed as it is.  A region whose push
        is not acknowledged keeps serving at its previous fraction, and the
        effective global split is the renormalised mix of new and held
        values -- exactly what a fleet of LBs with stale configs does.
        """
        if self.transport is None:
            return planned
        new = {r: float(planned[j]) for j, r in enumerate(self.regions)}
        acked = set(self.transport.push_fractions(leader, new))
        acked.add(leader)  # the leader installs its own fraction locally
        if acked.issuperset(self.regions):
            return planned
        installed = np.array(
            [
                new[r] if r in acked else float(self.fractions[j])
                for j, r in enumerate(self.regions)
            ]
        )
        total = installed.sum()
        if total <= 0:
            return planned
        return installed / total

    def run(self, n_eras: int) -> list[EraSummary]:
        """Run ``n_eras`` control cycles; returns their summaries."""
        if n_eras < 1:
            raise ValueError("n_eras must be >= 1")
        return [self.run_era() for _ in range(n_eras)]

    # ------------------------------------------------------------------ #

    def _record(self, s: EraSummary) -> None:
        t = s.time
        for region in self.regions:
            self.traces.record(f"rmttf/{region}", t, s.rmttf[region])
            self.traces.record(f"fraction/{region}", t, s.fractions[region])
            self.traces.record(
                f"response_time/{region}", t, s.per_region_response_s[region]
            )
            self.traces.record(
                f"active_vms/{region}", t, s.active_vms[region]
            )
        self.traces.record("response_time", t, s.response_time_s)
        self.traces.record("forwarded_fraction", t, s.forwarded_fraction)
        self.traces.record("rejuvenations", t, s.rejuvenations)
        self.traces.record("failures", t, s.failures)
        self.traces.record("degradation", t, MODE_CODES[s.degradation])
