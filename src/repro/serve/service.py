"""ACM-as-a-service: the wall-clock MAPE runtime behind the HTTP ingress.

:class:`AcmService` hosts the control plane of a simulated deployment on
a :class:`~repro.serve.clock.WallClock`.  The leader is the
:class:`~repro.core.control_loop.AcmControlLoop` its ``AcmManager``
built: the Eq. (1) aggregator, the degradation ladder, the election and
the installed fractions live on ``self.loop``, the Plan phase is the
``loop.plan(...)`` that ``run_era`` calls, and the installed forward
plan is the :class:`~repro.core.forward_plan.PlanTable` the DES loop
routes through.  This module adds only what real time forces:

* **Load is measured, not synthesized.**  The simulator draws arrivals
  from browser populations; the service counts the real requests the
  ingress admitted and forwards those counts into one
  :func:`~repro.pcam.vmc.process_eras` step over the live regions at
  each era boundary.
* **The exchange is the plane's; only the wait is serve's.**  Reports
  and fractions travel as the simulated plane's ``ReliableTransport``
  messages (:mod:`repro.core.distributed`).  The plane's
  ``gather_reports`` blocks through its window; nothing can
  fast-forward a wall clock, so the era tick calls ``send_reports`` and
  the Plan phase, ``window_s`` later, plans with ``received_reports()``.
* **Execute is per row and liveness-aware.**  Regions dark when the Plan
  phase fires are zeroed (``renormalize_live``) before
  ``send_fractions``, each region installs its row when the fraction
  vector lands (``_ServeTransport.fractions_landed``), and the first row
  that routes around a dead region stamps that region's failover MTTR.

The ingress data path (admission + per-row forwarding per the installed
plan) lives here too; :mod:`repro.serve.ingress` is only the HTTP skin.

Every externally visible measurement is a Prometheus-exported metric
with an ``acm_`` prefix (see ``/metrics``): request/shed/failover
counters, per-region fraction and RMTTF gauges, the plan-propagation
histogram, and the per-blackout failover MTTR gauge.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.chaos.engine import ChaosEngine
from repro.core.distributed import ReliableTransport
from repro.core.forward_plan import PlanTable, build_forward_plan
from repro.core.manager import AcmManager
from repro.core.policy import renormalize_live
from repro.experiments.scenarios import Scenario
from repro.obs.exporters import to_prometheus_text
from repro.obs.manifest import RunManifest
from repro.obs.telemetry import Telemetry
from repro.overlay.messaging import MessageBus
from repro.pcam.vm import VmState
from repro.pcam.vmc import process_eras
from repro.serve.clock import WallClock
from repro.slo import LEVEL_DEGRADED, SloConfig, SloController

#: Admission token-bucket depth, in seconds of ``admission_rps``.
ADMISSION_BURST_S = 0.25


@dataclass(frozen=True)
class ServeConfig:
    """Tuning of one served deployment.

    Times are in *clock seconds* (scaled by the wall clock's ``speed``),
    except ``admission_rps`` which is real requests per wall second --
    admission protects the actual process, not the modeled one.  The
    token bucket holds :data:`ADMISSION_BURST_S` of that rate, and the
    control channel runs :class:`~repro.overlay.reliable.ReliableChannel`'s
    fixed retry ladder.
    """

    era_s: float = 30.0  #: MAPE period
    window_s: float = 3.0  #: Analyze report-gather window after the tick
    monitor_period_s: float = 5.0  #: liveness sweep period
    policy: str = "available-resources"
    seed: int = 7
    admission_rps: float = 5000.0  #: per-region token-bucket rate
    #: Optional per-region SLO gate (p95 target / queue depth / error
    #: budget on real time) driving the priority ladder and 429
    #: backpressure.  ``None`` (the default) takes no SLO code path.
    slo: SloConfig | None = None


class AcmService:
    """One multi-region ACM deployment served on a wall clock."""

    def __init__(
        self,
        scenario: Scenario,
        clock: WallClock,
        config: ServeConfig | None = None,
    ) -> None:
        cfg = config or ServeConfig()
        self.scenario = scenario
        self.clock = clock
        self.config = cfg
        # Serving without observability is pointless: /metrics is the
        # product.
        tel = self.telemetry = Telemetry(enabled=True)

        self.manager = AcmManager(
            regions=list(scenario.regions),
            policy=cfg.policy,
            seed=cfg.seed,
            era_s=cfg.era_s,
            overlay=scenario.build_overlay(),
            telemetry=tel,
        )
        # the leader: aggregator, ladder, election, installed fractions
        loop = self.loop = self.manager.loop
        self.regions: list[str] = list(loop.regions)
        self._index = {r: i for i, r in enumerate(self.regions)}
        self.vmcs = loop.vmcs
        self.overlay = loop.overlay
        self.router = loop.router
        # AcmManager pointed the metric clock at the fluid loop's era
        # arithmetic (frozen at 0 here); re-point it at the wall clock.
        tel.set_clock(lambda: self.clock.now)
        manifest_config = {
            "mode": "serve",
            "scenario": scenario.name,
            "policy": cfg.policy,
            "era_s": cfg.era_s,
            "window_s": cfg.window_s,
        }
        if cfg.slo is not None:
            # only-when-set: SLO-less serve manifests keep their digest
            manifest_config["slo"] = cfg.slo.spec()
        tel.set_manifest(
            RunManifest.build(
                seed=cfg.seed,
                config=manifest_config,
                scenario=scenario.name,
                mode="serve",
                speed=clock.speed,
            )
        )

        self.bus = MessageBus(sim=clock, router=self.router, telemetry=tel)
        self.transport = _ServeTransport(
            self, self.manager.rngs.stream("serve/jitter")
        )
        for r in self.regions:
            self.bus.register(r, self.transport.channel.make_bus_handler(r))
        self.chaos = ChaosEngine(
            sim=clock,
            rng=self.manager.rngs.stream("serve/chaos"),
            overlay=self.overlay,
            vmcs=self.vmcs,
            bus=self.bus,
            telemetry=tel,
        )

        n = len(self.regions)
        self._arrival_fracs = np.full(n, 1.0 / n)
        self.plan_table = PlanTable(
            build_forward_plan(
                self.regions, self._arrival_fracs, loop.fractions
            ).matrix
        )
        self._route_rng = self.manager.rngs.stream("serve/routing")

        # per-era measured load: arrivals by arrival region, served by target
        self._arrivals = {r: 0 for r in self.regions}
        self._served = {r: 0 for r in self.regions}
        self._lam = 1.0  # measured offered rate (req per clock second)
        self._era_index = 0
        self._plan_era = -1
        self._leader_name: str | None = None
        self._cycle_stamp = 0.0
        self._rr = 0

        # admission token buckets (real time)
        self._bucket_cap = cfg.admission_rps * ADMISSION_BURST_S
        self._tokens = {r: self._bucket_cap for r in self.regions}
        self._token_ts = {r: time.monotonic() for r in self.regions}

        # SLO gate: an SLO plane of the service's own, on real time (serve
        # sheds with 429s; it does not shape the manager's fractions).
        # _mono is an attribute so tests can inject a fake monotonic
        # clock and exercise dwell/recovery deterministically.
        self._mono = time.monotonic
        self.slo: SloController | None = None
        if cfg.slo is not None:
            self.slo = SloController(self.regions, cfg.slo, tel, self._mono())

        # failure bookkeeping: region -> clock time first seen dead, and
        # region -> last measured failover MTTR (dead -> routed-around)
        self._down_at: dict[str, float] = {}
        self.mttr_s: dict[str, float] = {}
        self._rmttf_latest = {r: float("nan") for r in self.regions}
        self._stoppers: list = []

        t = tel
        self._m_requests = {
            r: t.counter("acm_ingress_requests_total", region=r)
            for r in self.regions
        }
        self._m_served = {
            r: t.counter("acm_ingress_served_total", region=r)
            for r in self.regions
        }
        self._m_shed = {
            r: t.counter("acm_ingress_shed_total", region=r)
            for r in self.regions
        }
        self._m_failover = {
            r: t.counter("acm_ingress_failover_total", region=r)
            for r in self.regions
        }
        self._m_errors = t.counter("acm_ingress_errors_total")
        self._m_eras = t.counter("acm_eras_total")
        self._m_reports = t.counter("acm_reports_received_total")
        self._m_lag = t.histogram(
            "acm_plan_propagation_seconds",
            bounds=(0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0),
        )
        self._m_latency = t.histogram("acm_ingress_latency_seconds")
        self._m_fraction = {
            r: t.gauge("acm_region_fraction", region=r) for r in self.regions
        }
        self._m_rmttf = {
            r: t.gauge("acm_region_rmttf_s", region=r) for r in self.regions
        }
        self._m_alive = {
            r: t.gauge("acm_region_alive", region=r) for r in self.regions
        }
        self._m_mttr = {
            r: t.gauge("acm_failover_mttr_seconds", region=r)
            for r in self.regions
        }
        if self.slo is not None:
            self._m_slo_shed = {
                r: t.counter("slo_shed_total", region=r) for r in self.regions
            }
        for r in self.regions:
            self._m_fraction[r].set(float(loop.fractions[self._index[r]]))
            self._m_alive[r].set(1.0)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Arm the MAPE era tick and the liveness monitor."""
        cfg = self.config
        self._stoppers = [
            self.clock.schedule_periodic(
                cfg.era_s, self._era_tick, label="serve-era"
            ),
            self.clock.schedule_periodic(
                cfg.monitor_period_s, self._monitor, label="serve-monitor"
            ),
        ]

    def shutdown(self) -> None:
        """Cancel the periodic control events and stop the clock."""
        for stop in self._stoppers:
            stop()
        self._stoppers = []
        self.clock.stop()

    # ------------------------------------------------------------------ #
    # ingress data path
    # ------------------------------------------------------------------ #

    def handle_request(
        self, region: str | None = None
    ) -> tuple[int, dict]:
        """Admit and forward one request; returns (http_status, body).

        The forwarding decision samples the arrival region's live plan
        row; a dead sampled target fails over to the row renormalised
        over live regions (the stopgap until the control loop routes
        around the failure by planning the dead region to zero).
        """
        t0 = time.perf_counter()
        if region is None or region not in self._index:
            region = self.regions[self._rr % len(self.regions)]
            self._rr += 1
        self._m_requests[region].inc()
        self._arrivals[region] += 1
        # one bucket refill a request: the SLO gate reads the deficit,
        # admission spends a token
        tokens = self._refill(region)
        # SLO ladder first (outer policy rung), token bucket second
        # (the default rate guard): kill-switch > override > adaptive.
        if self.slo is not None:
            retry_after = self._slo_check(region, tokens)
            if retry_after is not None:
                self._m_shed[region].inc()
                self._m_slo_shed[region].inc()
                return 429, {
                    "error": "slo",
                    "region": region,
                    "retry_after_s": retry_after,
                }
        if tokens < 1.0:
            self._m_shed[region].inc()
            return 429, {
                "error": "shed",
                "region": region,
                # honest backoff hint: seconds until the bucket refills
                # one token at the configured admission rate
                "retry_after_s": max(
                    1, math.ceil((1.0 - tokens) / self.config.admission_rps)
                ),
            }
        self._tokens[region] = tokens - 1.0
        i = self._index[region]
        target = self.regions[
            self.plan_table.route(i, self._route_rng.random())
        ]
        forwarded_over = None
        if not self.overlay.is_alive(target):
            self._note_down(target)
            self._m_failover[target].inc()
            picked = self.plan_table.route_live(
                i, self._route_rng.random(), self._alive()
            )
            if picked is None:
                self._m_errors.inc()
                if self.slo is not None:
                    self.slo.evaluators[region].observe_outcome(
                        self._mono(), False
                    )
                return 503, {"error": "no live region", "region": region}
            forwarded_over = target
            target = self.regions[picked]
        self._served[target] += 1
        self._m_served[target].inc()
        elapsed = time.perf_counter() - t0
        self._m_latency.observe(elapsed)
        if self.slo is not None:
            evaluator = self.slo.evaluators[region]
            now_mono = self._mono()
            evaluator.observe_latency(now_mono, elapsed)
            evaluator.observe_outcome(now_mono, True)
        body = {
            "arrival": region,
            "target": target,
            "forwarded": target != region,
            "era": self._era_index,
        }
        if forwarded_over is not None:
            body["failover_from"] = forwarded_over
        return 200, body

    def _refill(self, region: str) -> float:
        """The region's bucket level as of now; nothing consumed."""
        now = time.monotonic()
        tokens = self._tokens[region] = min(
            self._bucket_cap,
            self._tokens[region]
            + (now - self._token_ts[region]) * self.config.admission_rps,
        )
        self._token_ts[region] = now
        return tokens

    def _slo_check(self, region: str, tokens: float) -> int | None:
        """Advance the region's ladder; Retry-After seconds if degraded.

        The queue-depth signal is proxied by the admission bucket's
        token deficit (how far behind the refill rate this region is
        running), read off the just-refilled level ``tokens``: a shed
        request spends no token, and a deficit that only admission
        refreshed would hold a degraded region degraded forever.
        Latency and outcome samples arrive from the serving path itself.
        """
        slo = self.slo
        slo.evaluators[region].set_queue_depth(self._bucket_cap - tokens)
        decision = slo.advance(region, self._mono())
        if decision.level != LEVEL_DEGRADED:
            return None
        # adaptive rung: honest dwell remainder; kill-switch/override:
        # no scheduled recovery, so advertise the dwell as the backoff
        hint = decision.dwell_remaining_s or self.config.slo.min_dwell_s
        return max(1, math.ceil(hint))

    # ------------------------------------------------------------------ #
    # MAPE on the wall clock
    # ------------------------------------------------------------------ #

    def _era_tick(self) -> None:
        """Monitor + Analyze-send: close the era, report to the leader."""
        cfg = self.config
        now = self.clock.now
        era = self._era_index
        self._era_index += 1
        self._m_eras.inc()
        if self.slo is not None:
            # the era sweep: recovery after the dwell must not wait for
            # probe traffic, nor the queue-depth proxy for a request
            for r in self.regions:
                self.slo.evaluators[r].set_queue_depth(
                    self._bucket_cap - self._refill(r)
                )
            self.slo.observe(self._mono(), {})
        served = dict(self._served)
        arrivals = dict(self._arrivals)
        for r in self.regions:
            self._served[r] = 0
            self._arrivals[r] = 0
        total_served = sum(served.values())
        self._lam = max(total_served / cfg.era_s, 1e-9)
        total_arrived = sum(arrivals.values())
        if total_arrived > 0:
            self._arrival_fracs = np.array(
                [arrivals[r] / total_arrived for r in self.regions]
            )

        # a dark controller runs no era cycle and sends no report
        live = [r for r in self.regions if self.overlay.is_alive(r)]
        stepped = process_eras(
            [self.vmcs[r] for r in live],
            [served[r] for r in live],
            cfg.era_s,
            now,
        )
        reports: dict[str, float] = {}
        for r, rep in zip(live, stepped):
            reports[r] = self._rmttf_latest[r] = rep.last_rmttf
            self._m_rmttf[r].set(rep.last_rmttf)

        if not any(self._alive()):
            self._leader_name = None
            return  # whole deployment dark; monitor keeps watching
        leader = self._leader_name = self.loop.current_leader()
        self._cycle_stamp = now
        self.transport.send_reports(leader, reports)
        self.clock.schedule_after(
            cfg.window_s,
            lambda: self._plan_phase(leader, era),
            label="serve-plan",
        )

    def _plan_phase(self, leader: str, era: int) -> None:
        """Plan + Execute: the shared leader step on whatever reports
        arrived, then what real time adds -- zero the regions that are
        dark *now*, install the leader's row and push the fractions."""
        planned, _, _ = self.loop.plan(
            era, self.transport.received_reports(), self._lam
        )
        # A dead region must not be planned traffic, whatever the policy
        # said: zero it and renormalise over the live ones.
        planned = renormalize_live(planned, self._alive())
        if planned is None:
            return
        self.loop.fractions = planned
        self._plan_era = era
        self.transport.send_fractions(
            leader, {r: float(planned[i]) for i, r in enumerate(self.regions)}
        )
        if self.overlay.is_alive(leader):
            self._install_row(leader, planned)

    def _install_row(self, region: str, fractions) -> None:
        """A region's LB installs its forward-plan row (Execute)."""
        fractions = np.asarray(fractions, dtype=float)
        plan = build_forward_plan(
            self.regions, self._arrival_fracs, fractions
        )
        i = self._index[region]
        self.plan_table.install_row(i, plan.matrix[i])
        self._m_fraction[region].set(float(fractions[i]))
        lag = self.clock.now - self._cycle_stamp
        self._m_lag.observe(max(lag, 0.0))
        # Failover MTTR: the moment this ingress row routes around a dead
        # region (its planned share is zero), that region is "repaired"
        # from the traffic's point of view.
        for dead, t_down in self._down_at.items():
            if (
                fractions[self._index[dead]] <= 1e-12
                and dead not in self.mttr_s
            ):
                mttr = self.clock.now - t_down
                self.mttr_s[dead] = mttr
                self._m_mttr[dead].set(mttr)
                self.telemetry.event(
                    "serve.failover_repaired", region=dead, mttr_s=mttr
                )

    def _monitor(self) -> None:
        """Liveness sweep: stamp down/heal transitions on the clock."""
        for r in self.regions:
            alive = self.overlay.is_alive(r)
            self._m_alive[r].set(1.0 if alive else 0.0)
            if not alive:
                self._note_down(r)
            elif r in self._down_at:
                self._down_at.pop(r)
                self.mttr_s.pop(r, None)
                self.telemetry.event("serve.region_healed", region=r)

    def _alive(self) -> list[bool]:
        return [self.overlay.is_alive(r) for r in self.regions]

    def _note_down(self, region: str) -> None:
        if region not in self._down_at:
            self._down_at[region] = self.clock.now
            self._m_alive[region].set(0.0)
            self.telemetry.event("serve.region_down", region=region)

    # ------------------------------------------------------------------ #
    # admin surface (consumed by the HTTP layer)
    # ------------------------------------------------------------------ #

    def plan_snapshot(self) -> dict:
        """The live forward plan as the admin ``/plan`` JSON."""
        return {
            "regions": list(self.regions),
            "fractions": [float(x) for x in self.loop.fractions],
            "matrix": self.plan_table.matrix.tolist(),
            "arrival_fractions": [float(x) for x in self._arrival_fracs],
            "era": self._era_index,
            "plan_era": self._plan_era,
            "degradation": self.loop.degradation.mode,
            "leader": self._leader_name,
        }

    def regions_snapshot(self) -> dict:
        """Per-region liveness/capacity state as the ``/regions`` JSON."""
        out = {}
        for r in self.regions:
            vmc = self.vmcs[r]
            rmttf = self._rmttf_latest[r]
            out[r] = {
                "alive": self.overlay.is_alive(r),
                "active_vms": len(vmc.vms_in(VmState.ACTIVE)),
                "rmttf_s": rmttf if np.isfinite(rmttf) else None,
                "fraction": float(self.loop.fractions[self._index[r]]),
                "down_at": self._down_at.get(r),
                "mttr_s": self.mttr_s.get(r),
            }
        return {
            "regions": out,
            "era": self._era_index,
            "clock_now": self.clock.now,
            "speed": self.clock.speed,
        }

    def slo_snapshot(self) -> dict:
        """SLO gate state as the admin ``/slo`` JSON."""
        if self.slo is None:
            return {"enabled": False}
        return self.slo.snapshot(self._mono())

    def slo_kill(self, on: bool) -> bool:
        """Flip the deployment-wide kill switch; False if SLO disabled."""
        if self.slo is None:
            return False
        self.slo.set_kill_switch(on, self._mono())
        return True

    def slo_override(self, level: str | None) -> bool:
        """Pin every region's level (None clears); False if SLO disabled.

        Raises ``ValueError`` on an unknown level (the ingress maps it
        to a 400).
        """
        if self.slo is None:
            return False
        self.slo.set_override(level, self._mono())
        return True

    def metrics_text(self) -> str:
        """Prometheus text for ``/metrics`` (live scrape)."""
        snap = self.telemetry.snapshot()
        return to_prometheus_text(snap["metrics"], self.telemetry.manifest)


class _ServeTransport(ReliableTransport):
    """The plane's transport on the service's bus: a landed report also
    counts in ``acm_reports_received_total``, and a landed fraction
    vector installs the receiving region's row."""

    def __init__(self, service: AcmService, rng: np.random.Generator) -> None:
        self.service = service
        super().__init__(
            service.bus, rng, service.regions, service.overlay, service.telemetry
        )

    def report_landed(self, node: str, payload: dict) -> None:
        self.service._m_reports.inc()
        super().report_landed(node, payload)

    def fractions_landed(self, node: str, fractions: tuple) -> None:
        self.service._install_row(node, fractions)
