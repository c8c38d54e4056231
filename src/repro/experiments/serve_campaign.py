"""The serve -> chaos -> measure campaign.

The paper's availability claims are made on a live testbed; the serve
subsystem lets us re-stage that on one machine: boot a multi-region
deployment on the wall clock, drive open-loop load at it over HTTP,
black out a region mid-run with the :class:`ChaosEngine`, and *measure*
-- not simulate -- the three production numbers ROADMAP item 2 asks
for:

* client-side latency quantiles (p50/p95/p99) per phase, open-loop so
  queueing under failure is charged to the server;
* shed and forward rates at the ingress;
* failover MTTR: clock time from the region going dark to the first
  installed forward-plan row that routes around it, plus the
  plan-propagation lag histogram (RMTTF report -> row install).

The campaign (``repro loadtest`` without ``--url``) runs fully in-process
on an ephemeral port, with the clock speed compressed so a multi-era run
fits in CI seconds.  Everything is seeded; the HTTP/TCP layer introduces
scheduling jitter, so latency numbers vary run to run while routing
decisions and control-plane behaviour replay.
"""

from __future__ import annotations

from repro.experiments.scenarios import resolve_scenario
from repro.serve.clock import WallClock
from repro.serve.ingress import serving
from repro.serve.loadgen import LoadConfig, run_load
from repro.serve.service import AcmService, ServeConfig


#: the Analyze report-gather window: :class:`ServeConfig`'s
WINDOW_S = ServeConfig.window_s


async def run_blackout_campaign(
    *,
    scenario_name: str,
    victim: str | None,
    rate: float,
    phase_s: float,
    speed: float,
    era_s: float,
    connections: int,
    seed: int,
    schedule: str,
) -> dict:
    """Boot, load, black out, heal, measure; returns the report.

    Three load phases of ``phase_s`` wall seconds each: baseline,
    blackout (the victim region goes dark at the phase boundary; the
    last region when ``victim`` is ``None``), and recovery (healed).
    ``repro loadtest``'s flags hold the defaults of every knob but the
    Analyze window, :data:`WINDOW_S`.
    """
    scenario = resolve_scenario(scenario_name)
    clock = WallClock(speed=speed)
    cfg = ServeConfig(
        era_s=era_s,
        window_s=WINDOW_S,
        monitor_period_s=max(era_s / 6.0, 1.0),
        seed=seed,
    )
    service = AcmService(scenario, clock, cfg)
    if victim is None:
        victim = service.regions[-1]
    if victim not in service.regions:
        raise ValueError(
            f"unknown victim region {victim!r}; have {service.regions}"
        )
    async with serving(service) as ingress:

        def load_cfg(phase_seed: int) -> LoadConfig:
            return LoadConfig(
                url=f"http://127.0.0.1:{ingress.port}",
                rate=rate,
                duration_s=phase_s,
                schedule=schedule,
                connections=connections,
                seed=phase_seed,
            )

        baseline = await run_load(load_cfg(seed))
        service.chaos.region_blackout(victim)
        blackout = await run_load(load_cfg(seed + 1))
        # the heal path clears the live MTTR entry; read it first
        mttr_s = service.mttr_s.get(victim)
        service.chaos.region_heal(victim)
        recovery = await run_load(load_cfg(seed + 2))
        plan = service.plan_snapshot()
        regions = service.regions_snapshot()

    lag = _histogram_summary(service, "acm_plan_propagation_seconds")
    return {
        "scenario": scenario_name,
        "victim": victim,
        "seed": seed,
        "rate_rps": rate,
        "speed": speed,
        "era_s": era_s,
        "phases": {
            "baseline": baseline.as_dict(),
            "blackout": blackout.as_dict(),
            "recovery": recovery.as_dict(),
        },
        "failover_mttr_s": mttr_s,
        "detector_bound_s": _detector_bound(service),
        "plan_propagation": lag,
        "final_plan": plan,
        "final_regions": regions,
    }


def _detector_bound(service: AcmService) -> float:
    """Worst-case clock seconds from blackout to a routed-around plan.

    The Plan phase zeroes dead regions outright (no need to wait
    :data:`~repro.core.degradation.STALE_AFTER_ERAS` for the quorum
    ladder), so the bound is one
    full era (the region can die right after a tick), the Analyze
    window, one monitor period of detection slack, and a second of
    channel-retry slop.
    """
    cfg = service.config
    return cfg.era_s + cfg.window_s + cfg.monitor_period_s + 1.0


def _histogram_summary(service: AcmService, name: str) -> dict | None:
    snap = service.telemetry.snapshot()
    for hist in snap["metrics"].get("histograms", []):
        if hist["name"] == name:
            return {
                "count": hist["count"],
                "sum_s": hist["sum"],
                "mean_s": hist["sum"] / hist["count"]
                if hist["count"]
                else None,
            }
    return None
