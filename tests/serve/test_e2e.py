"""End-to-end serve test: boot, load over HTTP, blackout, failover.

Boots the real stack -- :class:`WallClock` at high compression,
:class:`AcmService`, :class:`HttpIngress` on an ephemeral port, the
open-loop load generator over real TCP -- blacks out a region mid-run
with the :class:`ChaosEngine`, and asserts the deployment keeps serving
and that the control loop routes around the dead region within the
detector bound (one era + the Analyze window + a monitor period +
channel slop).

Latency numbers jitter run to run (real sockets); everything asserted
here is a structural property of the protocol, not a timing percentile.
"""

from __future__ import annotations

import asyncio

import pytest

import repro.experiments.serve_campaign as serve_campaign
from repro.experiments.serve_campaign import run_blackout_campaign
from repro.experiments.scenarios import two_region_scenario
from repro.serve import (
    AcmService,
    LoadConfig,
    ServeConfig,
    WallClock,
    run_load,
    serving,
)

#: Clock compression for the tests: a 6 s era ticks every 50 ms wall.
SPEED = 120.0


def test_boot_load_blackout_failover_mttr():
    """The ISSUE's acceptance path, compressed: ~2 s of wall clock."""

    async def scenario() -> dict:
        clock = WallClock(speed=SPEED)
        cfg = ServeConfig(
            era_s=6.0, window_s=1.0, monitor_period_s=1.0, seed=7
        )
        service = AcmService(two_region_scenario(), clock, cfg)
        victim = service.regions[1]
        async with serving(service) as ingress:

            def load(seed: int, duration: float) -> LoadConfig:
                return LoadConfig(
                    url=f"http://127.0.0.1:{ingress.port}",
                    rate=250.0,
                    duration_s=duration,
                    connections=4,
                    seed=seed,
                )

            healthy = await run_load(load(7, 0.7))
            service.chaos.region_blackout(victim)
            dark = await run_load(load(8, 0.9))
            mttr = service.mttr_s.get(victim)
            plan = service.plan_snapshot()
            regions = service.regions_snapshot()
        return {
            "victim": victim,
            "healthy": healthy,
            "dark": dark,
            "mttr": mttr,
            "plan": plan,
            "regions": regions,
            "bound": cfg.era_s + cfg.window_s + cfg.monitor_period_s + 1.0,
            "index": service._index[victim],
        }

    out = asyncio.run(scenario())

    # the healthy phase served essentially everything it scheduled
    healthy = out["healthy"]
    assert healthy.completed > 100
    assert healthy.errors == 0
    assert healthy.ok == healthy.completed - healthy.shed

    # with one region dark, traffic kept flowing: requests that sampled
    # the dead region failed over, none were dropped on the floor
    dark = out["dark"]
    assert dark.completed > 100
    assert dark.errors == 0
    assert dark.ok > 0

    # the control loop observed the failure and planned around it
    # within the detector bound
    assert out["mttr"] is not None, "no failover MTTR was recorded"
    assert 0.0 < out["mttr"] <= out["bound"]

    # the final plan carries (approximately) nothing for the dead region
    assert out["plan"]["fractions"][out["index"]] <= 1e-9
    snap = out["regions"]["regions"][out["victim"]]
    assert snap["alive"] is False
    assert snap["mttr_s"] == out["mttr"]


def test_campaign_report_shape_and_recovery(monkeypatch):
    """The scripted campaign heals the victim and reports every field."""
    monkeypatch.setattr(serve_campaign, "WINDOW_S", 1.0)
    report = asyncio.run(
        run_blackout_campaign(
            scenario_name="two-region",
            victim=None,
            schedule="poisson",
            rate=150.0,
            phase_s=0.7,
            speed=SPEED,
            era_s=6.0,
            seed=11,
            connections=2,
        )
    )
    assert set(report["phases"]) == {"baseline", "blackout", "recovery"}
    for phase in report["phases"].values():
        assert phase["completed"] > 0
        assert phase["errors"] == 0
    assert report["failover_mttr_s"] is not None
    assert report["failover_mttr_s"] <= report["detector_bound_s"]
    lag = report["plan_propagation"]
    assert lag is not None and lag["count"] >= 1
    # healed: the victim is back on the mesh by the end of the run
    assert report["final_regions"]["regions"][report["victim"]]["alive"]


def test_an_exception_before_the_first_await_leaves_serving():
    """A block that raises before it ever awaits stops the clock before
    the dispatcher task first runs; the exception still reaches the
    caller, and the teardown does not wait on a dispatcher that idles."""

    async def scenario() -> None:
        clock = WallClock(speed=SPEED)
        service = AcmService(two_region_scenario(), clock, ServeConfig(seed=7))
        async with serving(service):
            raise ValueError("raised before the first await")

    async def bounded() -> None:
        await asyncio.wait_for(scenario(), timeout=5.0)

    with pytest.raises(ValueError, match="before the first await"):
        asyncio.run(bounded())
