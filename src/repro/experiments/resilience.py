"""Canned resilience campaigns: chaos injection against the control plane.

Each campaign builds the same hardened three-region deployment -- a
:class:`~repro.core.distributed.DistributedControlPlane` with reliable
control messaging over a :class:`~repro.chaos.lossy.LossyBus`, every VMC
predictor wrapped in a :class:`~repro.chaos.predictor.CorruptiblePredictor`
-- and drives a scripted :class:`~repro.chaos.engine.ChaosEngine` fault
schedule against it, era by era.  The campaigns are the executable form
of the failure stories the paper tells qualitatively (Sec. III: "the
source of faults and failures is manifold"):

``rolling-link-flaps``
    One overlay link at a time goes down and comes back; the full mesh
    should reroute around every flap with no visible degradation.
``message-loss``
    30% of all bus datagrams silently vanish (plus latency jitter); the
    ack/retry channel should mask the loss almost completely.
``leader-kill``
    The leader's controller crashes mid-run *while* 30% of messages are
    being lost; the detectors must converge on the next leader within
    :func:`recovery_bound_eras` eras.
``blackout-heal``
    A whole region goes dark (controller and ACTIVE VMs) and later
    heals; the campaign reports the unavailability window and MTTR.
``rack-blackout-flashcrowd``
    Under a 2x load spike on region1, one of its racks loses power;
    the reactive-rejuvenation path plus the anti-affinity spread cap
    (``spread_k=1``) must keep the region serving while the rack's VMs
    recover.  Runs on the *hierarchical* deployment (2 AZs x 2 racks
    per region) and reports per-domain availability and MTTR.
``az-partition``
    One availability zone of region2 is cut off (its ACTIVE VMs crash)
    and later healed; hierarchical deployment, with the
    :class:`~repro.topology.health.DomainHealthTracker` timeline in the
    report.
``partition``
    The leader's region is cut off the overlay mesh; the others stop
    hearing its reports, and the plan walks the degradation ladder down
    to its fallback rung until the cut heals.
``crash-storm``
    Crash storms of growing locality -- a seeded half of region2, a
    seeded half of an AZ of region1, then a whole rack of region1 --
    each healed in turn; hierarchical deployment.
``cooling``
    A cooling failure quadruples the anomaly hazard of every VM in one
    AZ for ten eras; hierarchical deployment.
``predictor-corruption``
    Every region's RTTF predictor returns NaN long enough to reach the
    fallback rung; then one region's predicts stale values and
    another's zero.
``smoke``
    A fast mixed campaign (loss + one flap) for CI.

Everything is seeded: same campaign + same seed replays a bit-identical
fault log, degradation timeline, and final fraction mix (the acceptance
tests assert exactly that).

Health is judged at two levels each era:

* *control-healthy*: every live detector agrees on the oracle leader and
  the loop's degradation mode is ``normal``;
* *service-healthy*: control-healthy **and** every region's controller
  is alive **and** every region still has at least one ACTIVE VM.

Unavailability windows, MTTR, and the ``recovered`` verdict derive from
the service-health timeline; the message counters come straight from the
:class:`~repro.overlay.reliable.ChannelStats` and bus drop accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.chaos import ChaosEngine, CorruptiblePredictor, FaultEvent, LossyBus
from repro.core.degradation import STALE_AFTER_ERAS
from repro.core.distributed import (
    DETECTOR_TIMEOUT_S,
    HEARTBEAT_PERIOD_S,
    DistributedControlPlane,
    PlaneEraReport,
)
from repro.core.manager import AcmManager, RegionSpec
from repro.obs.manifest import RunManifest
from repro.obs.telemetry import Telemetry
from repro.pcam.vm import VmState
from repro.topology import DomainHealthTracker

#: One scripted fault action, applied to the engine at an era boundary.
FaultAction = Callable[[ChaosEngine], None]
#: A campaign script: era index -> fault actions fired before that era.
FaultScript = dict[int, list[FaultAction]]


def recovery_bound_eras(era_s: float = 30.0) -> int:
    """Eras within which the plane must re-converge after a leader death.

    The heartbeat detector suspects a crashed peer within
    ``DETECTOR_TIMEOUT_S + max_path_latency`` of its last beat (see
    :mod:`repro.overlay.heartbeat`); one period covers the beat that was
    already in flight, and path latencies are milliseconds against eras
    of seconds.  On top of the detection delay, the degradation tracker
    forgives ``STALE_AFTER_ERAS`` of missing reports before judging, and
    the loop needs one further era to act on the converged view.
    """
    detect_eras = math.ceil((DETECTOR_TIMEOUT_S + HEARTBEAT_PERIOD_S) / era_s)
    return detect_eras + STALE_AFTER_ERAS + 1


# --------------------------------------------------------------------- #
# the campaign testbed
# --------------------------------------------------------------------- #

#: The campaign deployment: the paper's three-region shape, scaled for
#: fast simulation (short rejuvenation so blackout recovery fits a run).
CAMPAIGN_REGIONS = (
    RegionSpec("region1", "m3.medium", 6, 4, 96, rejuvenation_time_s=60.0),
    RegionSpec("region2", "m3.small", 8, 6, 160, rejuvenation_time_s=60.0),
    RegionSpec("region3", "private.small", 4, 3, 48, rejuvenation_time_s=60.0),
)

#: The hierarchical variant: same regions, each spread over 2 AZs with
#: 2 racks apiece, so correlated domain faults have something to hit.
HIERARCHICAL_REGIONS = tuple(
    replace(spec, n_azs=2, racks_per_az=2) for spec in CAMPAIGN_REGIONS
)

_LINK_PAIRS = (
    ("region1", "region2"),
    ("region1", "region3"),
    ("region2", "region3"),
)


@dataclass
class _Deployment:
    """Everything one campaign run drives."""

    manager: AcmManager
    plane: DistributedControlPlane
    engine: ChaosEngine
    health: DomainHealthTracker | None = None


def _build_deployment(
    seed: int,
    era_s: float = 30.0,
    telemetry: Telemetry | None = None,
    hierarchical: bool = False,
    spread_k: int = 0,
) -> _Deployment:
    regions = HIERARCHICAL_REGIONS if hierarchical else CAMPAIGN_REGIONS
    manager = AcmManager(
        regions=list(regions),
        policy="available-resources",
        seed=seed,
        era_s=era_s,
        telemetry=telemetry,
        spread_k=spread_k,
    )
    loop = manager.loop
    chaos_net_rng = manager.rngs.stream("chaos/network")

    def bus_factory(sim, router):
        return LossyBus(
            sim=sim, router=router, rng=chaos_net_rng, telemetry=telemetry
        )

    plane = DistributedControlPlane(
        loop,
        bus_factory=bus_factory,
        telemetry=telemetry,
    )
    predictors = {}
    for region, vmc in loop.vmcs.items():
        vmc.predictor = predictors[region] = CorruptiblePredictor(
            vmc.predictor
        )
    health = (
        DomainHealthTracker(manager.domains, telemetry=telemetry)
        if hierarchical
        else None
    )
    engine = ChaosEngine(
        plane.sim,
        manager.rngs.stream("chaos"),
        overlay=loop.overlay,
        vmcs=loop.vmcs,
        bus=plane.bus,
        predictors=predictors,
        telemetry=telemetry,
        domains=manager.domains,
        health=health,
        populations=loop.populations,
    )
    return _Deployment(
        manager=manager, plane=plane, engine=engine, health=health
    )


# --------------------------------------------------------------------- #
# results
# --------------------------------------------------------------------- #


@dataclass
class CampaignResult:
    """Everything a resilience campaign measured."""

    name: str
    seed: int
    eras: int
    era_s: float
    #: every applied fault primitive, stamped with the plane clock
    fault_log: list[FaultEvent]
    #: era index -> kinds of the faults injected at its start
    era_faults: dict[int, tuple[str, ...]]
    degradation: list[str]
    leaders: list[str]
    views_agree: list[bool]
    #: per-era service health (see module docstring)
    healthy: list[bool]
    #: maximal unhealthy runs as half-open era ranges ``[start, end)``
    unavailability_windows: list[tuple[int, int]]
    #: mean repair time over the windows that closed (NaN when none did)
    mttr_s: float
    recovered: bool
    message_stats: dict[str, int]
    final_fractions: dict[str, float] = field(default_factory=dict)
    #: per-domain availability (hierarchical campaigns only; empty else)
    domain_availability: dict[str, float] = field(default_factory=dict)
    #: per-domain MTTR over closed unhealthy windows (NaN = none closed)
    domain_mttr_s: dict[str, float] = field(default_factory=dict)
    #: cumulative correlated-fault count per domain path
    domain_faults: dict[str, int] = field(default_factory=dict)
    #: rejuvenations deferred by the anti-affinity spread cap
    spread_deferrals: int = 0

    @property
    def unavailable_eras(self) -> int:
        return sum(1 for h in self.healthy if not h)

    @property
    def availability(self) -> float:
        """Share of eras the deployment was service-healthy."""
        return 1.0 - self.unavailable_eras / self.eras

    @property
    def degraded_eras(self) -> int:
        return sum(1 for mode in self.degradation if mode != "normal")


def _service_healthy(
    plane: DistributedControlPlane, report: PlaneEraReport
) -> bool:
    loop = plane.loop
    if not report.views_agree:
        return False
    if report.summary.degradation != "normal":
        return False
    if not all(loop.overlay.is_alive(r) for r in loop.regions):
        return False
    return min(report.summary.active_vms.values()) >= 1


def _unhealthy_windows(healthy: list[bool]) -> list[tuple[int, int]]:
    windows: list[tuple[int, int]] = []
    start: int | None = None
    for era, ok in enumerate(healthy):
        if not ok and start is None:
            start = era
        elif ok and start is not None:
            windows.append((start, era))
            start = None
    if start is not None:
        windows.append((start, len(healthy)))
    return windows


def _collect_message_stats(plane: DistributedControlPlane) -> dict[str, int]:
    stats = dict(plane.channel.stats.as_dict())
    # sends still awaiting an ack or their last timeout when the run
    # ended: sent == acked + gave_up + in_flight
    stats["in_flight"] = plane.channel.pending_count()
    bus = plane.bus
    stats["bus_delivered"] = bus.delivered_count
    stats["bus_dropped"] = bus.dropped_count
    for reason, count in sorted(bus.drop_counts.items()):
        stats[f"drop_{reason}"] = count
    stats["chaos_dropped"] = getattr(bus, "chaos_dropped", 0)
    stats["chaos_delayed"] = getattr(bus, "chaos_delayed", 0)
    return stats


def _rack_active_counts(plane: DistributedControlPlane) -> dict[int, int]:
    """Per-rack ACTIVE VM counts across every region's VMC."""
    counts: dict[int, int] = {}
    for vmc in plane.loop.vmcs.values():
        for vm in vmc.vms:
            if vm.state is VmState.ACTIVE:
                counts[vm.rack_id] = counts.get(vm.rack_id, 0) + 1
    return counts


def _run_script(
    name: str,
    script: FaultScript,
    eras: int,
    seed: int,
    era_s: float,
    telemetry: Telemetry | None = None,
    hierarchical: bool = False,
    spread_k: int = 0,
) -> CampaignResult:
    dep = _build_deployment(
        seed,
        era_s=era_s,
        telemetry=telemetry,
        hierarchical=hierarchical,
        spread_k=spread_k,
    )
    plane, engine, health = dep.plane, dep.engine, dep.health
    reports: list[PlaneEraReport] = []
    healthy: list[bool] = []
    era_faults: dict[int, tuple[str, ...]] = {}
    tel = (
        telemetry if telemetry is not None and telemetry.enabled else None
    )
    try:
        for era in range(eras):
            before = len(engine.log)
            for action in script.get(era, ()):
                action(engine)
            if len(engine.log) > before:
                era_faults[era] = tuple(
                    ev.kind for ev in engine.log[before:]
                )
            report = plane.run_era()
            reports.append(report)
            healthy.append(_service_healthy(plane, report))
            if health is not None:
                health.observe_era(era, _rack_active_counts(plane))
    finally:
        # even a crashed campaign leaves its flight recorder behind
        if tel is not None:
            tel.event(
                "campaign.end",
                campaign=name,
                eras_completed=len(reports),
                aborted=len(reports) < eras,
            )
            tel.maybe_autodump()
    windows = _unhealthy_windows(healthy)
    closed = [(a, b) for a, b in windows if b < eras]
    mttr_s = (
        float(np.mean([(b - a) * era_s for a, b in closed]))
        if closed
        else float("nan")
    )
    domain_availability: dict[str, float] = {}
    domain_mttr_s: dict[str, float] = {}
    if health is not None:
        for domain in dep.manager.domains.domains():
            domain_availability[domain] = health.availability(domain)
            dwindows = _unhealthy_windows(health.timeline(domain))
            dclosed = [(a, b) for a, b in dwindows if b < eras]
            if dclosed:
                domain_mttr_s[domain] = float(
                    np.mean([(b - a) * era_s for a, b in dclosed])
                )
    last = reports[-1].summary
    return CampaignResult(
        name=name,
        seed=seed,
        eras=eras,
        era_s=era_s,
        fault_log=list(engine.log),
        era_faults=era_faults,
        degradation=[r.summary.degradation for r in reports],
        leaders=[r.oracle_leader for r in reports],
        views_agree=[r.views_agree for r in reports],
        healthy=healthy,
        unavailability_windows=windows,
        mttr_s=mttr_s,
        recovered=bool(healthy[-1]),
        message_stats=_collect_message_stats(plane),
        final_fractions=dict(last.fractions),
        domain_availability=domain_availability,
        domain_mttr_s=domain_mttr_s,
        domain_faults=dict(health.fault_counts) if health else {},
        spread_deferrals=sum(
            vmc.spread_deferrals for vmc in plane.loop.vmcs.values()
        ),
    )


# --------------------------------------------------------------------- #
# campaign scripts
# --------------------------------------------------------------------- #


def _add(script: FaultScript, era: int, action: FaultAction) -> None:
    script.setdefault(era, []).append(action)


def _script_rolling_link_flaps(eras: int) -> FaultScript:
    """One link down at a time, rotating through the mesh."""
    script: FaultScript = {}
    k = 0
    for era in range(5, max(6, eras - 5), 3):
        a, b = _LINK_PAIRS[k % len(_LINK_PAIRS)]
        k += 1
        _add(script, era, lambda e, a=a, b=b: e.fail_link(a, b))
        _add(script, era + 1, lambda e, a=a, b=b: e.restore_link(a, b))
    return script


def _script_message_loss(eras: int) -> FaultScript:
    """30% datagram loss plus 20 ms jitter for most of the run."""
    script: FaultScript = {}
    start = min(5, max(1, eras // 4))
    stop = max(start + 1, eras - 8)
    _add(script, start, lambda e: e.set_message_loss(0.3))
    _add(script, start, lambda e: e.set_latency_jitter(20.0))
    _add(script, stop, lambda e: e.set_message_loss(0.0))
    _add(script, stop, lambda e: e.set_latency_jitter(0.0))
    return script


def _script_leader_kill(eras: int) -> FaultScript:
    """Crash the leader while 30% of messages are being lost."""
    script: FaultScript = {}
    loss_on = min(5, max(1, eras // 4))
    kill = loss_on + 3
    revive = max(kill + 1, eras - 12)
    loss_off = max(revive + 1, eras - 8)
    _add(script, loss_on, lambda e: e.set_message_loss(0.3))
    # region1 is the min-id leader of a healthy overlay
    _add(script, kill, lambda e: e.crash_node("region1"))
    _add(script, revive, lambda e: e.restore_node("region1"))
    _add(script, loss_off, lambda e: e.set_message_loss(0.0))
    return script


def _script_blackout_heal(eras: int) -> FaultScript:
    """A whole region goes dark, then heals mid-run."""
    script: FaultScript = {}
    dark = min(8, max(1, eras // 4))
    heal = max(dark + 1, min(eras - 12, dark + 12))
    _add(script, dark, lambda e: e.region_blackout("region3"))
    _add(script, heal, lambda e: e.region_heal("region3"))
    return script


def _script_rack_blackout_flashcrowd(eras: int) -> FaultScript:
    """Double region1's load, then power-fail one of its racks."""
    script: FaultScript = {}
    crowd = min(2, max(1, eras // 8))
    dark = crowd + 2
    heal = max(dark + 1, min(eras - 4, dark + 6))
    calm = max(heal + 1, eras - 2)
    _add(script, crowd, lambda e: e.flash_crowd("region1", 2.0))
    _add(script, dark, lambda e: e.crash_vms("region1/az0/rack0"))
    _add(script, heal, lambda e: e.domain_heal("region1/az0/rack0"))
    _add(script, calm, lambda e: e.flash_crowd_end("region1"))
    return script


def _script_az_partition(eras: int) -> FaultScript:
    """Cut region2's az1 off (its ACTIVE VMs crash), heal it later.

    az1 does not host the region's controller, so the region's overlay
    node stays in the mesh; the question is how fast the AZ's rack
    timelines recover.
    """
    script: FaultScript = {}
    cut_at = min(5, max(1, eras // 4))
    heal_at = max(cut_at + 1, min(eras - 6, cut_at + 8))
    _add(script, cut_at, lambda e: e.crash_vms("region2/az1"))
    _add(script, heal_at, lambda e: e.domain_heal("region2/az1"))
    return script


def _script_partition(eras: int) -> FaultScript:
    """Cut the leader, region1, off the mesh; heal the cut later.

    The other two regions stop hearing region1's RMTTF reports, so the
    plan walks the degradation ladder down to its fallback rung before
    the heal.
    """
    script: FaultScript = {}
    cut: list[tuple[str, str]] = []
    start = min(4, max(1, eras // 4))
    heal = max(start + 1, eras - 12)
    _add(script, start, lambda e: cut.extend(e.partition(["region1"])))
    _add(script, heal, lambda e: e.heal_partition(cut))
    return script


def _script_crash_storm(eras: int) -> FaultScript:
    """Three crash storms, each healed three eras on: half of region2,
    half of region1's az1, then one whole rack of region1."""
    script: FaultScript = {}
    storms = (
        ("region2", 0.5),
        ("region1/az1", 0.5),
        ("region1/az0/rack0", 1.0),
    )
    for k, (domain, fraction) in enumerate(storms):
        era = 3 + 5 * k
        _add(script, era, lambda e, d=domain, f=fraction: e.crash_vms(d, f))
        _add(script, era + 3, lambda e, d=domain: e.domain_heal(d))
    return script


def _script_cooling(eras: int) -> FaultScript:
    """Quadruple the anomaly hazard across region1's az0 for ten eras."""
    script: FaultScript = {}
    start = min(3, max(1, eras // 8))
    stop = max(start + 1, min(eras - 4, start + 10))
    _add(script, start, lambda e: e.cooling_failure("region1/az0", 4.0))
    _add(script, stop, lambda e: e.cooling_restore("region1/az0"))
    return script


def _script_predictor_corruption(eras: int) -> FaultScript:
    """Every region predicts NaN long enough to reach the fallback rung;
    then region2 predicts stale values and region3 zero, one at a time."""
    script: FaultScript = {}
    _add(script, 4, lambda e: e.corrupt_predictor("nan"))
    _add(script, 16, lambda e: e.corrupt_predictor("off"))
    _add(script, 18, lambda e: e.corrupt_predictor("stale", "region2"))
    _add(script, 22, lambda e: e.corrupt_predictor("off", "region2"))
    _add(script, 24, lambda e: e.corrupt_predictor("zero", "region3"))
    _add(script, 28, lambda e: e.corrupt_predictor("off", "region3"))
    return script


def _script_smoke(eras: int) -> FaultScript:
    """Quick mixed campaign for CI: brief loss plus one link flap."""
    script: FaultScript = {}
    _add(script, 2, lambda e: e.set_message_loss(0.2))
    _add(script, 4, lambda e: e.fail_link("region1", "region2"))
    _add(script, 5, lambda e: e.restore_link("region1", "region2"))
    _add(script, 6, lambda e: e.set_message_loss(0.0))
    return script


@dataclass(frozen=True)
class CampaignSpec:
    """A named, parameterless campaign (script drawn from eras + seed)."""

    name: str
    description: str
    default_eras: int
    build_script: Callable[[int], FaultScript]
    #: run on the 2 AZ x 2 rack deployment with a DomainHealthTracker
    hierarchical: bool = False
    #: anti-affinity spread cap handed to every VMC (0 = off)
    spread_k: int = 0


#: The fewest eras a campaign runs (``run_campaign`` refuses fewer).
MIN_CAMPAIGN_ERAS = 4

#: The canned campaign registry, in documentation order.
CAMPAIGNS: dict[str, CampaignSpec] = {
    spec.name: spec
    for spec in (
        CampaignSpec(
            "rolling-link-flaps",
            "rotate a single overlay-link failure through the mesh",
            36,
            _script_rolling_link_flaps,
        ),
        CampaignSpec(
            "message-loss",
            "30% datagram loss + latency jitter on all plane traffic",
            24,
            _script_message_loss,
        ),
        CampaignSpec(
            "leader-kill",
            "crash the leader mid-run under 30% message loss",
            36,
            _script_leader_kill,
        ),
        CampaignSpec(
            "blackout-heal",
            "black out region3 (controller + VMs), heal it later",
            40,
            _script_blackout_heal,
        ),
        CampaignSpec(
            "rack-blackout-flashcrowd",
            "power-fail a region1 rack during a 2x load spike",
            18,
            _script_rack_blackout_flashcrowd,
            hierarchical=True,
            spread_k=1,
        ),
        CampaignSpec(
            "az-partition",
            "partition one AZ of region2 off, heal it later",
            24,
            _script_az_partition,
            hierarchical=True,
        ),
        CampaignSpec(
            "partition",
            "cut the leader (region1) off the mesh, heal it later",
            30,
            _script_partition,
        ),
        CampaignSpec(
            "crash-storm",
            "crash half of a region, half of an AZ, then a whole rack",
            24,
            _script_crash_storm,
            hierarchical=True,
        ),
        CampaignSpec(
            "cooling",
            "quadruple the anomaly hazard across one AZ of region1",
            24,
            _script_cooling,
            hierarchical=True,
        ),
        CampaignSpec(
            "predictor-corruption",
            "NaN predictions everywhere, then stale and zero in one region",
            34,
            _script_predictor_corruption,
        ),
        CampaignSpec(
            "smoke",
            "fast mixed campaign (loss + one flap) for CI",
            10,
            _script_smoke,
        ),
    )
}


def run_campaign(
    name: str,
    eras: int | None = None,
    seed: int = 7,
    era_s: float = 30.0,
    telemetry: Telemetry | None = None,
) -> CampaignResult:
    """Run one canned campaign; see :data:`CAMPAIGNS` for the names.

    An enabled ``telemetry`` facade is threaded through the whole
    deployment (manager, lossy bus, plane, chaos engine); the campaign
    stamps it with a run manifest, records a ``campaign.end`` flight
    event, and -- if ``telemetry.autodump_path`` is set -- dumps the
    telemetry snapshot even when the campaign aborts mid-run.
    """
    spec = CAMPAIGNS.get(name)
    if spec is None:
        raise ValueError(
            f"unknown campaign {name!r}; pick one of {sorted(CAMPAIGNS)}"
        )
    n_eras = spec.default_eras if eras is None else int(eras)
    if n_eras < MIN_CAMPAIGN_ERAS:
        raise ValueError(
            f"campaigns need at least {MIN_CAMPAIGN_ERAS} eras"
        )
    if telemetry is not None and telemetry.enabled:
        telemetry.set_manifest(
            RunManifest.build(
                seed=seed,
                config={
                    "campaign": spec.name,
                    "eras": n_eras,
                    "era_s": era_s,
                    "hierarchical": spec.hierarchical,
                    "spread_k": spec.spread_k,
                },
                campaign=spec.name,
                eras=n_eras,
            )
        )
    return _run_script(
        spec.name,
        spec.build_script(n_eras),
        n_eras,
        seed,
        era_s,
        telemetry=telemetry,
        hierarchical=spec.hierarchical,
        spread_k=spec.spread_k,
    )


# --------------------------------------------------------------------- #
# fleet-backed campaign suite
# --------------------------------------------------------------------- #


def run_campaign_suite(
    seed: int = 7, eras: int | None = None, workers: int = 1
) -> "FleetOutcome":
    """Run every campaign once on the fleet executor.

    The suite is the chaos cells of a :class:`~repro.fleet.spec.SweepSpec`
    rooted at ``seed``, so each cell's seed derives from it as a sweep
    cell's does; the report prints it, and ``repro chaos <name> --seed
    <printed seed>`` replays that cell.  Returns the raw
    :class:`~repro.fleet.executor.FleetOutcome` (payloads in job
    order); render it with :func:`report_campaign_suite`.
    """
    from repro.fleet.executor import FleetExecutor
    from repro.fleet.spec import SweepSpec

    spec = SweepSpec(
        scenarios=(),
        campaigns=tuple(CAMPAIGNS),
        root_seed=seed,
        campaign_eras=eras or 0,
    )
    return FleetExecutor(workers=workers).run(spec.expand())


def report_campaign_suite(outcome: "FleetOutcome") -> str:
    """One-line-per-campaign summary of a fleet suite run."""
    lines = [
        f"{'campaign':<20} {'seed':>20} {'avail':>7} {'MTTR':>8} "
        f"{'faults':>6} {'recovered':>9}"
    ]
    for job, payload in zip(outcome.jobs, outcome.payloads):
        if payload is None:
            lines.append(
                f"{job.scenario:<20} {job.seed:>20} "
                f"{'-':>7} {'-':>8} {'-':>6} {'FAILED':>9}"
            )
            continue
        mttr = (
            f"{payload['mttr_s']:.0f}s"
            if math.isfinite(payload["mttr_s"])
            else "n/a"
        )
        lines.append(
            f"{job.scenario:<20} {job.seed:>20} "
            f"{payload['availability']:>6.1%} {mttr:>8} "
            f"{payload['faults_injected']:>6} "
            f"{'YES' if payload['recovered'] else 'NO':>9}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------- #


def report_campaign(result: CampaignResult) -> str:
    """Human-readable campaign report (the ``repro chaos`` output)."""
    lines = [
        f"campaign : {result.name}  "
        f"(seed {result.seed}, {result.eras} eras x {result.era_s:.0f}s)",
        f"faults   : {len(result.fault_log)} injected",
    ]
    for ev in result.fault_log:
        detail = f"  {ev.detail}" if ev.detail else ""
        lines.append(
            f"  t={ev.time:9.1f}s  {ev.kind:<16} {ev.target}{detail}"
        )
    timeline = "".join("#" if h else "." for h in result.healthy)
    lines.append(f"health   : {timeline}")
    windows = ", ".join(
        f"[{a}, {b})" for a, b in result.unavailability_windows
    )
    lines.append(
        f"availability : {result.availability:.1%} "
        f"({result.unavailable_eras} unavailable eras"
        + (f" in windows {windows}" if windows else "")
        + ")"
    )
    mttr = (
        f"{result.mttr_s:.0f}s"
        if math.isfinite(result.mttr_s)
        else "n/a (no repaired window)"
    )
    lines.append(f"MTTR     : {mttr}")
    hold = sum(1 for m in result.degradation if m == "hold")
    fallback = sum(1 for m in result.degradation if m == "fallback")
    lines.append(f"degraded : hold={hold} fallback={fallback} eras")
    stats = result.message_stats
    lines.append(
        "channel  : sent={sent} acked={acked} retries={retries} "
        "gave_up={gave_up} duplicates={duplicates}".format(**stats)
    )
    lines.append(
        f"bus      : delivered={stats['bus_delivered']} "
        f"dropped={stats['bus_dropped']} "
        f"chaos_dropped={stats['chaos_dropped']} "
        f"chaos_delayed={stats['chaos_delayed']}"
    )
    mix = "  ".join(
        f"{region}={value:.3f}"
        for region, value in result.final_fractions.items()
    )
    lines.append(f"fractions: {mix}")
    if result.domain_availability:
        lines.append("domains  :")
        for domain, avail in result.domain_availability.items():
            faults = result.domain_faults.get(domain, 0)
            if avail >= 1.0 and not faults:
                continue
            mttr = result.domain_mttr_s.get(domain)
            lines.append(
                f"  {domain:<24} avail={avail:6.1%}"
                + (f"  MTTR={mttr:.0f}s" if mttr is not None else "")
                + (f"  faults={faults}" if faults else "")
            )
        lines.append(
            f"spread   : {result.spread_deferrals} "
            "rejuvenations deferred by the anti-affinity cap"
        )
    lines.append(
        "recovered: " + ("YES" if result.recovered else "NO")
    )
    return "\n".join(lines)
