"""DIST -- the decentralised control plane's overhead and accuracy.

Figure 1 shows "commands / features / state / global system state" flowing
over the overlay.  This bench runs the full distributed composition
(heartbeat detectors + anti-entropy gossip + the MAPE loop, whose reports
and fraction pushes travel as acked messages) and measures:

* leader-view accuracy: how often the decentralised detector views agree
  with the oracle leader (should be ~always when healthy);
* state freshness: how stale any controller's view of any region gets;
* message cost: bus messages per control era (the overhead of running the
  protocols).
"""

from repro.core import AcmManager, RegionSpec
from repro.core.distributed import (
    CONTROL_WINDOW_S,
    GOSSIP_PERIOD_S,
    HEARTBEAT_PERIOD_S,
    DistributedControlPlane,
)


def build_plane(seed=61):
    mgr = AcmManager(
        regions=[
            RegionSpec("region1", "m3.medium", 6, 4, 128),
            RegionSpec("region2", "m3.small", 8, 6, 192),
            RegionSpec("region3", "private.small", 4, 3, 64),
        ],
        policy="available-resources",
        seed=seed,
    )
    return mgr, DistributedControlPlane(mgr.loop)


def test_distributed_plane_accuracy_and_cost(benchmark):
    mgr, plane = build_plane()
    reports = plane.run(40)
    agreement = plane.agreement_fraction()
    worst_staleness = max(r.max_staleness_eras for r in reports[5:])
    msgs_per_era = plane.bus.delivered_count / len(reports)
    print(
        f"\ndistributed control plane over {len(reports)} eras:\n"
        f"  leader-view agreement : {agreement:.2%}\n"
        f"  worst state staleness : {worst_staleness} eras\n"
        f"  bus messages per era  : {msgs_per_era:.1f}"
    )
    assert agreement > 0.9
    assert worst_staleness <= 3
    # an era spans era_s plus the two control windows of simulated time;
    # in it each of 3 nodes beats to 2 peers every heartbeat period and
    # pushes gossip every gossip period, and 2 reports + 2 fraction
    # pushes go out, each acked: the protocol cost stays bounded
    span_s = mgr.loop.config.era_s + 2 * CONTROL_WINDOW_S
    budget = 3 * 2 * span_s / HEARTBEAT_PERIOD_S + 3 * span_s / GOSSIP_PERIOD_S + 8
    assert msgs_per_era <= budget

    def unit():
        m, p = build_plane()
        p.run(5)
        return p

    benchmark(unit)


def test_distributed_leader_failover_latency(benchmark):
    """After the leader crashes, detector views re-converge within the
    detector timeout (15 s < one 30 s era)."""
    mgr, plane = build_plane()
    plane.run(8)
    mgr.loop.overlay.fail_node("region1")
    plane.detectors["region1"].stop()
    reports = plane.run(2)
    last = reports[-1]
    assert all(
        leader == "region2" for leader in last.detector_leaders.values()
    )
    print(
        "\nfailover: all survivor views switched to region2 within "
        f"{(len(reports)) * mgr.loop.config.era_s:.0f}s of the crash"
    )

    def unit():
        m, p = build_plane()
        p.run(3)
        return p

    benchmark(unit)
