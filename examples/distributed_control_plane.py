"""The decentralised control plane: detectors, gossip, and takeover.

Figure 1 of the paper shows three kinds of traffic on the controller
overlay: application data, commands/features, and the replicated *global
system state*.  This demo runs the composed distributed machinery --
heartbeat failure detectors, anti-entropy state gossip, and the loop's
RMTTF reports and fraction pushes as acked messages -- underneath the
MAPE loop, then crashes the leader and watches:

1. every surviving controller's *local* detector view switch leaders
   within the detector timeout (no global oracle involved);
2. the new leader already holding warm state for every region (thanks to
   gossip), so balancing continues seamlessly;
3. the recovered controller rejoin and reclaim leadership.

Run with::

    python examples/distributed_control_plane.py
"""

from repro.core import AcmManager, RegionSpec
from repro.core.distributed import DistributedControlPlane


def show(report, regions):
    views = " ".join(
        f"{n.split('-')[0] if '-' in n else n}->{l}"
        for n, l in sorted(report.detector_leaders.items())
    )
    print(
        f"  era {report.summary.era:3d} oracle={report.oracle_leader:<8} "
        f"views[{views}] stale<={report.max_staleness_eras}"
    )


def main() -> None:
    manager = AcmManager(
        regions=[
            RegionSpec("region1", "m3.medium", 6, 4, 128),
            RegionSpec("region2", "m3.small", 8, 6, 192),
            RegionSpec("region3", "private.small", 4, 3, 64),
        ],
        policy="available-resources",
        seed=47,
    )
    plane = DistributedControlPlane(manager.loop)
    regions = manager.region_names()

    print("phase 1: healthy plane (detector views should match the oracle)")
    for r in plane.run(8):
        if r.summary.era % 4 == 0:
            show(r, regions)

    print("\nphase 2: the leader's controller crashes")
    manager.loop.overlay.fail_node("region1")
    plane.detectors["region1"].stop()
    for r in plane.run(4):
        show(r, regions)
    print("  region2's inherited state view:")
    for region, payload in sorted(plane.state_view("region2").items()):
        print(
            f"    {region:<10} era={payload['era']:3d} "
            f"rmttf={payload['rmttf']:7.0f}s f={payload['fraction']:.3f}"
        )

    print("\nphase 3: region1 recovers and reclaims leadership")
    manager.loop.overlay.restore_node("region1")
    plane.detectors["region1"].start()
    for r in plane.run(4):
        show(r, regions)

    print(
        f"\nover the whole run: leader-view agreement "
        f"{plane.agreement_fraction():.0%}, bus messages "
        f"{plane.bus.delivered_count} (dropped {plane.bus.dropped_count})"
    )


if __name__ == "__main__":
    main()
