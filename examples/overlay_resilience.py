"""Overlay resilience demo: link failures, rerouting, and leader takeover.

Sec. III: the controllers are interconnected "via an overlay network, which
selects the path with the smallest latency among two given controllers, and
is able to reroute connections in case of a network link failure.  Among
all the regions VMCs, a leader VMC is automatically elected ... tolerant to
multiple nodes and link failures."

The demo builds the paper's three-region topology, then:

1. fails the Ireland-Frankfurt link -- traffic reroutes via Munich;
2. crashes the leader (Ireland) -- Frankfurt takes over and the control
   loop keeps balancing the two surviving regions;
3. recovers Ireland -- leadership returns, and the region is re-absorbed
   into the balancing.

Run with::

    python examples/overlay_resilience.py
"""

from repro.core import AcmManager, RegionSpec
from repro.experiments.scenarios import three_region_scenario


def main() -> None:
    scenario = three_region_scenario()
    manager = AcmManager(
        regions=list(scenario.regions),
        policy="available-resources",
        seed=5,
        overlay=scenario.build_overlay(),
    )
    loop = manager.loop
    net = loop.overlay
    r1, r2, r3 = loop.regions  # sorted: ireland, frankfurt, munich

    def show(tag, s):
        fr = " ".join(f"{r.split('-')[0]}={s.fractions[r]:.2f}" for r in loop.regions)
        print(f"  era {s.era:3d} [{tag:<18}] leader={s.leader.split('-')[0]:<8} {fr}")

    print("phase 1: healthy mesh")
    for _ in range(20):
        s = loop.run_era()
        if s.era % 10 == 0:
            show("healthy", s)

    print("\nphase 2: Ireland-Frankfurt link fails (reroute via Munich)")
    net.fail_link(r1, r2)
    path, latency = loop.router.route(r1, r2)
    print(f"  new route {r1} -> {r2}: {' -> '.join(path)} ({latency:.0f} ms)")
    for _ in range(20):
        s = loop.run_era()
        if s.era % 10 == 0:
            show("link down", s)

    print("\nphase 3: leader region's controller crashes")
    net.fail_node(r1)
    for _ in range(20):
        s = loop.run_era()
        if s.era % 10 == 0:
            show("leader down", s)
    leaders = [rec.leader for rec in loop.election.history]
    print(f"  leaders so far: {' -> '.join(leaders)}")

    print("\nphase 4: Ireland recovers")
    net.restore_node(r1)
    net.restore_link(r1, r2)
    for _ in range(20):
        s = loop.run_era()
        if s.era % 10 == 0:
            show("recovered", s)

    print(f"\nfinal leader: {s.leader}")
    print(f"messages would reroute over {loop.router.route(r1, r2)[0]}")


if __name__ == "__main__":
    main()
