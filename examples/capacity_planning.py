"""Capacity planning: size heterogeneous pools for a common RMTTF target.

Inverts the reproduction's mean-field failure model to answer the
deployment question the paper's policies solve at runtime: *how many VMs
of each shape does each region need so that, at its expected load, the
region sustains a target RMTTF?*  Then validates the plan by actually
running the deployment.

Run with::

    python examples/capacity_planning.py
"""

from repro.core import AcmManager, RegionSpec, recommend_pool
from repro.core.planner import mean_field_ttf
from repro.sim import INSTANCE_CATALOG


def main() -> None:
    target = 600.0  # every region should sustain >= 10 min RMTTF
    shapes = {
        "eu-public": "m3.medium",
        "eu-budget": "m3.small",
        "on-prem": "private.small",
    }
    loads = {"eu-public": 30.0, "eu-budget": 22.0, "on-prem": 10.0}

    print(f"target RMTTF: {target:.0f}s\n")
    print("per-VM time-to-failure at representative rates:")
    for shape in sorted(set(shapes.values())):
        itype = INSTANCE_CATALOG[shape]
        row = "  ".join(
            f"{r:4.0f}req/s->{mean_field_ttf(itype, r):6.0f}s"
            for r in (2.0, 5.0, 10.0)
        )
        print(f"  {shape:<14} {row}")

    plans = {
        region: recommend_pool(shapes[region], loads[region], target)
        for region in sorted(shapes)
    }
    print(f"\n{'region':<12} {'shape':<14} {'load':>7} {'active':>7} "
          f"{'standby':>8} {'RMTTF':>8} {'util':>6} {'$/h':>7}")
    total_cost = 0.0
    for region, plan in plans.items():
        itype = INSTANCE_CATALOG[plan.instance_type]
        cost = plan.total_vms * itype.hourly_cost
        total_cost += cost
        print(
            f"{region:<12} {plan.instance_type:<14} "
            f"{plan.request_rate:>5.0f}/s {plan.active_vms:>7} "
            f"{plan.standby_vms:>8} {plan.expected_rmttf_s:>7.0f}s "
            f"{plan.expected_utilisation:>6.2f} {cost:>7.3f}"
        )
    print(f"{'':>12} {'':>14} {'':>7} {'':>7} {'':>8} {'':>8} {'':>6} "
          f"{total_cost:>7.3f} total")

    # validate one region's plan in simulation
    region = "eu-public"
    plan = plans[region]
    clients = int(loads[region] * 7.0)  # closed loop: N = rate * Z
    print(f"\nvalidating {region} ({plan.active_vms} active "
          f"+ {plan.standby_vms} standby, {clients} clients)...")
    mgr = AcmManager(
        regions=[
            RegionSpec(
                region,
                plan.instance_type,
                n_vms=plan.total_vms,
                target_active=plan.active_vms,
                clients=clients,
            ),
        ],
        policy="uniform",
        seed=17,
    )
    mgr.run(120)
    steady = mgr.traces.series(f"rmttf/{region}").tail_fraction(0.4).mean()
    failures = mgr.traces.series("failures").values.sum()
    print(
        f"measured steady RMTTF: {steady:.0f}s (target {target:.0f}s), "
        f"failures: {failures:.0f}"
    )


if __name__ == "__main__":
    main()
