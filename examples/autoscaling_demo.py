"""Autoscaling demo: ACM grows the VM pool when the workload surges.

Sec. V: "when the global workload increases, the failure rate of VMs in one
or multiple cloud regions may increase, so that excessive performance loss
and low availability may be experienced by clients.  As a countermeasure
..., ACM can proactively change the number of active VMs in each cloud
region."

The demo starts a single region with 2 ACTIVE VMs and a modest client
population, then triples the clients mid-run.  The autoscaler reacts to the
falling RMTTF by activating standby VMs.

Run with::

    python examples/autoscaling_demo.py
"""

from dataclasses import replace

from repro.core import AcmManager, AutoscaleConfig, RegionSpec


def main() -> None:
    manager = AcmManager(
        regions=[
            RegionSpec(
                "elastic",
                "private.small",
                n_vms=10,
                target_active=2,
                clients=80,
                rttf_threshold_s=60.0,
                rejuvenation_time_s=60.0,
            ),
        ],
        policy="uniform",  # single region: the fraction is trivially 1.0
        seed=11,
        autoscale=True,
        autoscale_config=AutoscaleConfig(
            response_time_threshold_s=0.8,
            rmttf_low_s=300.0,
            rmttf_high_s=2500.0,
            cooldown_eras=3,
        ),
    )
    loop = manager.loop
    pop = loop.populations["elastic"]

    print("phase 1: 80 clients, 2 active VMs")
    print(f"  {'era':>4} {'clients':>8} {'active':>7} {'RMTTF':>8} {'resp':>8}")

    def report(s):
        print(
            f"  {s.era:4d} {pop.n_clients:8d} "
            f"{s.active_vms['elastic']:7d} {s.rmttf['elastic']:7.0f}s "
            f"{s.response_time_s * 1000:6.1f}ms"
        )

    for _ in range(30):
        s = loop.run_era()
        if s.era % 5 == 0:
            report(s)

    print("\nphase 2: workload surge to 240 clients")
    loop.populations["elastic"] = replace(pop, n_clients=240)
    pop = loop.populations["elastic"]
    for _ in range(60):
        s = loop.run_era()
        if s.era % 5 == 0:
            report(s)

    scaler = loop.autoscaler
    print(
        f"\nautoscaler actions: +{scaler.scale_up_count} VMs, "
        f"-{scaler.scale_down_count} VMs"
    )
    print(f"final ACTIVE pool: {s.active_vms['elastic']} VMs")


if __name__ == "__main__":
    main()
