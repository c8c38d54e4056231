"""Daily load cycle: the autoscaler tracks a diurnal client population.

A single region rides one (compressed) day: client counts swing between
40 at night and 360 at the peak.  The Sec. V autoscaler grows the ACTIVE
pool into the morning ramp and releases VMs after the evening decline,
keeping both the response time under the SLA and the RMTTF above the
floor.

Run with::

    python examples/diurnal_autoscaling.py
"""

from dataclasses import replace

from repro.core import AcmManager, AutoscaleConfig, RegionSpec
from repro.workload.profiles import DiurnalProfile


def main() -> None:
    manager = AcmManager(
        regions=[
            RegionSpec(
                "daily",
                "m3.medium",
                n_vms=12,
                target_active=3,
                clients=40,
                rttf_threshold_s=120.0,
                rejuvenation_time_s=60.0,
            ),
        ],
        policy="uniform",
        seed=29,
        autoscale=True,
        autoscale_config=AutoscaleConfig(
            response_time_threshold_s=0.6,
            rmttf_low_s=240.0,
            rmttf_high_s=1500.0,
            cooldown_eras=2,
        ),
    )
    loop = manager.loop
    # one "day" compressed into 2 simulated hours (240 eras of 30 s)
    profile = DiurnalProfile(
        trough_clients=40, peak_clients=360, period_s=7200.0, phase_s=0.0
    )
    base_pop = loop.populations["daily"]

    print(f"{'era':>4} {'clients':>8} {'active':>7} {'RMTTF':>9} {'resp':>9}")
    for era in range(240):
        loop.populations["daily"] = replace(
            base_pop, n_clients=profile.clients_at(loop.now)
        )
        s = loop.run_era()
        if era % 20 == 0:
            print(
                f"{s.era:4d} {loop.populations['daily'].n_clients:8d} "
                f"{s.active_vms['daily']:7d} {s.rmttf['daily']:8.0f}s "
                f"{s.response_time_s * 1000:7.1f}ms"
            )

    scaler = loop.autoscaler
    active = manager.traces.series("active_vms/daily")
    rt = manager.traces.series("response_time")
    print(
        f"\npool range over the day: {active.min():.0f}..{active.max():.0f} "
        f"active VMs (+{scaler.scale_up_count}/-{scaler.scale_down_count} "
        f"actions)"
    )
    print(
        f"response time: mean {rt.mean() * 1000:.1f} ms, "
        f"max {rt.max() * 1000:.1f} ms (SLA 1000 ms)"
    )


if __name__ == "__main__":
    main()
