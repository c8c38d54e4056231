"""SCALE -- harness throughput: control-loop cost vs deployment size.

Not a paper figure: measures the reproduction itself, so regressions in the
simulator's hot paths (balancer splits, anomaly batching, policy steps)
show up in ``--benchmark-compare`` runs.
"""

import pytest

from repro.core import AcmManager, RegionSpec


def _manager(n_regions: int, vms_per_region: int) -> AcmManager:
    regions = [
        RegionSpec(
            f"r{i:02d}",
            ["m3.medium", "m3.small", "private.small"][i % 3],
            n_vms=vms_per_region,
            target_active=max(vms_per_region - 2, 1),
            clients=64 + 16 * i,
        )
        for i in range(n_regions)
    ]
    return AcmManager(regions=regions, policy="available-resources", seed=1)


@pytest.mark.parametrize("n_regions", [2, 4, 8])
def test_loop_throughput_vs_regions(benchmark, n_regions):
    """Eras/second as the region count grows (8 VMs per region)."""
    def run_chunk():
        mgr = _manager(n_regions, 8)
        mgr.run(10)
        return mgr

    mgr = benchmark(run_chunk)
    assert mgr.loop.era_index == 10
    assert all(s.failures == 0 for s in mgr.loop.summaries[5:])


@pytest.mark.parametrize("vms", [4, 16, 32])
def test_loop_throughput_vs_vms(benchmark, vms):
    """Eras/second as the per-region pool grows (3 regions)."""
    def run_chunk():
        mgr = _manager(3, vms)
        mgr.run(10)
        return mgr

    mgr = benchmark(run_chunk)
    assert mgr.loop.era_index == 10


def test_huge_fleet_era_throughput(benchmark):
    """One fluid era over a 10k-VM pool (the pytest-benchmark view of the
    ``pcam_fleet_10k`` workload in ``benchmarks/e2e``)."""
    import numpy as np

    from repro.pcam import (
        TrainedRttfPredictor,
        VirtualMachineController,
        VmcConfig,
    )
    from repro.pcam.vm import VirtualMachine
    from repro.sim.instances import get_instance_type
    from repro.workload.anomalies import AnomalyInjector

    class _Flat:
        def predict(self, rows):
            rows = np.atleast_2d(np.asarray(rows, dtype=float))
            return np.full(rows.shape[0], 1e9)

    n_vms = 10_000
    m3 = get_instance_type("m3.medium")
    ps = get_instance_type("private.small")

    def build():
        vms = [
            VirtualMachine(
                f"vm{i:05d}",
                m3 if i % 2 else ps,
                AnomalyInjector(np.random.default_rng(i)),
            )
            for i in range(n_vms)
        ]
        return VirtualMachineController(
            "fleet",
            vms,
            TrainedRttfPredictor(_Flat()),
            VmcConfig(target_active=9_000),
        )

    def one_era(vmc):
        vmc.process_era(200_000, 30.0, 0.0)
        return vmc

    vmc = benchmark.pedantic(
        one_era, setup=lambda: ((build(),), {}), rounds=3, iterations=1
    )
    assert sum(1 for vm in vmc.vms if vm.total_requests > 0) > 0


def test_policy_step_scales_to_many_regions(benchmark):
    """A single POLICY() step on 10k regions stays vectorised-fast."""
    import numpy as np

    from repro.core import get_policy

    policy = get_policy("available-resources", min_fraction=0.0)
    n = 10_000
    prev = np.full(n, 1.0 / n)
    rmttf = np.random.default_rng(0).uniform(100, 2000, n)
    out = benchmark(policy.compute, prev, rmttf, 1000.0)
    assert out.shape == (n,)
