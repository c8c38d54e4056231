"""LOAD -- the client-count sweep of Sec. VI-A's [16, 512] interval.

Asserts the physics the whole study rests on: steady RMTTF falls
monotonically with offered load (anomalies accumulate with requests), the
SLA holds across the moderate range, and the deployment saturates at the
top of the paper's interval.

The sweep is the load axis of Policy 2 cells on the Figure 3 (two-region)
deployment, run through the fleet executor as ``repro sweep`` runs it.
Region 1 has 160 clients there, so a region-1 count of c clients is load
c/160; every region scales by the same factor, clamped to [16, 512].
"""

from repro.experiments.scenarios import two_region_scenario
from repro.fleet import FleetExecutor, SweepSpec, aggregate, markdown_report

REGION1_CLIENTS = two_region_scenario().regions[0].clients


def client_sweep(client_counts, eras, seed):
    """Policy 2 at each region-1 client count: the jobs and payloads."""
    spec = SweepSpec(
        scenarios=("two-region",),
        policies=("available-resources",),
        loads=tuple(n1 / REGION1_CLIENTS for n1 in client_counts),
        root_seed=seed,
        eras=eras,
    )
    jobs = spec.expand()
    outcome = FleetExecutor().run(jobs)
    assert outcome.ok, outcome.failures
    return jobs, outcome.payloads


def test_client_sweep(benchmark):
    counts = (16, 64, 128, 256, 512)
    jobs, payloads = client_sweep(counts, eras=120, seed=7)
    print("\n" + markdown_report(aggregate(jobs, payloads)))
    points = list(zip(counts, payloads))

    # RMTTF monotone decreasing while the system is healthy
    healthy = [p for _, p in points if p["sla_met"]]
    rmttfs = [p["mean_rmttf_s"] for p in healthy]
    assert all(a > b for a, b in zip(rmttfs, rmttfs[1:])), rmttfs
    # the SLA holds through the moderate range...
    assert all(p["sla_met"] for n1, p in points if n1 <= 256)
    # ...and rejuvenation activity grows with load
    rejuv = [p["rejuvenations"] for _, p in points[:4]]
    assert rejuv == sorted(rejuv), rejuv

    benchmark(lambda: client_sweep((64,), eras=30, seed=7))


def test_policy2_convergence_across_loads(benchmark):
    """Policy 2 equalises regions at every healthy load level."""
    counts = (32, 128, 256)
    _, payloads = client_sweep(counts, eras=120, seed=11)
    for n1, p in zip(counts, payloads):
        assert p["rmttf_spread"] < 0.1, (n1, p)
    benchmark(lambda: client_sweep((32,), eras=30, seed=11))
