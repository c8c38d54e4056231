"""COST -- the economic extension.

Sec. I motivates heterogeneous multi-cloud deployments by price: "different
cloud providers offer various types of VMs at different costs".  This
bench quantifies what the policy study leaves implicit: dollars per
million served requests under each policy -- Policy 2's
capacity-proportional routing also minimises rejuvenation churn, so it
should not cost more than the diverging Policy 1.
"""

from repro.core import AcmManager, CostTracker, RegionSpec
from repro.experiments.scenarios import PAPER_POLICIES


def _run_with_cost(policy, eras=160, seed=21):
    mgr = AcmManager(
        regions=[
            RegionSpec("region1", "m3.medium", 6, 4, 160),
            RegionSpec("region2", "m3.small", 12, 10, 320),
            RegionSpec("region3", "private.small", 4, 3, 64),
        ],
        policy=policy,
        seed=seed,
    )
    tracker = CostTracker()
    for _ in range(eras):
        s = mgr.loop.run_era()
        for region, vmc in mgr.loop.vmcs.items():
            tracker.charge_era(
                vmc,
                mgr.loop.config.era_s,
                requests_served=0,
            )
        tracker.requests_served += s.total_requests
    return mgr, tracker


def test_cost_per_policy(benchmark):
    """COST: the converging policies serve traffic at least as cheaply."""
    rows = {}
    for policy in PAPER_POLICIES:
        mgr, tracker = _run_with_cost(policy)
        rows[policy] = (
            tracker.cost_per_million_requests(),
            tracker.total_usd,
            sum(s.rejuvenations for s in mgr.loop.summaries),
        )
    print("\ncost per policy (3-region deployment, 160 eras):")
    for policy, (cpm, total, rejuv) in rows.items():
        print(
            f"  {policy:<22} ${cpm:8.3f}/M requests  total=${total:7.4f} "
            f"rejuvenations={rejuv}"
        )
    # all policies bill the same pool; cost/M differs only through served
    # volume, so the converging policies must be within a few percent of
    # (or cheaper than) the diverging one.
    cpm1 = rows["sensible-routing"][0]
    cpm2 = rows["available-resources"][0]
    assert cpm2 <= cpm1 * 1.1
    benchmark(lambda: _run_with_cost("available-resources", eras=20))


def test_cost_tracker_microbench(benchmark):
    """Charging an era must stay O(pool size) cheap."""
    mgr, tracker = _run_with_cost("uniform", eras=1)
    vmc = mgr.loop.vmcs["region2"]
    result = benchmark(tracker.charge_era, vmc, 30.0, 100)
    assert result > 0
