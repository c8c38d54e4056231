"""FIG4-* -- reproduction of Figure 4 (three heterogeneous regions).

The more complex scenario: Ireland (6 x m3.medium) + Frankfurt
(12 x m3.small) + Munich (4 private VMs).  The paper's reading: "with
Policy 1 the RMTTF does not converge ... Contrarily, both Policy 2 and 3
are able to cope with the heterogeneity of regions ...  Policy 2 converges
more quickly, although it produces values of f_i that are slightly more
oscillating than Policy 3."
"""

import numpy as np

from repro.core import AcmManager, RegionSpec
from repro.core.metrics import convergence_time, mean_oscillation
from repro.experiments import report_figure
from repro.experiments.reporting import render_series

from .conftest import assert_simplex


def _fresh_three_region(policy):
    return AcmManager(
        regions=[
            RegionSpec("region1-ireland", "m3.medium", 6, 4, 160),
            RegionSpec("region2-frankfurt", "m3.small", 12, 10, 320),
            RegionSpec("region3-munich", "private.small", 4, 3, 64),
        ],
        policy=policy,
        seed=3,
    )


def test_fig4_rmttf(benchmark, figure4_results):
    """Row 1: P1 diverges; P2 and P3 converge, P2 at least as fast."""
    def rmttf_series(policy):
        return {
            n: s
            for n, s in figure4_results[policy].traces.matching("rmttf/").items()
        }

    t1 = convergence_time(rmttf_series("sensible-routing"))
    t2 = convergence_time(rmttf_series("available-resources"))
    t3 = convergence_time(rmttf_series("exploration"))
    assert not np.isfinite(t1), "Policy 1 must not converge on 3 regions"
    assert np.isfinite(t2), "Policy 2 must converge"
    assert np.isfinite(t3), "Policy 3 must converge"
    assert t2 <= t3 * 1.25, "Policy 2 converges at least about as fast"
    for policy in figure4_results:
        print(f"\n[{policy}]")
        print(
            render_series(
                figure4_results[policy].traces, "rmttf/", "RMTTF (s)"
            )
        )

    def unit():
        mgr = _fresh_three_region("available-resources")
        mgr.run(6)
        return mgr

    benchmark(unit)


def test_fig4_fractions(benchmark, figure4_results):
    """Row 2: simplex invariant; P1's plan keeps churning (redirection
    overhead) while P2/P3 settle."""
    for policy, result in figure4_results.items():
        finals = {
            n: s.values[-1]
            for n, s in result.traces.matching("fraction/").items()
        }
        assert_simplex(finals.values())
        print(f"\n[{policy}]")
        print(
            render_series(
                result.traces, "fraction/", "workload fraction f_i"
            )
        )
    # Redirection overhead proxy: forwarded traffic under Policy 1 is not
    # lower than under Policy 2 in the tail (its fractions keep moving
    # away from the arrival shares).
    fwd1 = (
        figure4_results["sensible-routing"]
        .traces.series("forwarded_fraction")
        .tail_fraction(0.3)
        .mean()
    )
    fwd2 = (
        figure4_results["available-resources"]
        .traces.series("forwarded_fraction")
        .tail_fraction(0.3)
        .mean()
    )
    assert fwd1 >= fwd2 * 0.8

    def unit():
        mgr = _fresh_three_region("sensible-routing")
        mgr.run(6)
        return mgr

    benchmark(unit)


def test_fig4_response_time_sla(benchmark, figure4_results):
    """The omitted row: response time 'similar to Figure 3' -- verify the
    same sub-SLA bound holds with three regions."""
    for policy, result in figure4_results.items():
        rt = result.traces.series("response_time")
        assert rt.mean() < 1.0, f"{policy} violates the 1 s SLA"

    def unit():
        mgr = _fresh_three_region("exploration")
        mgr.run(6)
        return mgr

    benchmark(unit)


def test_fig4_full_report(benchmark, figure4_results):
    """The complete Figure 4 text report renders with all checks passing."""
    text = report_figure("fig4", figure4_results)
    assert "FAIL" not in text.splitlines()[-1], text.splitlines()[-1]
    print("\n" + text)
    benchmark(lambda: report_figure("fig4", figure4_results))
