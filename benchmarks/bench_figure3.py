"""FIG3-* -- reproduction of Figure 3 (two heterogeneous regions).

The paper plots, for each policy on the Ireland(m3.medium)+Munich(private)
deployment: row 1 the per-region RMTTF over time, row 2 the workload
fraction f_i, row 3 the client response time.  Each bench here regenerates
one row, prints the series the figure plots, asserts the paper's
qualitative shape, and times a real unit of the pipeline.
"""

import numpy as np

from repro.core import AcmManager, RegionSpec
from repro.core.metrics import rmttf_spread
from repro.experiments import report_figure
from repro.experiments.reporting import render_series

from .conftest import assert_simplex, series_tail_means


def _fresh_manager(policy):
    return AcmManager(
        regions=[
            RegionSpec("region1-ireland", "m3.medium", 6, 4, 160),
            RegionSpec("region3-munich", "private.small", 4, 3, 96),
        ],
        policy=policy,
        seed=3,
    )


def test_fig3_rmttf(benchmark, figure3_results):
    """Row 1: Policy 1 RMTTFs stabilise apart; Policies 2-3 converge."""
    # --- assertions on the full cached runs --------------------------- #
    spread1 = rmttf_spread(
        {
            k: figure3_results["sensible-routing"].traces.series(k)
            for k in figure3_results["sensible-routing"].traces.names()
            if k.startswith("rmttf/")
        }
    )
    spread2 = figure3_results["available-resources"].assessment.rmttf_spread
    spread3 = figure3_results["exploration"].assessment.rmttf_spread
    assert spread1 > 0.25, "Policy 1 must stabilise regions apart"
    assert spread2 < 0.08, "Policy 2 must converge tightly"
    assert spread3 < 0.12, "Policy 3 must converge"
    for policy in figure3_results:
        print(f"\n[{policy}]")
        print(
            render_series(
                figure3_results[policy].traces, "rmttf/", "RMTTF (s)"
            )
        )
    # --- timed unit: a 10-era loop chunk of the same deployment ------- #
    def unit():
        mgr = _fresh_manager("available-resources")
        mgr.run(10)
        return mgr

    benchmark(unit)


def test_fig3_fractions(benchmark, figure3_results):
    """Row 2: fractions stay on the simplex; Policy 2 finds capacity shares."""
    for policy, result in figure3_results.items():
        finals = {
            name: s.values[-1]
            for name, s in result.traces.matching("fraction/").items()
        }
        assert_simplex(finals.values())
    # Policy 2's split should reflect the real capacity imbalance:
    # region1 (4x55 cpu) vs region3 (3x40 cpu) => ~0.65 / 0.35.
    f2 = series_tail_means(figure3_results, "available-resources", "fraction/")
    f_region1 = f2["fraction/region1-ireland"]
    assert 0.55 < f_region1 < 0.8, f"capacity share off: {f_region1}"
    for policy in figure3_results:
        print(f"\n[{policy}]")
        print(
            render_series(
                figure3_results[policy].traces,
                "fraction/",
                "workload fraction f_i",
            )
        )

    def unit():
        mgr = _fresh_manager("sensible-routing")
        mgr.run(10)
        return mgr

    benchmark(unit)


def test_fig3_response_time(benchmark, figure3_results):
    """Row 3 + QUAL-4: response time below the 1 s SLA for every policy,
    and not strongly policy-dependent."""
    means = {}
    for policy, result in figure3_results.items():
        rt = result.traces.series("response_time")
        means[policy] = rt.mean()
        assert rt.mean() < 1.0, f"{policy} violates the 1 s SLA"
        # even transients stay bounded (paper's figure shows no spikes
        # past the threshold)
        assert rt.max() < 2.0
        print(f"\n[{policy}]")
        print(
            render_series(
                result.traces,
                "response_time",
                "client response time (ms)",
                scale=1000.0,
                unit="ms",
            )
        )
    # "its variations are not highly affected by some policy more than
    # others" -- policy means within 2x of each other
    lo, hi = min(means.values()), max(means.values())
    assert hi / lo < 2.0

    def unit():
        mgr = _fresh_manager("exploration")
        mgr.run(10)
        return mgr

    benchmark(unit)


def test_fig3_full_report(benchmark, figure3_results):
    """The complete Figure 3 text report renders (and is printed once)."""
    text = report_figure("fig3", figure3_results)
    assert "paper-shape checks" in text
    assert "FAIL" not in text.splitlines()[-1], text.splitlines()[-1]
    print("\n" + text)
    benchmark(lambda: report_figure("fig3", figure3_results))
