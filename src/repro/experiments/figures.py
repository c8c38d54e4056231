"""Figures 3 and 4: the paper's two deployments under its three policies.

"The first experiment evaluates all the three policies on a
geographically-distributed hybrid cloud environment composed of Region 1
and Region 3, namely using Amazon VMs in Ireland and privately-hosted VMs
in Munich.  For each policy, Figure 3 shows the variation over time of:
a) the RMTTF of each region, b) the calculated fraction f_i for each
region, and c) the average response time measured by all clients."

"A more complex scenario is reported in Figure 4, where all three regions
are used.  This experiment confirms that with Policy 1 the RMTTF does not
converge ...  Contrarily, both Policy 2 and 3 are able to cope with the
heterogeneity of regions, given that the RMTTF converges in both cases.
Policy 2 converges more quickly, although it produces values of f_i that
are slightly more oscillating than Policy 3." (Sec. VI-B)

The paper omits Figure 4's response-time row "because it is similar to
the results shown in Figure 3", so its text report prints two rows; the
series is recorded anyway (it is free) and the benchmark asserts the same
sub-1 s SLA bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.reporting import assessment_table, render_series
from repro.experiments.runner import (
    ExperimentResult,
    compare_policies,
    paper_shape_holds,
)
from repro.experiments.scenarios import resolve_scenario

#: The rows a figure plots, as :func:`render_series` arguments, in the
#: paper's order.
TRACE_ROWS = (
    ("rmttf/", "row 1: RMTTF (s)", {}),
    ("fraction/", "row 2: workload fraction f_i", {}),
    (
        "response_time",
        "row 3: client response time (ms)",
        {"scale": 1000.0, "unit": "ms"},
    ),
)


@dataclass(frozen=True)
class Figure:
    """One figure of Sec. VI-B."""

    label: str
    deployment: str
    sites: str
    #: key of :data:`repro.experiments.scenarios.SCENARIOS`
    scenario: str
    #: how many of :data:`TRACE_ROWS` the text report prints
    rows: int


#: CLI name -> figure; ``repro fig3|fig4|export|plot|robustness|reproduce``
#: take their names and choices from here.
FIGURES = {
    "fig3": Figure(
        "Figure 3", "two regions", "Ireland m3.medium / Munich private",
        scenario="two-region", rows=3,
    ),
    "fig4": Figure(
        "Figure 4", "three regions", "Ireland / Frankfurt / Munich",
        scenario="three-region", rows=2,
    ),
}


def run_figure(name: str, **run) -> dict[str, ExperimentResult]:
    """Run the paper's three policies on the deployment of figure ``name``.

    Returns policy name -> result; each result's traces contain the three
    rows the figure plots (``rmttf/*``, ``fraction/*``,
    ``response_time``).  ``run`` is what every run shares, as
    :func:`~repro.experiments.runner.run_policy_experiment` keywords
    (``eras``, ``seed``, ``predictor``, ...).
    """
    return compare_policies(resolve_scenario(FIGURES[name].scenario), **run)


def report_figure(name: str, results: dict[str, ExperimentResult]) -> str:
    """Render the full reproduction of figure ``name`` as text."""
    figure = FIGURES[name]
    blocks = [f"=== {figure.label}: {figure.deployment} ({figure.sites}) ==="]
    for policy, result in results.items():
        blocks.append(f"\n--- {policy} ---")
        for prefix, label, fmt in TRACE_ROWS[: figure.rows]:
            blocks.append(render_series(result.traces, prefix, label, **fmt))
    blocks.append(
        "\n" + assessment_table([r.assessment for r in results.values()])
    )
    checks = paper_shape_holds(results)
    blocks.append(
        "paper-shape checks: "
        + ", ".join(f"{k}={'PASS' if v else 'FAIL'}" for k, v in checks.items())
    )
    return "\n".join(blocks)
