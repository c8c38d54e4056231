"""The evaluation harness: scenarios, runners, and figure reproductions.

* :mod:`repro.experiments.scenarios` -- the paper's exact testbed
  (Sec. VI-A): Region 1 (EC2 Ireland, 6 x m3.medium), Region 2 (EC2
  Frankfurt, 12 x m3.small), Region 3 (private Munich, 4 small VMs);
* :mod:`repro.experiments.runner` -- generic policy x scenario driver,
  including the ML-in-the-loop configuration (profile, train REP-Tree,
  deploy);
* :mod:`repro.experiments.figures` -- the ``FIGURES`` table: the
  two-region experiment of Fig. 3 and the three-region one of Fig. 4;
* :mod:`repro.experiments.reporting` -- ascii series tables and policy
  verdicts printed by the benchmarks;
* :mod:`repro.experiments.resilience` -- seeded chaos campaigns against
  the hardened distributed control plane (``repro chaos``).
"""

from repro.experiments.figures import FIGURES, report_figure, run_figure
from repro.experiments.resilience import (
    CAMPAIGNS,
    CampaignResult,
    CampaignSpec,
    recovery_bound_eras,
    report_campaign,
    report_campaign_suite,
    run_campaign,
    run_campaign_suite,
)
from repro.experiments.runner import (
    ExperimentResult,
    compare_policies,
    make_trained_predictor,
    run_policy_experiment,
)
from repro.experiments.scenarios import (
    PAPER_POLICIES,
    three_region_scenario,
    two_region_scenario,
)
from repro.experiments.reporting import (
    assessment_table,
    render_series,
    sparkline,
)

__all__ = [
    "two_region_scenario",
    "three_region_scenario",
    "PAPER_POLICIES",
    "run_policy_experiment",
    "compare_policies",
    "make_trained_predictor",
    "ExperimentResult",
    "FIGURES",
    "run_figure",
    "report_figure",
    "assessment_table",
    "render_series",
    "sparkline",
    "CAMPAIGNS",
    "CampaignResult",
    "CampaignSpec",
    "recovery_bound_eras",
    "report_campaign",
    "run_campaign",
    "report_campaign_suite",
    "run_campaign_suite",
]
