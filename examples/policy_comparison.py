"""Compare the paper's three load-balancing policies (Figures 3 and 4).

Reproduces the experimental comparison of Sec. VI on both of the paper's
deployments:

* two regions (EC2 Ireland m3.medium + private Munich VMs) -- Figure 3;
* three regions (adds EC2 Frankfurt m3.small) -- Figure 4.

Prints, per policy, the RMTTF and workload-fraction series as sparklines
plus the quantified verdicts, and checks the paper's qualitative claims.

Run with::

    python examples/policy_comparison.py [--eras 240] [--seed 7]
"""

import argparse

from repro.experiments import report_figure, run_figure


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--eras", type=int, default=240)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--predictor",
        default="oracle",
        help="'oracle' or an F2PM model name such as 'rep-tree'",
    )
    args = parser.parse_args()

    run = dict(eras=args.eras, seed=args.seed, predictor=args.predictor)
    print(report_figure("fig3", run_figure("fig3", **run)))
    print()
    print(report_figure("fig4", run_figure("fig4", **run)))


if __name__ == "__main__":
    main()
