"""SEEDS -- the paper-shape checks must hold across random seeds.

A reproduction that only works at one lucky seed is not a reproduction.
This bench re-runs the Figure 3 comparison under several independent
seeds and requires every qualitative claim to hold at each of them
(shortened horizon per seed to keep the bench bounded).
"""

from repro.experiments import run_figure
from repro.experiments.runner import paper_shape_holds

SEEDS = (7, 11, 23, 42, 101)


def test_paper_shape_across_seeds(benchmark):
    outcomes = {}
    for seed in SEEDS:
        results = run_figure("fig3", eras=160, seed=seed)
        outcomes[seed] = paper_shape_holds(results)
    print("\npaper-shape checks per seed (Figure 3, 160 eras):")
    check_names = list(next(iter(outcomes.values())))
    header = "  seed " + " ".join(f"{c[:14]:>16}" for c in check_names)
    print(header)
    for seed, checks in outcomes.items():
        row = " ".join(
            f"{'PASS' if checks[c] else 'FAIL':>16}" for c in check_names
        )
        print(f"  {seed:>4} {row}")
    # the four headline claims must hold at EVERY seed
    for seed, checks in outcomes.items():
        assert checks["policy1_diverges"], seed
        assert checks["policy2_converges"], seed
        assert checks["policy3_converges"], seed
        assert checks["sla_met_all"], seed
    # the two comparative claims must hold at a strong majority
    for soft in ("policy2_fastest", "policy2_most_stable"):
        passed = sum(1 for c in outcomes.values() if c[soft])
        assert passed >= len(SEEDS) - 1, (soft, passed)

    benchmark(lambda: run_figure("fig3", eras=20, seed=7))
