"""ABL-* -- ablations of the design parameters the paper leaves implicit.

* ABL-BETA: the Eq. (1) EWMA weight trades reaction speed against
  stability of Policy 2;
* ABL-K: the Eq. (6)-(8) scaling factor k controls Policy 3's step size;
* ABL-HET: the heterogeneity degree drives Policy 1's divergence -- with
  *homogeneous* regions Policy 1 is fine (the paper: "more suitable for
  less-heterogeneous environments");
* ABL-ML: oracle vs trained REP-Tree vs noisy-oracle predictors -- the
  policy conclusions survive realistic prediction error.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import AcmManager, ExplorationPolicy, RegionSpec, assess_policy_run
from repro.experiments.reporting import assessment_table
from repro.pcam.predictor import OracleRttfPredictor
from repro.sim.rng import RngRegistry


def _two_region(policy, seed=9, beta=0.5, predictor=None, hetero=True, eras=160):
    regions = [
        RegionSpec("a", "m3.medium", 6, 4, 160),
        RegionSpec(
            "b",
            "private.small" if hetero else "m3.medium",
            6 if hetero else 6,
            4,
            96,
        ),
    ]
    mgr = AcmManager(
        regions=regions, policy=policy, seed=seed, beta=beta,
        predictor=predictor,
    )
    mgr.run(eras)
    return assess_policy_run(
        policy if isinstance(policy, str) else policy.name, mgr.traces
    )


def _table(rows: dict[str, object]) -> str:
    """``assessment_table`` with each row's label in the policy column."""
    return assessment_table([replace(a, policy=label) for label, a in rows.items()])


def test_beta_sweep(benchmark):
    """ABL-BETA: larger beta reacts faster; all betas still converge P2."""
    rows = {}
    for beta in (0.1, 0.3, 0.5, 0.9):
        rows[beta] = _two_region("available-resources", beta=beta)
    print("\nbeta sweep (Policy 2):")
    print(_table({f"beta={beta:.1f}": a for beta, a in rows.items()}))
    for beta, a in rows.items():
        assert a.converged, f"beta={beta} must still converge"
        assert a.sla_met
    # smoothing reduces fraction oscillation: beta=0.1 at most as jittery
    # as beta=0.9
    assert (
        rows[0.1].fraction_oscillation <= rows[0.9].fraction_oscillation * 1.1
    )
    benchmark(lambda: _two_region("available-resources", beta=0.5, eras=30))


def test_k_sweep(benchmark):
    """ABL-K: Policy 3 converges across a range of k; k damps step size."""
    rows = {}
    for k in (0.5, 0.8, 1.0):
        rows[k] = _two_region(ExplorationPolicy(k=k))
    print("\nk sweep (Policy 3):")
    print(_table({f"k={k:.1f}": a for k, a in rows.items()}))
    for k, a in rows.items():
        assert a.sla_met
    assert rows[1.0].converged
    benchmark(lambda: _two_region(ExplorationPolicy(k=1.0), eras=30))


def test_era_length_sweep(benchmark):
    """ABL-ERA: the control period.  Policy 2 converges across a wide
    range of era lengths; very long eras only slow the reaction."""
    rows = {}
    for era_s in (10.0, 30.0, 90.0):
        mgr = AcmManager(
            regions=[
                RegionSpec("a", "m3.medium", 6, 4, 160),
                RegionSpec("b", "private.small", 6, 4, 96),
            ],
            policy="available-resources",
            seed=9,
            era_s=era_s,
        )
        # same simulated horizon for every era length
        mgr.run(int(4800 / era_s))
        rows[era_s] = assess_policy_run("available-resources", mgr.traces)
    print("\nera-length sweep (Policy 2):")
    print(_table({f"era={era_s:.0f}s": a for era_s, a in rows.items()}))
    for era_s, a in rows.items():
        assert a.converged, f"era={era_s}"
        assert a.sla_met
    benchmark(
        lambda: AcmManager(
            regions=[RegionSpec("a", "m3.medium", 4, 3, 64)],
            policy="uniform",
            seed=9,
            era_s=30.0,
        ).run(20)
    )


def test_heterogeneity_sweep(benchmark):
    """ABL-HET: Policy 1 is fine on homogeneous regions, fails on
    heterogeneous ones -- the paper's core motivation."""
    homo = _two_region("sensible-routing", hetero=False)
    hetero = _two_region("sensible-routing", hetero=True)
    print("\nheterogeneity sweep (Policy 1):")
    print(_table({"homogeneous": homo, "heterogeneous": hetero}))
    assert homo.rmttf_spread < 0.15, "P1 must balance equal regions"
    assert hetero.rmttf_spread > 0.25, "P1 must diverge on unequal regions"
    assert hetero.rmttf_spread > 2 * homo.rmttf_spread
    benchmark(lambda: _two_region("sensible-routing", hetero=False, eras=30))


def test_gamma_sweep(benchmark):
    """ABL-GAMMA: the sensible-routing exponent.  gamma=1 is the paper's
    Eq. (2).  The fixed point has RMTTF ~ C^(1/(1+gamma)): larger gamma
    narrows the steady RMTTF gap but amplifies the feedback gain, so the
    fractions oscillate harder -- the policy trades one failure mode
    (divergence) for another (thrash) and never matches Policy 2."""
    from repro.core import SensibleRoutingPolicy

    rows = {}
    for gamma in (0.5, 1.0, 2.0):
        rows[gamma] = _two_region(SensibleRoutingPolicy(gamma=gamma))
    print("\ngamma sweep (Policy 1 generalisation):")
    print(_table({f"gamma={gamma:.1f}": a for gamma, a in rows.items()}))
    assert rows[1.0].rmttf_spread > 0.2  # the paper's divergence
    # spread shrinks with gamma (RMTTF ~ C^(1/(1+gamma)))...
    assert (
        rows[0.5].rmttf_spread
        > rows[1.0].rmttf_spread
        > rows[2.0].rmttf_spread
    )
    # ...but oscillation grows with gamma (feedback gain)
    assert (
        rows[2.0].fraction_oscillation
        > rows[1.0].fraction_oscillation
        > rows[0.5].fraction_oscillation
    )
    # and even gamma=2 cannot match Policy 2's tightness
    p2 = _two_region("available-resources")
    assert rows[2.0].rmttf_spread > 3 * p2.rmttf_spread
    benchmark(lambda: _two_region(SensibleRoutingPolicy(gamma=2.0), eras=30))


def test_rejuvenation_discipline_ablation(benchmark):
    """ABL-REJUV: the motivation for PCAM's predictive rejuvenation.

    Compares, at the full-system level, the predictive RTTF-threshold
    discipline against the literature baselines: time-based (periodic)
    rejuvenation and no proactive rejuvenation at all.
    """
    from repro.core.manager import AcmManager
    from repro.pcam import (
        NoRejuvenation,
        PeriodicRejuvenation,
        RttfThresholdRejuvenation,
    )

    def run(discipline):
        mgr = AcmManager(
            regions=[
                RegionSpec("a", "m3.medium", 6, 4, 160),
                RegionSpec("b", "private.small", 6, 4, 96),
            ],
            policy="available-resources",
            seed=19,
        )
        for vmc in mgr.loop.vmcs.values():
            vmc.discipline = discipline
        mgr.run(160)
        fails = mgr.traces.series("failures").values.sum()
        rejuv = mgr.traces.series("rejuvenations").values.sum()
        rt = mgr.traces.series("response_time").mean()
        return fails, rejuv, rt

    rows = {
        "predictive (PCAM)": run(RttfThresholdRejuvenation(240.0)),
        "periodic 300s": run(PeriodicRejuvenation(300.0)),
        "periodic 2000s": run(PeriodicRejuvenation(2000.0)),
        "none (reactive)": run(NoRejuvenation()),
    }
    print("\nrejuvenation discipline ablation (Policy 2, 2 regions):")
    for tag, (fails, rejuv, rt) in rows.items():
        print(
            f"  {tag:<18} failures={fails:4.0f} rejuvenations={rejuv:4.0f} "
            f"rt={rt * 1000:6.1f}ms"
        )
    assert rows["predictive (PCAM)"][0] == 0, "predictive must avoid failures"
    assert rows["none (reactive)"][0] > 0, "no-rejuvenation must crash VMs"
    assert rows["periodic 2000s"][0] > 0, "mistuned periodic must crash VMs"
    benchmark(lambda: run(RttfThresholdRejuvenation(240.0)))


def test_trend_feature_ablation(benchmark):
    """ABL-TREND: level-only vs level+slope REP-Tree in the loop.

    Both configurations must preserve Policy 2's convergence; the trend
    model must at least match the level model's training skill (F2PM's
    derived-features motivation)."""
    from repro.experiments.runner import make_trained_predictor

    level = make_trained_predictor(
        ["m3.medium", "private.small"], seed=13, use_trend_features=False
    )
    trend = make_trained_predictor(
        ["m3.medium", "private.small"], seed=13, use_trend_features=True
    )
    print("\ntrend-feature ablation (trained REP-Tree):")
    print(f"  level-only : {level.model.report}")
    print(f"  level+slope: {trend.model.report}")
    assert trend.model.report.r2 > 0.5
    assert trend.model.report.rmse < level.model.report.rmse * 1.2

    rows = {}
    for tag, predictor in (("level", level), ("trend", trend)):
        rows[tag] = _two_region("available-resources", predictor=predictor)
    print(_table({f"in-loop {tag}": a for tag, a in rows.items()}))
    for tag, a in rows.items():
        assert a.sla_met, tag
        assert a.rmttf_spread < 0.15, tag
    benchmark(
        lambda: make_trained_predictor(
            ["private.small"],
            seed=13,
            profile_rates=(5.0, 12.0),
            runs_per_rate=1,
            use_trend_features=True,
        )
    )


def test_predictor_noise_ablation(benchmark, trained_reptree_predictor):
    """ABL-ML: Policy 2 keeps its convergence property under (a) oracle,
    (b) trained REP-Tree, (c) 20%-noise oracle predictions."""
    rngs = RngRegistry(seed=77)
    noisy = OracleRttfPredictor(
        noise_std=0.2, rng=rngs.stream("noise")
    )
    rows = {
        "oracle": _two_region("available-resources"),
        "rep-tree": _two_region(
            "available-resources", predictor=trained_reptree_predictor
        ),
        "noisy-oracle-20%": _two_region(
            "available-resources", predictor=noisy
        ),
    }
    print("\npredictor ablation (Policy 2):")
    print(_table(rows))
    for tag, a in rows.items():
        assert a.sla_met, tag
        assert a.rmttf_spread < 0.15, f"{tag}: spread {a.rmttf_spread}"
    benchmark(
        lambda: _two_region(
            "available-resources", predictor=noisy, eras=30
        )
    )
