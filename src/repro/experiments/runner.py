"""Generic experiment driver: policy x scenario -> traces + assessment.

Two predictor configurations are supported, mirroring how the paper can be
read:

* ``predictor="oracle"`` -- mean-field ground-truth RTTF, isolating the
  *policy* dynamics (the paper's object of study) from ML error;
* ``predictor="rep-tree"`` (or any F2PM suite name) -- the full
  ML-in-the-loop path: profile every instance shape to failure, train the
  model with the F2PM toolchain, deploy it in every VMC.  This is the
  configuration the paper actually ran ("we selected REP Tree as a ML model
  for predicting the MTTF", Sec. VI-A).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.core.distributed import DistributedControlPlane
from repro.core.manager import AcmManager
from repro.core.metrics import (
    MIN_ASSESS_ERAS,
    PolicyAssessment,
    assess_policy_run,
)
from repro.experiments.scenarios import PAPER_POLICIES, Scenario
from repro.obs.manifest import RunManifest
from repro.obs.telemetry import Telemetry
from repro.ml.derived import augment_runs_with_slopes
from repro.ml.features import FEATURE_NAMES
from repro.ml.toolchain import F2PMToolchain
from repro.ml.dataset import Dataset
from repro.pcam.monitor import ProfilingHarness
from repro.pcam.predictor import (
    OracleRttfPredictor,
    RttfPredictor,
    TrainedRttfPredictor,
    TrendAwareRttfPredictor,
)
from repro.pcam.vm import VirtualMachine
from repro.sim.instances import InstanceType, get_instance_type
from repro.sim.rng import RngRegistry
from repro.sim.tracing import TraceRecorder
from repro.workload.anomalies import (
    DEFAULT_LEAK_PROBABILITY,
    AnomalyInjector,
)
from repro.workload.tpcw import MIX_SHOPPING


@dataclass
class ExperimentResult:
    """Everything one policy run produces."""

    scenario: str
    policy: str
    traces: TraceRecorder
    assessment: PolicyAssessment
    eras: int
    era_s: float
    #: how to regenerate this result (seed, config digest, code version)
    manifest: RunManifest | None = None
    #: deployment bill (total/egress $, $/M requests) -- always present
    #: for :func:`run_policy_experiment` runs (pure accounting)
    cost_stats: dict | None = None
    #: SLO controller summary (degraded eras, violation rate,
    #: transitions); ``None`` when the run had no SLO config
    slo_stats: dict | None = None


def profiling_harness(
    rngs: RngRegistry,
    itype: InstanceType,
    name_prefix: str,
    sample_period_s: float = 10.0,
    anomaly_stream: str = "anomalies",
) -> ProfilingHarness:
    """F2PM's profiling harness for one instance shape.

    Run ``n`` (from 1) drives a fresh VM named ``{name_prefix}/{n}``
    whose injector draws from ``rngs.child(name).stream(anomaly_stream)``.
    """
    runs = itertools.count(1)

    def fresh_vm() -> VirtualMachine:
        name = f"{name_prefix}/{next(runs)}"
        injector = AnomalyInjector(rngs.child(name).stream(anomaly_stream))
        return VirtualMachine(name, itype, injector)

    return ProfilingHarness(fresh_vm, sample_period_s=sample_period_s)


def make_trained_predictor(
    instance_types: list[str],
    seed: int = 0,
    model_name: str = "rep-tree",
    profile_rates: tuple[float, ...] = (3.0, 5.0, 8.0, 12.0, 18.0, 26.0),
    runs_per_rate: int = 3,
    sample_period_s: float = 10.0,
    use_trend_features: bool = False,
    trend_window: int = 4,
) -> RttfPredictor:
    """Run the F2PM profiling phase and train an online RTTF predictor.

    Each instance shape is driven to failure ``runs_per_rate`` times at each
    profiling rate (:func:`profiling_harness`); the combined RTTF dataset
    trains the requested model (REP-Tree by default, per Sec. VI-A).  One
    model serves all shapes -- the feature schema carries the capacity
    signals (free memory, thread counts) that let a single tree specialise
    per shape.

    With ``use_trend_features`` the training runs are augmented with
    per-feature slopes (F2PM's derived features) and the returned
    predictor computes the same trends online from a per-VM window.
    """
    if not instance_types:
        raise ValueError("need at least one instance type")
    rngs = RngRegistry(seed=seed)
    all_runs: list[tuple] = []
    for type_name in instance_types:
        harness = profiling_harness(
            rngs,
            get_instance_type(type_name),
            f"profile/{type_name}",
            sample_period_s,
        )
        all_runs.extend(
            harness.collect_runs(
                list(profile_rates),
                runs_per_rate,
                rngs.stream(f"profiling/{type_name}"),
            )
        )
    if use_trend_features:
        dataset = augment_runs_with_slopes(
            all_runs, FEATURE_NAMES, window=trend_window
        )
    else:
        dataset = Dataset.from_run_traces(all_runs, FEATURE_NAMES)
    toolchain = F2PMToolchain(max_features=8, cv_folds=3)
    trained = toolchain.train_best(
        dataset, rngs.stream("toolchain"), model_name=model_name
    )
    if use_trend_features:
        return TrendAwareRttfPredictor(trained, window=trend_window)
    return TrainedRttfPredictor(trained)


def _resolve_predictor(
    predictor: str | RttfPredictor, scenario: Scenario, seed: int
) -> RttfPredictor:
    if isinstance(predictor, RttfPredictor):
        return predictor
    if predictor == "oracle":
        return OracleRttfPredictor(
            mean_demand=MIX_SHOPPING.mean_service_demand()
        )
    return make_trained_predictor(
        scenario.instance_types(), seed=seed, model_name=predictor
    )


def _experiment_manifest(
    scenario: Scenario,
    policy: str,
    eras: int,
    seed: int,
    era_s: float,
    beta: float,
    predictor: str | RttfPredictor,
    autoscale: bool,
    slo: str | None = None,
) -> RunManifest:
    config = {
        "scenario": scenario.name,
        "policy": policy,
        "eras": eras,
        "era_s": era_s,
        "beta": beta,
        "predictor": (
            predictor
            if isinstance(predictor, str)
            else type(predictor).__name__
        ),
        "autoscale": autoscale,
    }
    if slo:
        # only-when-set: SLO-less manifests keep their historical digest
        config["slo"] = slo
    if scenario.leak_multiplier != 1.0:
        config["leak_multiplier"] = scenario.leak_multiplier
    return RunManifest.build(
        seed=seed,
        config=config,
        scenario=scenario.name,
        policy=policy,
        eras=eras,
    )


def _policy_run(
    drive,
    scenario: Scenario,
    policy: str,
    eras: int = 240,
    seed: int = 7,
    era_s: float = 30.0,
    beta: float = 0.5,
    predictor: str | RttfPredictor = "oracle",
    autoscale: bool = False,
    telemetry: Telemetry | None = None,
    slo: str | object | None = None,
) -> ExperimentResult:
    """Deploy -> drive -> assess: the one body of a policy run.

    ``drive(manager, eras)`` steps the deployed loop; the keywords (and
    their defaults) are those of :func:`run_policy_experiment` and
    :func:`run_instrumented_experiment`, which differ in nothing else.
    """
    if eras < MIN_ASSESS_ERAS:
        raise ValueError(
            f"eras must be >= {MIN_ASSESS_ERAS} for a meaningful assessment"
        )
    slo_label = (
        slo if isinstance(slo, str) else ("custom" if slo is not None else None)
    )
    manifest = _experiment_manifest(
        scenario, policy, eras, seed, era_s, beta, predictor, autoscale,
        slo=slo_label,
    )
    if telemetry is not None and telemetry.enabled:
        telemetry.set_manifest(manifest)
    manager = AcmManager(
        regions=list(scenario.regions),
        policy=policy,
        seed=seed,
        era_s=era_s,
        beta=beta,
        predictor=_resolve_predictor(predictor, scenario, seed),
        overlay=scenario.build_overlay(),
        autoscale=autoscale,
        telemetry=telemetry,
        leak_probability=(
            DEFAULT_LEAK_PROBABILITY * scenario.leak_multiplier
        ),
        slo=slo,
        egress_usd_per_req=scenario.egress_usd_per_req,
    )
    drive(manager, eras)
    cost = manager.cost
    return ExperimentResult(
        scenario=scenario.name,
        policy=policy,
        traces=manager.traces,
        assessment=assess_policy_run(policy, manager.traces),
        eras=eras,
        era_s=era_s,
        manifest=manifest,
        cost_stats={
            "total_usd": cost.total_usd,
            "egress_usd": cost.egress_usd,
            "requests_served": cost.requests_served,
            # 0.0 (not inf) before any request: payloads stay JSON-clean
            "cost_per_mreq": (
                cost.cost_per_million_requests()
                if cost.requests_served
                else 0.0
            ),
        },
        slo_stats=(
            manager.slo_controller.stats()
            if manager.slo_controller is not None
            else None
        ),
    )


def run_policy_experiment(
    scenario: Scenario, policy: str, **run
) -> ExperimentResult:
    """Run one policy on one scenario and assess it.

    ``run`` is any keyword of :func:`_policy_run` after ``policy``
    (``eras``, ``seed``, ``era_s``, ``beta``, ``predictor``,
    ``autoscale``, ...); its signature holds their defaults.

    Returns the traces (the series Figures 3-4 plot) plus the quantified
    policy verdict.  An enabled ``telemetry`` facade gets threaded through
    the whole deployment (loop, VMCs) and stamped with the run manifest;
    disabled or absent telemetry leaves the run bit-identical.

    ``slo`` (a spec string like ``"p95:0.5+dwell:120"``, or an
    :class:`~repro.slo.SloConfig`) arms the sim-side SLO controller:
    per-region ladders fed by era response times, shaping the Plan
    phase away from degraded regions.  ``None`` (the default) takes no
    SLO code path and keeps golden traces bit-identical.  The run-level
    SLO summary is exposed as ``result.slo_stats``; the deployment bill
    (always accounted) as ``result.cost_stats``.
    """
    return _policy_run(AcmManager.run, scenario, policy, **run)


def run_instrumented_experiment(
    scenario: Scenario, policy: str, **run
) -> tuple[ExperimentResult, Telemetry]:
    """A fully observable policy run: telemetry on, control traffic real.

    The run :func:`run_policy_experiment` makes of the same arguments
    (``run``: any of its keywords but ``telemetry``), except that the
    :class:`Telemetry` threaded through the deployment is built here,
    enabled, and that the loop is stepped by a
    :class:`~repro.core.distributed.DistributedControlPlane` whose
    report/fraction exchange rides a
    :class:`~repro.overlay.reliable.ReliableChannel` -- so the resulting
    dump carries channel-send spans and plane events alongside the
    MAPE/era/rejuvenation spans.  Returns the experiment result and the
    telemetry facade (snapshot/export it for the ``repro obs`` CLI).
    """
    telemetry = Telemetry(enabled=True)

    def drive(manager: AcmManager, eras: int) -> None:
        DistributedControlPlane(manager.loop, telemetry=telemetry).run(eras)

    result = _policy_run(drive, scenario, policy, telemetry=telemetry, **run)
    return result, telemetry


def compare_policies(
    scenario: Scenario, policies: tuple[str, ...] = PAPER_POLICIES, **run
) -> dict[str, ExperimentResult]:
    """Run several policies on the same scenario (same seed -> same load);
    ``run`` as for :func:`run_policy_experiment`."""
    return {
        policy: run_policy_experiment(scenario, policy, **run)
        for policy in policies
    }


def paper_shape_holds(results: dict[str, ExperimentResult]) -> dict[str, bool]:
    """Check the paper's qualitative claims on a comparison run.

    Returns named booleans so benchmarks can assert and report each claim
    separately.
    """
    required = set(PAPER_POLICIES)
    if not required <= set(results):
        missing = required - set(results)
        raise ValueError(f"comparison is missing policies: {sorted(missing)}")
    a1 = results["sensible-routing"].assessment
    a2 = results["available-resources"].assessment
    a3 = results["exploration"].assessment
    return {
        # Policy 1: RMTTFs stabilise apart / do not converge.
        "policy1_diverges": a1.rmttf_spread > max(a2.rmttf_spread, 0.15),
        # Policy 2: converges, and at least as fast as Policy 3.
        "policy2_converges": a2.converged,
        "policy2_fastest": (
            a2.converged
            and (
                not a3.converged
                or a2.convergence_time_s <= a3.convergence_time_s * 1.25
            )
        ),
        # Policy 3: converges too.
        "policy3_converges": a3.converged,
        # "the quickest convergence and the most stable results are
        # provided by Policy 2" -- stability of the *RMTTF* outcome; the
        # paper itself notes P2's fractions can be slightly more
        # oscillating than P3's in the 3-region case (Sec. VI-B).
        "policy2_most_stable": a2.rmttf_spread <= a3.rmttf_spread * 1.05,
        # All policies keep the response time under the 1 s SLA.
        "sla_met_all": all(
            r.assessment.sla_met for r in results.values()
        ),
    }
