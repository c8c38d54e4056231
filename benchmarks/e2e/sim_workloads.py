"""The four simulation workloads: fluid eras, DES, fleet-scale eras, a sweep.

Each class gives the repeat loop in :mod:`harness` a set-up, a warm-up, one
timed repeat with its output checks, the wrappers of the traced pass, and the
per-layer metrics read from those spans.  Inputs come from ``seed`` alone.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

import harness
import probes
from harness import Repeat, Result, Stopwatch
from spans import Tracer
from stats import percentile

from repro.core import control_loop, des_loop, get_policy
from repro.experiments import runner
from repro.experiments.scenarios import PAPER_POLICIES, three_region_scenario
from repro.fleet.executor import FleetExecutor
from repro.fleet.jobs import JobSpec, execute_job
from repro.fleet.spec import SweepSpec
from repro.ml.toolchain import F2PMToolchain
from repro.pcam import VirtualMachineController, VmcConfig
from repro.pcam.monitor import ProfilingHarness
from repro.pcam.predictor import OracleRttfPredictor, TrainedRttfPredictor
from repro.pcam.vm import VirtualMachine
from repro.sim.instances import get_instance_type
from repro.sim.rng import RngRegistry
from repro.workload.anomalies import AnomalyInjector
from repro.workload.browsers import BrowserPopulation
from repro.workload.tpcw import MIX_SHOPPING

NPROC = len(os.sched_getaffinity(0))
ERA_S = 30.0
_clock = time.perf_counter


def _median_of(tracer: Tracer, name: str, scale: float) -> float:
    durations = tracer.durations(name)
    return statistics.median(durations) * scale if durations else 0.0


def _p50_p95(values_ms) -> tuple[float, float]:
    return percentile(values_ms, 0.50), percentile(values_ms, 0.95)


def _check_fractions(traces, problems: list, label: str) -> None:
    series = list(traces.matching("fraction/").values())
    total = sum(s.values for s in series)
    if not series or not np.allclose(total, 1.0, atol=1e-9):
        problems.append(f"{label}: forward fractions do not sum to 1")
    if any((s.values < 0).any() for s in series):
        problems.append(f"{label}: negative forward fraction")


def _fleet(predictor, seed: int, n_vms: int, target_active: int):
    """One region of alternating m3.medium / private.small VMs, columnar."""
    m3 = get_instance_type("m3.medium")
    ps = get_instance_type("private.small")
    vms = [
        VirtualMachine(
            f"vm{i:05d}",
            m3 if i % 2 else ps,
            AnomalyInjector(np.random.default_rng([seed, i])),
        )
        for i in range(n_vms)
    ]
    config = VmcConfig(target_active=target_active, columnar=True)
    return VirtualMachineController("fleet", vms, predictor, config)


def _aged_feature_rows(predictor, seed: int) -> np.ndarray:
    """Feature rows of a small pool after a few eras, so tree paths vary."""
    vmc = _fleet(predictor, seed, 200, 180)
    for era in range(8):
        vmc.process_era(4000, ERA_S, era * ERA_S)
    return np.vstack([vm.sample_features().to_array() for vm in vmc.vms])


class SimWorkload:
    """What :func:`harness.run_sim` calls; the defaults do nothing."""

    name: str
    setup_repeats: int

    def install_setup(self, tracer: Tracer) -> None:
        """Wrap what the set-up calls (traced pass)."""

    def setup(self, seed: int, tracer: Tracer) -> dict:
        raise NotImplementedError

    def warm_up(self, ctx: dict, seed: int) -> None:
        """Untimed: fill caches, finish lazy imports."""

    def install(self, tracer: Tracer) -> None:
        """Wrap what a repeat calls (traced pass)."""

    def repeat(self, ctx: dict, seed: int) -> Repeat:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return harness.self_peak_rss_mb()

    def layer_metrics(
        self, result: Result, tracer: Tracer, ctx: dict, seed: int
    ) -> None:
        raise NotImplementedError


class _TrainedPredictorSetUp(SimWorkload):
    """Set-up that profiles VMs to failure and trains the REP-Tree."""

    def install_setup(self, tracer: Tracer) -> None:
        tracer.wrap(ProfilingHarness, "collect_runs", "pcam.profile")
        tracer.wrap(F2PMToolchain, "train_best", "ml.train")

    def _training_metrics(
        self, result: Result, tracer: Tracer, ctx: dict, seed: int
    ) -> None:
        m = result.metrics
        m["pcam.profile_s"] = sum(tracer.durations("pcam.profile"))
        m["ml.train_s"] = sum(tracer.durations("ml.train"))
        m["ml.predict_us_per_krow"] = probes.predict_us_per_krow(
            ctx["predictor"].model, _aged_feature_rows(ctx["predictor"], seed)
        )
        m["pcam.rejuvenations"] = result.counts["rejuvenations"]
        m["pcam.failures"] = result.counts["failures"]


class Fig4Fluid(_TrainedPredictorSetUp):
    """Three regions x the three paper policies, REP-Tree trained in set-up."""

    name = "fig4_fluid"
    setup_repeats = 3
    ERAS = 240

    def setup(self, seed: int, tracer: Tracer) -> dict:
        scenario = three_region_scenario()
        predictor = runner.make_trained_predictor(
            scenario.instance_types(), seed=seed
        )
        return {"scenario": scenario, "predictor": predictor}

    def _experiment(self, ctx: dict, seed: int, policy: str, eras: int):
        return runner.run_policy_experiment(
            ctx["scenario"],
            policy,
            eras=eras,
            seed=seed,
            predictor=ctx["predictor"],
        )

    def warm_up(self, ctx: dict, seed: int) -> None:
        self._experiment(ctx, seed, PAPER_POLICIES[1], 30)

    def install(self, tracer: Tracer) -> None:
        wrap = tracer.wrap
        wrap(
            runner,
            "run_policy_experiment",
            "experiments.run_policy_experiment",
        )
        wrap(runner, "assess_policy_run", "core.assess")
        wrap(control_loop.AcmControlLoop, "run_era", "core.run_era")
        wrap(control_loop, "compute_fractions", "core.compute_fractions")
        wrap(control_loop, "build_forward_plan", "core.build_forward_plan")
        wrap(VirtualMachineController, "process_era", "pcam.process_era")
        wrap(
            TrainedRttfPredictor, "predict_rttf_rows", "pcam.predict_rttf_rows"
        )

    def repeat(self, ctx: dict, seed: int) -> Repeat:
        watch = Stopwatch()
        results = {
            policy: watch.time(self._experiment, ctx, seed, policy, self.ERAS)
            for policy in PAPER_POLICIES
        }
        problems: list = []
        response_ms: list = []
        rejuvenations = failures = 0.0
        for policy, res in results.items():
            traces = res.traces
            _check_fractions(traces, problems, policy)
            response = traces.series("response_time").values
            if not (np.isfinite(response).all() and (response > 0).all()):
                problems.append(f"{policy}: response time not positive")
            response_ms.extend((response * 1e3).tolist())
            rejuvenations += traces.series("rejuvenations").values.sum()
            failures += traces.series("failures").values.sum()
        shape = runner.paper_shape_holds(results)
        return Repeat(
            slices=watch.slices,
            calib=watch.calib,
            units=len(PAPER_POLICIES) * self.ERAS,
            latency_ms=_p50_p95(response_ms),
            stats={
                "eras": len(PAPER_POLICIES) * self.ERAS,
                "rejuvenations": int(rejuvenations),
                "failures": int(failures),
                # seed-dependent (held on 11 of 12 seeds tried at 480 eras),
                # so printed, not gated
                "paper_shape_claims_held": sum(map(bool, shape.values())),
                "trace_digest": harness.trace_digest(
                    res.traces for res in results.values()
                ),
            },
            problems=problems,
        )

    def layer_metrics(
        self, result: Result, tracer: Tracer, ctx: dict, seed: int
    ) -> None:
        m = result.metrics
        self._training_metrics(result, tracer, ctx, seed)
        for metric, span, scale in (
            (
                "experiments.run_policy_experiment_s",
                "experiments.run_policy_experiment",
                1.0,
            ),
            ("core.run_era_us", "core.run_era", 1e6),
            ("core.compute_fractions_us", "core.compute_fractions", 1e6),
            ("core.build_forward_plan_us", "core.build_forward_plan", 1e6),
            ("core.assess_ms", "core.assess", 1e3),
            ("pcam.process_era_small_us", "pcam.process_era", 1e6),
        ):
            m[metric] = _median_of(tracer, span, scale)
        era = tracer.table()["core.run_era"]
        m["core.run_era_self_share"] = era["self_s"] / era["total_s"]


class DesTwoRegion(SimWorkload):
    """``DesControlLoop`` at the hot-path "medium" size.

    480 + 288 browsers on 24 + 16 VMs, oracle predictor, threshold 240 s.
    """

    name = "des_two_region"
    setup_repeats = 5
    ERAS = 20
    #: region -> (instance type, VMs, target active, browsers)
    REGIONS = {
        "r1": ("m3.medium", 24, 16, 480),
        "r3": ("private.small", 16, 12, 288),
    }
    BROWSERS = sum(shape[3] for shape in REGIONS.values())

    def _build(self, seed: int):
        """(a fresh loop, all its VMs)."""
        rngs = RngRegistry(seed=seed)
        regions = {}
        all_vms: list[VirtualMachine] = []
        for name, (type_name, n_vms, target, clients) in self.REGIONS.items():
            itype = get_instance_type(type_name)
            pool = [
                VirtualMachine(
                    f"{name}/vm{i}",
                    itype,
                    AnomalyInjector(rngs.child(f"{name}{i}").stream("a")),
                )
                for i in range(n_vms)
            ]
            all_vms.extend(pool)
            browsers = BrowserPopulation(n_clients=clients)
            regions[name] = (pool, browsers, target)
        mean_demand = MIX_SHOPPING.mean_service_demand()
        loop = des_loop.DesControlLoop(
            regions,
            get_policy("available-resources"),
            OracleRttfPredictor(mean_demand=mean_demand),
            rngs,
            era_s=ERA_S,
            rttf_threshold_s=240.0,
        )
        return loop, all_vms

    def setup(self, seed: int, tracer: Tracer) -> dict:
        self._build(seed)
        return {}

    def warm_up(self, ctx: dict, seed: int) -> None:
        self._build(seed)[0].run(2)

    def install(self, tracer: Tracer) -> None:
        wrap = tracer.wrap
        wrap(des_loop.DesControlLoop, "run_era", "core.des_run_era")
        wrap(des_loop, "compute_fractions", "core.compute_fractions")
        wrap(des_loop, "build_forward_plan", "core.build_forward_plan")
        wrap(
            OracleRttfPredictor, "predict_rttf_rows", "pcam.predict_rttf_rows"
        )

    def repeat(self, ctx: dict, seed: int) -> Repeat:
        loop, vms = self._build(seed)
        watch = Stopwatch()
        for _ in range(self.ERAS):
            watch.time(loop.run_era)
        traces = loop.traces
        completed = sum(
            traces.series(f"completed/{r}").values.sum() for r in self.REGIONS
        )
        response = np.concatenate(
            [traces.series(f"response_time/{r}").values for r in self.REGIONS]
        )
        problems: list = []
        _check_fractions(traces, problems, "des")
        # a closed-loop browser is thinking or has one request in flight, and
        # either way holds exactly one pending event: none lost, none doubled
        if loop.sim.pending_count != self.BROWSERS:
            problems.append("des: pending events != browsers")
        if not 0 < sum(vm.total_requests for vm in vms) <= completed:
            problems.append("des: VM-credited requests exceed completed ones")
        return Repeat(
            slices=watch.slices,
            calib=watch.calib,
            units=float(completed),
            latency_ms=_p50_p95((response[response > 0] * 1e3).tolist()),
            stats={
                "events_fired": int(loop.sim.fired_count),
                "requests": int(completed),
                "rejuvenations": int(loop.total_rejuvenations),
                "failures": int(loop.total_failures),
                "trace_digest": harness.trace_digest([traces]),
            },
            problems=problems,
        )

    def layer_metrics(
        self, result: Result, tracer: Tracer, ctx: dict, seed: int
    ) -> None:
        m = result.metrics
        counts = result.counts
        boundary = (
            "pcam.predict_rttf_rows",
            "core.compute_fractions",
            "core.build_forward_plan",
        )
        m["core.des_run_era_ms"] = _median_of(tracer, "core.des_run_era", 1e3)
        m["core.des_boundary_share"] = tracer.child_share(
            "core.des_run_era", boundary
        )
        m["core.compute_fractions_us"] = _median_of(tracer, boundary[1], 1e6)
        m["core.build_forward_plan_us"] = _median_of(tracer, boundary[2], 1e6)
        m["sim.events_fired"] = counts["events_fired"]
        m["sim.events_per_request"] = (
            counts["events_fired"] / counts["requests"]
        )
        m["pcam.rejuvenations"] = counts["rejuvenations"]
        m["pcam.failures"] = counts["failures"]
        m["sim.event_ns"] = probes.sim_event_ns(seed)


class PcamFleet10k(_TrainedPredictorSetUp):
    """One region of 10 000 VMs, trained REP-Tree, 200 000 requests an era."""

    name = "pcam_fleet_10k"
    setup_repeats = 3
    N_VMS = 10_000
    TARGET_ACTIVE = 9_000
    REQUESTS_PER_ERA = 200_000
    ERAS = 20

    def _fleet(self, ctx: dict, seed: int) -> VirtualMachineController:
        return _fleet(ctx["predictor"], seed, self.N_VMS, self.TARGET_ACTIVE)

    def _era(self, vmc: VirtualMachineController, era: int):
        return vmc.process_era(self.REQUESTS_PER_ERA, ERA_S, era * ERA_S)

    def setup(self, seed: int, tracer: Tracer) -> dict:
        ctx = {
            "predictor": runner.make_trained_predictor(
                ["m3.medium", "private.small"], seed=seed
            )
        }
        with tracer.span("pcam.build_vmc"):
            self._fleet(ctx, seed)
        return ctx

    def warm_up(self, ctx: dict, seed: int) -> None:
        vmc = self._fleet(ctx, seed)
        for era in range(2):
            self._era(vmc, era)

    def install(self, tracer: Tracer) -> None:
        wrap = tracer.wrap
        wrap(VirtualMachineController, "process_era", "pcam.process_era")
        wrap(
            TrainedRttfPredictor, "predict_rttf_rows", "pcam.predict_rttf_rows"
        )

    def repeat(self, ctx: dict, seed: int) -> Repeat:
        vmc = self._fleet(ctx, seed)
        watch = Stopwatch()
        reports = [watch.time(self._era, vmc, era) for era in range(self.ERAS)]
        problems: list = []
        pools = {
            r.n_active + r.n_standby + r.n_rejuvenating + r.n_failed
            for r in reports
        }
        if pools != {self.N_VMS}:
            problems.append("fleet: VM states do not add up to the pool")
        response = np.array([r.response_time_s for r in reports])
        if not (np.isfinite(response).all() and (response > 0).all()):
            problems.append("fleet: response time not finite and positive")
        totals = vmc.stats()
        per_era = [
            (
                r.response_time_s,
                r.last_rmttf,
                r.requests_served,
                r.n_active,
                r.rejuvenations_triggered,
                r.failures,
            )
            for r in reports
        ]
        return Repeat(
            slices=watch.slices,
            calib=watch.calib,
            units=self.N_VMS * self.ERAS,
            latency_ms=_p50_p95((response * 1e3).tolist()),
            stats={
                "vm_eras": self.N_VMS * self.ERAS,
                "requests": int(totals["total_requests"]),
                "rejuvenations": int(totals["total_rejuvenations"]),
                "failures": int(totals["total_failures"]),
                "era_report_digest": harness.json_digest(per_era),
            },
            problems=problems,
        )

    def layer_metrics(
        self, result: Result, tracer: Tracer, ctx: dict, seed: int
    ) -> None:
        m = result.metrics
        self._training_metrics(result, tracer, ctx, seed)
        m["pcam.build_vmc_s"] = _median_of(tracer, "pcam.build_vmc", 1.0)
        m["pcam.process_era_ms"] = _median_of(tracer, "pcam.process_era", 1e3)
        m["pcam.predict_rttf_rows_ms"] = _median_of(
            tracer, "pcam.predict_rttf_rows", 1e3
        )
        m["workload.anomaly_inject_us"] = probes.anomaly_inject_us(seed)


class SweepGrid(SimWorkload):
    """3 regions x 3 policies x 4 replicates = 12 cells, ``FleetExecutor``."""

    name = "sweep_grid"
    setup_repeats = 5
    ERAS = 30

    def __init__(self) -> None:
        #: (job label, event, instant) from the executor's progress callback
        self._job_events: list = []
        self._sweep_s = 0.0
        self._retried = 0

    def setup(self, seed: int, tracer: Tracer) -> dict:
        spec = SweepSpec(
            scenarios=("three-region",),
            loads=(1.0,),
            replicates=4,
            root_seed=seed,
            eras=self.ERAS,
        )
        return {"jobs": spec.expand()}

    def warm_up(self, ctx: dict, seed: int) -> None:
        FleetExecutor(workers=NPROC).run(ctx["jobs"][:NPROC])

    def install(self, tracer: Tracer) -> None:
        tracer.wrap(FleetExecutor, "run", "fleet.run")

    def _progress(self, line: str) -> None:
        event, _, rest = line.partition(" ")
        self._job_events.append((rest.split()[0], event, _clock()))

    def repeat(self, ctx: dict, seed: int) -> Repeat:
        jobs = ctx["jobs"]
        # the workers keep every core busy, so calibrate in that regime, and
        # on both sides of the one slice a repeat has
        watch = Stopwatch(probes.all_cores_factor)
        executor = FleetExecutor(workers=NPROC, progress=self._progress)
        outcome = watch.time(executor.run, jobs)
        watch.calib.append(watch.calibrate())
        self._sweep_s += watch.slices[0]
        self._retried += outcome.retried
        payloads = [p for p in outcome.payloads if p is not None]
        problems = [
            f"sweep: {digest}: {error}"
            for digest, error in outcome.failures.items()
        ]
        if not payloads:
            raise RuntimeError(f"every sweep job failed: {problems[:2]}")
        return Repeat(
            slices=watch.slices,
            calib=watch.calib,
            units=len(jobs),
            latency_ms=tuple(
                statistics.median(p[key] for p in payloads) * 1e3
                for key in ("mean_response_s", "response_p95_s")
            ),
            stats={
                "jobs": len(jobs),
                "payload_digest": harness.json_digest(payloads),
            },
            operations=len(jobs),
            failed=len(outcome.failures),
            problems=problems,
        )

    def peak_rss_mb(self) -> float:
        return max(harness.self_peak_rss_mb(), harness.children_peak_rss_mb())

    def layer_metrics(
        self, result: Result, tracer: Tracer, ctx: dict, seed: int
    ) -> None:
        m = result.metrics
        started: dict = {}
        job_s = []
        for label, event, instant in self._job_events:
            if event == "run":
                started[label] = instant
            elif event == "ok" and label in started:
                job_s.append(instant - started.pop(label))
        m["fleet.parallel_efficiency"] = sum(job_s) / (NPROC * self._sweep_s)
        m["fleet.jobs_retried"] = self._retried
        times = []
        for job in ctx["jobs"][:3]:
            t0 = _clock()
            execute_job(job)
            times.append(_clock() - t0)
        m["fleet.job_exec_s"] = statistics.median(times)
        empty = [
            JobSpec(
                kind="synthetic",
                scenario="sleep",
                policy="",
                load=0.0,
                seed=seed,
                replicate=i,
                eras=0,
            )
            for i in range(8)
        ]
        spawn = []
        for _ in range(3):
            t0 = _clock()
            FleetExecutor(workers=NPROC).run(empty)
            spawn.append((_clock() - t0) / len(empty))
        m["fleet.spawn_overhead_ms"] = statistics.median(spawn) * 1e3


SIM_WORKLOADS = {
    w.name: w for w in (Fig4Fluid, DesTwoRegion, PcamFleet10k, SweepGrid)
}
