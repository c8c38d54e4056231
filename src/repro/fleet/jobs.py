"""Fleet jobs: the unit of work a sweep campaign schedules.

A :class:`JobSpec` is a frozen, JSON-able description of one simulation
run -- everything :func:`execute_job` needs to reproduce it from scratch
in a worker process.  The spec's :meth:`~JobSpec.config` dict is hashed
with :func:`repro.obs.manifest.config_digest` to produce the job's
identity; that digest keys the on-disk
:class:`~repro.fleet.store.ResultStore`, so two jobs with the same
effective configuration share one cached result and an edited sweep only
recomputes the changed cells.

Job kinds
---------

``policy``
    One policy x scenario x load run through
    :func:`repro.experiments.runner.run_policy_experiment`.  ``load`` is
    a client multiplier applied to every region of the named scenario
    (clamped to the paper's [16, 512] interval).
``chaos``
    One seeded resilience campaign from
    :mod:`repro.experiments.resilience`; ``scenario`` names the
    campaign, ``eras == 0`` means the campaign's default length.
``synthetic``
    Harness-calibration jobs (sleep / crash / hang / flaky) used by the
    executor tests and the scheduling benchmark; they exercise the
    fleet machinery without simulating anything.

``domains`` and ``slo`` are the optional sweep axes: declared on
:class:`JobSpec`, handed to the run by ``_execute_policy``; what they
add to a job's config, digest and label (nothing, when off) is the one
table in :mod:`repro.fleet.axes`.

Payloads are plain dicts of JSON-able scalars so that a store round-trip
(`json.dumps` -> `json.loads`) is the identity: the determinism
acceptance test compares payloads from serial and 4-worker runs with
``==``.

Heavyweight imports happen *inside* the executors: the module itself
stays import-light (workers fork fast, and ``repro.experiments`` modules
import this one).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.fleet.axes import AXES, job_values, label_parts, switched_on
from repro.obs.manifest import RunManifest, config_digest

#: Job kinds understood by :func:`execute_job`.
JOB_KINDS = ("policy", "chaos", "synthetic")


@dataclass(frozen=True, slots=True)
class JobSpec:
    """One schedulable, content-addressed simulation job."""

    kind: str
    #: scenario key ("two-region"), campaign name, or synthetic op
    scenario: str
    #: routing policy; empty for kinds that have none (chaos, synthetic)
    policy: str
    #: kind-dependent scalar: client multiplier (policy),
    #: unused (chaos), duration in seconds (synthetic sleep/hang)
    load: float
    seed: int
    #: replicate index within the sweep cell (0-based)
    replicate: int
    eras: int
    era_s: float = 30.0
    predictor: str = "oracle"
    # one field per row of ``repro.fleet.axes.AXES``, defaulting to off:
    #: failure-domain shape ("flat" or "NxM") of every scenario region
    domains: str = "flat"
    #: SLO spec (``parse_slo_spec`` grammar, e.g. "p95:0.5+dwell:120")
    slo: str = ""

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {self.kind!r}; expected one of {JOB_KINDS}"
            )
        for axis, value in zip(AXES, job_values(self)):
            axis.check(value)  # ValueError on garbage

    def config(self) -> dict:
        """The effective configuration this job is a pure function of."""
        config = {
            "kind": self.kind,
            "scenario": self.scenario,
            "policy": self.policy,
            "load": float(self.load),
            "seed": int(self.seed),
            "replicate": int(self.replicate),
            "eras": int(self.eras),
            "era_s": float(self.era_s),
            "predictor": self.predictor,
        }
        for axis, value in switched_on(job_values(self)):
            config[axis.job_field] = value
        return config

    @property
    def digest(self) -> str:
        """Content digest keying this job in the result store."""
        return config_digest(self.config())

    @property
    def label(self) -> str:
        """Compact human-readable identity for listings and progress."""
        parts = [self.kind, self.scenario]
        if self.policy:
            parts.append(self.policy)
        parts.append(f"load{self.load:g}")
        parts.extend(label_parts(job_values(self)))
        parts.append(f"rep{self.replicate}")
        return "/".join(parts)

    def manifest(self) -> RunManifest:
        """Per-job provenance (seed + config digest + code version)."""
        return RunManifest.build(
            seed=self.seed,
            config=self.config(),
            kind=self.kind,
            label=self.label,
        )

    @classmethod
    def from_config(cls, config: dict) -> "JobSpec":
        """Rebuild a spec from its :meth:`config` dict (store entries):
        its keys are field names, and an axis it does not key is off,
        which is that field's default."""
        return cls(**config)


# ------------------------------------------------------------------ #
# scenario scaling
# ------------------------------------------------------------------ #


def parse_scenario_key(key: str) -> tuple[str, float]:
    """Split ``"three-region+drift2.5"`` into (base key, drift factor).

    A bare key means no drift (factor 1.0).  The drift factor multiplies
    the scenario's anomaly (memory-leak) rate -- a non-stationary
    regime the static policies were not tuned for.
    """
    base, sep, suffix = key.partition("+")
    if not sep:
        return key, 1.0
    if not suffix.startswith("drift"):
        raise ValueError(
            f"unknown scenario modifier {suffix!r} in {key!r} "
            "(expected '+drift<factor>')"
        )
    try:
        factor = float(suffix[len("drift"):])
    except ValueError:
        raise ValueError(
            f"bad drift factor in scenario key {key!r}"
        ) from None
    if factor <= 0:
        raise ValueError(f"drift factor must be positive in {key!r}")
    return base, factor


def build_scenario(key: str, load: float, domains: str = "flat"):
    """The named paper scenario with every region's clients scaled.

    ``load`` multiplies each region's client count, clamped to the
    paper's [16, 512] interval so every cell of a sweep stays inside
    the evaluated regime.  ``domains`` reshapes every region's failure
    domains (``"flat"`` or ``"NxM"``, see
    :meth:`~repro.experiments.scenarios.Scenario.with_domains`); the
    default leaves the scenario byte-identical to the historical one.
    A ``"+drift<factor>"`` key suffix multiplies the anomaly rate (see
    :func:`parse_scenario_key`).
    """
    from dataclasses import replace

    from repro.experiments.scenarios import resolve_scenario
    from repro.workload.browsers import CLIENT_RANGE

    lo, hi = CLIENT_RANGE
    key, drift = parse_scenario_key(key)
    if load <= 0:
        raise ValueError(f"load multiplier must be positive, got {load}")
    base = resolve_scenario(key).with_drift(drift)
    regions = tuple(
        replace(
            spec,
            clients=max(lo, min(hi, int(round(spec.clients * load)))),
        )
        for spec in base.regions
    )
    return replace(base, regions=regions).with_domains(domains)


# ------------------------------------------------------------------ #
# per-kind executors
# ------------------------------------------------------------------ #


def _tail_mean_rmttf(traces) -> float:
    """Steady-state RMTTF: mean over the last 30% of every region
    series."""
    import numpy as np

    tails = [
        s.tail_fraction(0.3).mean()
        for s in traces.matching("rmttf/").values()
    ]
    return float(np.mean(tails))


def _availability(traces, scenario) -> float:
    """Mean served-capacity availability: ``min(active/target, 1)`` per
    region per era, averaged."""
    import numpy as np

    targets = {s.name: max(s.target_active, 1) for s in scenario.regions}
    per_region = []
    for key, series in traces.matching("active_vms/").items():
        region = key.split("/", 1)[1]
        per_region.append(
            np.minimum(
                np.asarray(series.values, dtype=float) / targets[region], 1.0
            )
        )
    if not per_region:
        return 0.0
    return float(np.mean(np.stack(per_region)))


def policy_run_args(job: JobSpec) -> tuple:
    """The ``(scenario, run_policy_experiment keywords)`` a ``policy``
    job names -- what its executor runs and what ``repro sweep
    --obs-dump`` instruments."""
    scenario = build_scenario(job.scenario, job.load, domains=job.domains)
    return scenario, dict(
        eras=job.eras,
        seed=job.seed,
        era_s=job.era_s,
        predictor=job.predictor,
        slo=job.slo or None,
    )


def _execute_policy(job: JobSpec) -> dict:
    from repro.experiments.runner import run_policy_experiment
    from repro.slo.evaluator import nearest_rank_quantile

    scenario, run = policy_run_args(job)
    result = run_policy_experiment(scenario, job.policy, **run)
    a = result.assessment
    payload = {
        "scenario": result.scenario,
        "policy": job.policy,
        "clients_total": sum(r.clients for r in scenario.regions),
        "mean_rmttf_s": _tail_mean_rmttf(result.traces),
        "rmttf_spread": a.rmttf_spread,
        "convergence_time_s": a.convergence_time_s,
        "converged": a.converged,
        "fraction_oscillation": a.fraction_oscillation,
        "rmttf_oscillation": a.rmttf_oscillation,
        "mean_response_s": a.mean_response_time_s,
        "max_response_s": a.max_response_time_s,
        "sla_met": a.sla_met,
        "rejuvenations": a.total_rejuvenations,
        "failures": a.total_failures,
        "availability": _availability(result.traces, scenario),
        # cost accounting is always on (payloads are not digested, so
        # adding these keys unconditionally is safe)
        "cost_usd": result.cost_stats["total_usd"],
        "cost_per_mreq": result.cost_stats["cost_per_mreq"],
        "egress_usd": result.cost_stats["egress_usd"],
        "response_p95_s": nearest_rank_quantile(
            result.traces.series("response_time").values, 0.95
        ),
    }
    if result.slo_stats is not None:
        # only stamped when an SLO controller ran
        payload["slo"] = job.slo
        payload["slo_degraded_eras"] = result.slo_stats["degraded_eras"]
        payload["slo_violation_rate"] = result.slo_stats["violation_rate"]
    return payload


def _execute_chaos(job: JobSpec) -> dict:
    from repro.experiments.resilience import run_campaign

    result = run_campaign(
        job.scenario,
        eras=job.eras if job.eras > 0 else None,
        seed=job.seed,
        era_s=job.era_s,
    )
    hold = sum(1 for m in result.degradation if m == "hold")
    fallback = sum(1 for m in result.degradation if m == "fallback")
    payload = {
        "campaign": result.name,
        "eras": result.eras,
        "availability": result.availability,
        "unavailable_eras": result.unavailable_eras,
        "mttr_s": result.mttr_s,
        "recovered": result.recovered,
        "faults_injected": len(result.fault_log),
        "degraded_hold_eras": hold,
        "degraded_fallback_eras": fallback,
        "messages_sent": result.message_stats.get("sent", 0),
        "messages_retried": result.message_stats.get("retries", 0),
        "final_fractions": {
            k: float(v) for k, v in sorted(result.final_fractions.items())
        },
    }
    if result.domain_availability:
        # hierarchical campaigns only, so flat-campaign payloads (and
        # the store entries their digests address) are byte-identical
        payload["domain_availability"] = {
            k: float(v)
            for k, v in sorted(result.domain_availability.items())
        }
        payload["domain_faults"] = dict(sorted(result.domain_faults.items()))
        payload["spread_deferrals"] = int(result.spread_deferrals)
    return payload


def _execute_synthetic(job: JobSpec) -> dict:
    """Calibration ops for executor tests and the scheduling benchmark.

    ``sleep``  block for ``load`` seconds, then succeed;
    ``hang``   block for ``load`` seconds (alias used by timeout tests);
    ``crash``  raise;
    ``exit``   kill the worker process without a Python exception;
    ``flaky:<path>``  crash on the first attempt (creating ``path`` as
    the attempt marker), succeed on retries -- exercises the bounded
    retry loop end to end across real process boundaries.
    """
    op, _, arg = job.scenario.partition(":")
    if op in ("sleep", "hang"):
        time.sleep(job.load)
    elif op == "crash":
        raise RuntimeError(f"synthetic crash (rep {job.replicate})")
    elif op == "exit":
        os._exit(17)
    elif op == "flaky":
        if not os.path.exists(arg):
            with open(arg, "w", encoding="utf-8") as fh:
                fh.write("attempted\n")
            raise RuntimeError("synthetic flaky first attempt")
    else:
        raise ValueError(f"unknown synthetic op {job.scenario!r}")
    return {
        "op": op,
        "duration_s": float(job.load),
        "seed": int(job.seed),
        "replicate": int(job.replicate),
    }


_EXECUTORS = {
    "policy": _execute_policy,
    "chaos": _execute_chaos,
    "synthetic": _execute_synthetic,
}


def _plain(value):
    """Recursively strip NumPy scalar types so payloads are pure JSON.

    ``np.bool_`` / ``np.float64`` leak out of assessments; ``.item()``
    converts them losslessly, keeping the payload == its store
    round-trip.
    """
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    item = getattr(value, "item", None)
    if item is not None and type(value).__module__ == "numpy":
        return item()
    return value


def execute_job(job: JobSpec) -> dict:
    """Run one job to completion and return its JSON-able payload.

    A pure function of the spec: no global state is read or written, so
    the same spec produces a bit-identical payload whether it runs
    inline, in a forked worker, or on another machine.
    """
    return _plain(_EXECUTORS[job.kind](job))
