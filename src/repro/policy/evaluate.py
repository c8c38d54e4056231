"""Head-to-head evaluation campaigns for policy heads.

An evaluation pits frozen heads -- static Policies 1-3 behind
:class:`~repro.policy.heads.StaticPolicyHead` and any trained
checkpoints -- against the same scenarios on the same seeds (paired
replicates), through ordinary ``policy`` fleet jobs.  Scenario keys
accept the ``+drift<factor>`` suffix, so one campaign can cover the
stationary regime, the drifted regime the learned heads target, and a
hierarchical failure-domain shape (the ``domains`` knob).

The product is the availability / RMTTF / cost frontier table of the
``repro policy eval`` CLI, plus (when a training directory is given)
the per-round regret curve from ``train-history.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fleet.axes import head_label
from repro.fleet.executor import FleetExecutor
from repro.fleet.jobs import JobSpec, parse_scenario_key
from repro.fleet.store import ResultStore
from repro.obs.manifest import RunManifest
from repro.sim.rng import derive_seed

#: Frontier columns, in report order: payload key -> column header.
FRONTIER_METRICS = (
    ("availability", "availability"),
    ("mean_rmttf_s", "rmttf_s"),
    ("mean_response_s", "response_s"),
    ("cost_per_mreq", "$/Mreq"),
    ("mean_reward", "reward"),
    ("sla_met", "sla_rate"),
)


def frozen_spec(spec: str) -> str:
    """Force eval semantics onto a head spec (checkpoints load frozen)."""
    if spec.startswith(("static:", "frozen:")):
        return spec
    return f"frozen:{spec}"


@dataclass(frozen=True)
class EvalConfig:
    """One head-to-head campaign: heads x scenarios x replicates."""

    #: head specs; checkpoint paths are frozen automatically
    heads: tuple[str, ...] = (
        "static:sensible-routing",
        "static:available-resources",
        "static:exploration",
    )
    scenarios: tuple[str, ...] = (
        "three-region",
        "three-region+drift6",
    )
    #: static policy used for hold/fallback modes inside every run
    fallback_policy: str = "sensible-routing"
    #: failure-domain shape applied to every scenario ("flat" or "NxM")
    domains: str = "flat"
    replicates: int = 3
    eras: int = 30
    era_s: float = 30.0
    load: float = 1.0
    seed: int = 7
    workers: int = 1
    #: optional result-store directory (resumable campaigns)
    store_dir: str | None = None

    def __post_init__(self) -> None:
        if not self.heads:
            raise ValueError("need at least one head spec")
        for scenario in self.scenarios:
            parse_scenario_key(scenario)  # raises on garbage
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.eras < 10:
            raise ValueError("eras must be >= 10 (assessment minimum)")

    def as_dict(self) -> dict:
        return {
            "heads": list(self.heads),
            "scenarios": list(self.scenarios),
            "fallback_policy": self.fallback_policy,
            "domains": self.domains,
            "replicates": self.replicates,
            "eras": self.eras,
            "era_s": self.era_s,
            "load": self.load,
            "seed": self.seed,
        }

    def jobs(self) -> list[JobSpec]:
        """The campaign's job list, scenario-major, heads paired on the
        same per-replicate seeds."""
        jobs: list[JobSpec] = []
        for scenario in self.scenarios:
            for head in self.heads:
                for rep in range(self.replicates):
                    # seed keyed by (scenario, rep) only: every head
                    # sees identical workloads -- paired comparison
                    cell = f"policy/eval/{scenario}/rep{rep}"
                    jobs.append(
                        JobSpec(
                            kind="policy",
                            scenario=scenario,
                            policy=self.fallback_policy,
                            load=float(self.load),
                            seed=derive_seed(self.seed, cell),
                            replicate=rep,
                            eras=self.eras,
                            era_s=self.era_s,
                            domains=self.domains,
                            policy_head=frozen_spec(head),
                        )
                    )
        return jobs


@dataclass
class EvalRow:
    """One (scenario, head) frontier point, averaged over replicates."""

    scenario: str
    head: str
    n: int
    metrics: dict[str, float] = field(default_factory=dict)


@dataclass
class EvalResult:
    """Everything one campaign produced."""

    config: EvalConfig
    rows: list[EvalRow]
    manifest: RunManifest
    store_hits: int = 0
    executed: int = 0

    def row(self, scenario: str, head: str) -> EvalRow:
        label = head_label(frozen_spec(head))
        for row in self.rows:
            if row.scenario == scenario and row.head == label:
                return row
        raise KeyError(f"no eval row for {scenario!r} x {head!r}")


def _fold(payloads: list[dict]) -> dict[str, float]:
    """Mean frontier metrics over a cell's replicate payloads."""
    metrics: dict[str, float] = {}
    for key, _ in FRONTIER_METRICS:
        values = []
        for p in payloads:
            if key in p:
                values.append(float(p[key]))
            elif "head" in p and key in p["head"]:
                values.append(float(p["head"][key]))
        if values:
            metrics[key] = float(np.mean(values))
    return metrics


def evaluate_heads(cfg: EvalConfig, progress=None) -> EvalResult:
    """Run the campaign and fold payloads into frontier rows."""
    jobs = cfg.jobs()
    store = (
        ResultStore(cfg.store_dir) if cfg.store_dir is not None else None
    )
    executor = FleetExecutor(
        workers=cfg.workers, store=store, resume=True, progress=progress
    )
    outcome = executor.run(jobs)
    if not outcome.ok:
        failures = "; ".join(
            f"{d}: {m}" for d, m in sorted(outcome.failures.items())
        )
        raise RuntimeError(f"evaluation had failed cells: {failures}")

    grouped: dict[tuple[str, str], list[dict]] = {}
    order: list[tuple[str, str]] = []
    for job, payload in zip(jobs, outcome.payloads):
        key = (job.scenario, head_label(job.policy_head))
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(payload)

    rows = [
        EvalRow(
            scenario=scenario,
            head=head,
            n=len(grouped[(scenario, head)]),
            metrics=_fold(grouped[(scenario, head)]),
        )
        for scenario, head in order
    ]
    manifest = RunManifest.build(
        seed=cfg.seed, config=cfg.as_dict(), cells=len(rows)
    )
    return EvalResult(
        config=cfg,
        rows=rows,
        manifest=manifest,
        store_hits=outcome.store_hits,
        executed=outcome.executed,
    )


# ------------------------------------------------------------------ #
# rendering
# ------------------------------------------------------------------ #


def frontier_table(result: EvalResult) -> str:
    """The availability / MTTF / cost frontier as a GitHub-style table."""
    lines = [f"# manifest: {result.manifest.to_json()}"]
    header = ["scenario", "head", "n"] + [
        name for _, name in FRONTIER_METRICS
    ]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "|".join("---" for _ in header) + "|")
    for row in result.rows:
        cells = [row.scenario, row.head, str(row.n)]
        for key, _ in FRONTIER_METRICS:
            value = row.metrics.get(key)
            cells.append("-" if value is None else f"{value:.6g}")
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def regret_report(history: dict) -> str:
    """The per-round regret curve of a ``train-history.json`` document.

    Regret is ``best static baseline mean reward - learned mean reward``
    on paired seeds; a descending curve is the learning signal.
    """
    rounds = history.get("rounds", [])
    if not rounds:
        return "regret curve: (no completed rounds)"
    lines = ["| round | reward | best static | regret |", "|---|---|---|---|"]
    for row in rounds:
        best = max(row["baselines"].values())
        lines.append(
            f"| {row['round']} | {row['mean_reward']:.4f} "
            f"| {best:.4f} | {row['regret']:+.4f} |"
        )
    return "\n".join(lines)
