"""Round-synchronous policy-head training on the fleet executor.

The trainer alternates two steps until the round budget is spent:

1. **Snapshot.**  The master head's parameters are written as a
   content-addressed checkpoint
   (:func:`~repro.policy.checkpoint.save_head_addressed`), so every
   rollout job's config -- and therefore its
   :class:`~repro.fleet.store.ResultStore` digest -- names the exact
   parameters it ran against.  A killed training run resumes from the
   store without recomputing finished episodes.
2. **Rollout + replay.**  ``episodes_per_round`` episodes (plus the
   static baselines, on the *same* seeds, for a paired regret estimate)
   run through the :class:`~repro.fleet.executor.FleetExecutor`.  Each
   worker loads the snapshot, learns locally through its episode, and
   returns the transition log; the master then replays every episode's
   transitions in spec order.  Replay order depends only on the job
   list, never on completion order, which is what makes training
   **worker-count invariant**: ``--workers 1`` and ``--workers 4``
   produce bit-identical parameters.

Episode seeds derive from one root --
``derive_seed(seed, "policy/train/round<r>/ep<e>")`` -- so the whole
campaign is a pure function of its :class:`TrainConfig`, and the final
checkpoint (written to the stable path ``<out>/policy-head-final.json``)
is byte-identical across same-config runs: the byte-identity acceptance
check of ``repro policy train``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.fleet.executor import FleetExecutor
from repro.fleet.jobs import JobSpec, parse_scenario_key
from repro.fleet.store import ResultStore
from repro.obs.manifest import RunManifest
from repro.policy.checkpoint import (
    head_digest,
    load_head,
    save_head,
    save_head_addressed,
)
from repro.policy.heads import LEARNED_KINDS, build_head
from repro.policy.runtime import PolicyHeadRuntime, RewardConfig
from repro.sim.rng import derive_seed

#: Stable filename of the final frozen checkpoint inside ``out_dir``.
FINAL_CHECKPOINT = "policy-head-final.json"

#: Stable filename of the per-round training history inside ``out_dir``.
HISTORY_FILE = "train-history.json"


# ------------------------------------------------------------------ #
# one episode (runs inside a fleet worker)
# ------------------------------------------------------------------ #


def run_rollout_episode(
    *,
    scenario: str,
    head_spec: str,
    fallback_policy: str,
    eras: int,
    seed: int,
    era_s: float = 30.0,
    load: float = 1.0,
    reward: RewardConfig | None = None,
) -> dict:
    """One training/eval episode: drive the fluid era model
    (:func:`~repro.experiments.runner.run_policy_experiment`) with a
    head, return the per-era rewards and the transition log the trainer
    replays.

    This is the body of ``rollout`` fleet jobs
    (:func:`repro.fleet.jobs._execute_rollout`).  The head resolves
    through the usual spec grammar -- checkpoint paths stay *trainable*
    here, so the worker keeps learning through its own episode (the
    exploration that generates informative transitions) while the master
    only trusts the returned log.
    """
    from repro.experiments.runner import run_policy_experiment
    from repro.fleet.jobs import build_scenario

    scn = build_scenario(scenario, load)
    head = load_head(head_spec)
    # episode isolation: any sampling stream is a pure function of the
    # episode seed, never of worker identity or wall clock
    head.reseed(derive_seed(seed, "policy-head"))
    runtime = PolicyHeadRuntime(head, reward=reward or RewardConfig())
    result = run_policy_experiment(
        scn,
        fallback_policy,
        eras=eras,
        seed=seed,
        era_s=era_s,
        policy_head=runtime,
    )
    stats = result.head_stats
    return {
        "scenario": scn.name,
        "head_spec": head_spec,
        "head": head.name,
        "kind": head.kind,
        "seed": int(seed),
        "eras": int(eras),
        "mean_reward": stats["mean_reward"],
        "availability": stats["availability"],
        "cost_per_mreq": stats["cost_per_mreq"],
        "mean_threshold_delta_s": stats["mean_threshold_delta_s"],
        "rewards": [float(r) for r in runtime.rewards],
        # already JSON-able: heads log transitions via .tolist()
        "transitions": list(head.transitions),
    }


# ------------------------------------------------------------------ #
# the campaign
# ------------------------------------------------------------------ #


@dataclass(frozen=True)
class TrainConfig:
    """Everything one training campaign is a pure function of."""

    head_kind: str = "bandit"
    #: scenario key, optionally drifted (the drifted regime is the one
    #: the learned heads are meant to win on)
    scenario: str = "three-region+drift6"
    #: the static policy used for hold/fallback modes inside episodes
    fallback_policy: str = "sensible-routing"
    #: static heads run on the same seeds each round for paired regret
    baselines: tuple[str, ...] = (
        "static:sensible-routing",
        "static:available-resources",
    )
    rounds: int = 6
    episodes_per_round: int = 4
    eras: int = 30
    era_s: float = 30.0
    load: float = 1.0
    seed: int = 7
    workers: int = 1
    out_dir: str = "results/policy"

    def __post_init__(self) -> None:
        if self.head_kind not in LEARNED_KINDS:
            raise ValueError(
                f"head_kind must be one of {LEARNED_KINDS}, "
                f"got {self.head_kind!r}"
            )
        parse_scenario_key(self.scenario)  # raises on garbage
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.episodes_per_round < 1:
            raise ValueError("episodes_per_round must be >= 1")
        if self.eras < 10:
            raise ValueError("eras must be >= 10 (assessment minimum)")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def as_dict(self) -> dict:
        return {
            "head_kind": self.head_kind,
            "scenario": self.scenario,
            "fallback_policy": self.fallback_policy,
            "baselines": list(self.baselines),
            "rounds": self.rounds,
            "episodes_per_round": self.episodes_per_round,
            "eras": self.eras,
            "era_s": self.era_s,
            "load": self.load,
            "seed": self.seed,
        }


@dataclass
class TrainResult:
    """What one training campaign produced."""

    config: TrainConfig
    #: the trained head (left trainable; the checkpoint is what eval uses)
    head: object
    #: stable path of the final checkpoint (byte-identical across runs)
    checkpoint: Path
    #: content digest of the final parameters
    digest: str
    #: one row per round: mean reward, baselines, regret, checkpoint
    history: list[dict] = field(default_factory=list)
    #: fleet bookkeeping (store hits let a resumed run skip episodes)
    store_hits: int = 0
    executed: int = 0

    @property
    def regret_curve(self) -> list[float]:
        """Per-round regret vs the best static baseline (paired seeds)."""
        return [row["regret"] for row in self.history]


def _round_jobs(
    cfg: TrainConfig, rnd: int, snapshot: Path
) -> tuple[list[JobSpec], list[str]]:
    """The round's job list: learned episodes first, then baselines.

    Returns (jobs, head specs aligned with jobs).  The learned episodes
    and every baseline share the per-episode seeds, so the regret
    estimate is paired.
    """
    jobs: list[JobSpec] = []
    specs: list[str] = []
    heads = [str(snapshot)] + list(cfg.baselines)
    for spec in heads:
        for ep in range(cfg.episodes_per_round):
            cell = f"policy/train/round{rnd}/ep{ep}"
            jobs.append(
                JobSpec(
                    kind="rollout",
                    scenario=cfg.scenario,
                    policy=cfg.fallback_policy,
                    load=float(cfg.load),
                    seed=derive_seed(cfg.seed, cell),
                    replicate=ep,
                    eras=cfg.eras,
                    era_s=cfg.era_s,
                    policy_head=spec,
                )
            )
            specs.append(spec)
    return jobs, specs


def train_policy_head(
    cfg: TrainConfig,
    progress: Callable[[str], None] | None = None,
) -> TrainResult:
    """Run one round-synchronous training campaign (see module docstring)."""

    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    out = Path(cfg.out_dir)
    ckpt_dir = out / "checkpoints"
    store = ResultStore(out / "store")
    head = build_head(cfg.head_kind)
    executor = FleetExecutor(workers=cfg.workers, store=store, resume=True)

    history: list[dict] = []
    store_hits = 0
    executed = 0
    for rnd in range(cfg.rounds):
        snapshot = save_head_addressed(head, ckpt_dir)
        jobs, specs = _round_jobs(cfg, rnd, snapshot)
        outcome = executor.run(jobs)
        store_hits += outcome.store_hits
        executed += outcome.executed
        if not outcome.ok:
            failures = "; ".join(
                f"{d}: {m}" for d, m in sorted(outcome.failures.items())
            )
            raise RuntimeError(
                f"training round {rnd} had failed episodes: {failures}"
            )

        # replay in spec order: completion order (and so the worker
        # count) never reaches the parameters
        learned: list[dict] = []
        baseline_rewards: dict[str, list[float]] = {
            b: [] for b in cfg.baselines
        }
        for spec, payload in zip(specs, outcome.payloads):
            if spec == str(snapshot):
                head.replay(payload["transitions"])
                learned.append(payload)
            else:
                baseline_rewards[spec].append(payload["mean_reward"])

        learned_mean = float(
            np.mean([p["mean_reward"] for p in learned])
        )
        baseline_means = {
            b: float(np.mean(v)) for b, v in baseline_rewards.items()
        }
        # no baselines configured -> regret is 0 by convention
        best_static = (
            max(baseline_means.values()) if baseline_means else learned_mean
        )
        row = {
            "round": rnd,
            "checkpoint": snapshot.name,
            "mean_reward": learned_mean,
            "availability": float(
                np.mean([p["availability"] for p in learned])
            ),
            "cost_per_mreq": float(
                np.mean([p["cost_per_mreq"] for p in learned])
            ),
            "baselines": baseline_means,
            "regret": best_static - learned_mean,
        }
        history.append(row)
        say(
            f"round {rnd}: reward {learned_mean:.4f} "
            f"(best static {best_static:.4f}, "
            f"regret {row['regret']:+.4f})"
        )

    # the deliverable: a frozen-loadable checkpoint at a stable path,
    # byte-identical across same-config runs
    final = save_head(head, out / FINAL_CHECKPOINT)
    digest = head_digest(head)
    manifest = RunManifest.build(
        seed=cfg.seed, config=cfg.as_dict(), final_digest=digest
    )
    history_doc = {
        "manifest": manifest.as_dict(),
        "config": cfg.as_dict(),
        "final_checkpoint": final.name,
        "final_digest": digest,
        "rounds": history,
    }
    (out / HISTORY_FILE).write_text(
        json.dumps(history_doc, indent=1, sort_keys=True) + "\n"
    )
    say(f"final checkpoint {final} [{digest}]")
    return TrainResult(
        config=cfg,
        head=head,
        checkpoint=final,
        digest=digest,
        history=history,
        store_hits=store_hits,
        executed=executed,
    )


def load_history(out_dir: str | Path) -> dict:
    """The ``train-history.json`` document of a finished campaign."""
    return json.loads((Path(out_dir) / HISTORY_FILE).read_text())
