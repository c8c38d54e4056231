"""Declarative sweep specifications.

A :class:`SweepSpec` names the grid the paper's evaluation implies --
(scenario x policy x load x seed replicate), optionally widened by the
axes of :mod:`repro.fleet.axes` and extended with chaos campaigns -- and
:meth:`~SweepSpec.expand` turns it into the deterministic, cartesian job
list the fleet executor runs.

Seeds derive from one root: each job's seed is
``derive_seed(root_seed, cell-name/repN)`` (see
:func:`repro.sim.rng.derive_seed`), so

* the whole sweep is reproducible from ``(spec, root_seed)``;
* replicates of a cell are statistically independent;
* adding a policy, a load level or an optional axis never perturbs the
  seeds of existing cells (each cell's name, not its grid position,
  feeds the hash, and an axis at its off value is not in the name).

Expansion order is fixed -- scenario-major, then policy, then load, then
the optional axes in table order, then replicate, chaos cells last -- so
a job list, its digests, and every downstream aggregate are identical
across processes and machines.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from repro.fleet.axes import AXES, JOB_FIELDS, name_suffix
from repro.fleet.jobs import JobSpec, parse_scenario_key
from repro.obs.manifest import RunManifest
from repro.sim.rng import derive_seed

#: Documented default root seed, shared with the CLI (`--seed`).
DEFAULT_ROOT_SEED = 7


@dataclass(frozen=True)
class SweepSpec:
    """The declarative grid of one sweep campaign."""

    scenarios: tuple[str, ...] = ("three-region",)
    policies: tuple[str, ...] = (
        "sensible-routing",
        "available-resources",
        "exploration",
    )
    #: client multipliers applied to every region of each scenario
    loads: tuple[float, ...] = (1.0,)
    #: seed replicates per cell
    replicates: int = 1
    root_seed: int = DEFAULT_ROOT_SEED
    eras: int = 60
    era_s: float = 30.0
    predictor: str = "oracle"
    # the optional axes over the policy cells: one field per row of
    # ``repro.fleet.axes.AXES``, defaulting to ``(off,)``
    #: failure-domain shapes ("flat" or "NxM")
    domains: tuple[str, ...] = ("flat",)
    #: SLO specs (``parse_slo_spec`` grammar, e.g. "p95:0.5+dwell:120")
    slo: tuple[str, ...] = ("",)
    #: chaos campaigns appended as extra cells (policy axis not applied)
    campaigns: tuple[str, ...] = ()
    #: era override for campaign cells; 0 = each campaign's default
    campaign_eras: int = 0

    def __post_init__(self) -> None:
        # lazily: repro.experiments imports this package
        from repro.core.metrics import MIN_ASSESS_ERAS
        from repro.experiments.runner import check_predictor
        from repro.experiments.scenarios import resolve_scenario

        for scenario in self.scenarios:
            resolve_scenario(parse_scenario_key(scenario)[0])
        check_predictor(self.predictor)
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if not all(0 < load < math.inf for load in self.loads):
            raise ValueError(
                f"loads must be positive and finite, got {self.loads}"
            )
        if not 0 < self.era_s < math.inf:
            raise ValueError(
                f"era_s must be positive and finite, got {self.era_s}"
            )
        if self.campaign_eras < 0:
            raise ValueError(
                f"campaign_eras must be >= 0, got {self.campaign_eras}"
            )
        if self.campaigns:
            # lazily, as above, and only for specs that name campaigns
            from repro.experiments.resilience import (
                CAMPAIGNS,
                MIN_CAMPAIGN_ERAS,
            )

            unknown = [c for c in self.campaigns if c not in CAMPAIGNS]
            if unknown:
                raise ValueError(
                    f"unknown campaigns {unknown}; "
                    f"pick from {sorted(CAMPAIGNS)}"
                )
            if 0 < self.campaign_eras < MIN_CAMPAIGN_ERAS:
                raise ValueError(
                    f"campaign_eras must be 0 (each campaign's default) "
                    f"or >= {MIN_CAMPAIGN_ERAS}, got {self.campaign_eras}"
                )
        grid = self._grid()
        for axis in AXES:
            if not grid[axis.spec_field]:
                raise ValueError(
                    f"{axis.spec_field} axis must name at least one value"
                )
            for value in grid[axis.spec_field]:
                axis.check(value)  # raises ValueError on garbage
        for name, values in {**grid, "campaigns": self.campaigns}.items():
            if len(set(values)) != len(values):
                raise ValueError(f"{name} repeats a value: {tuple(values)}")
        if self.eras < MIN_ASSESS_ERAS:
            raise ValueError(
                f"eras must be >= {MIN_ASSESS_ERAS} (assessment minimum)"
            )
        if self.cell_count == 0:
            raise ValueError("spec expands to zero jobs")

    def _grid(self) -> dict:
        """The policy cells' axes, field name -> values, in expansion
        order: scenarios, policies, loads, the optional axes in table order."""
        names = ["scenarios", "policies", "loads"]
        names += [axis.spec_field for axis in AXES]
        return {name: getattr(self, name) for name in names}

    @property
    def cell_count(self) -> int:
        """Grid cells (each cell holds ``replicates`` jobs)."""
        cells = math.prod(map(len, self._grid().values()))
        return cells + len(self.campaigns)

    @property
    def job_count(self) -> int:
        return self.cell_count * self.replicates

    def expand(self) -> list[JobSpec]:
        """The full job list, in the fixed deterministic order."""
        jobs: list[JobSpec] = []
        for scenario, policy, load, *values in itertools.product(
            *self._grid().values()
        ):
            cell = f"{scenario}/{policy}/load{load:g}{name_suffix(values)}"
            for rep in range(self.replicates):
                jobs.append(
                    JobSpec(
                        kind="policy",
                        scenario=scenario,
                        policy=policy,
                        load=float(load),
                        seed=derive_seed(self.root_seed, f"{cell}/rep{rep}"),
                        replicate=rep,
                        eras=self.eras,
                        era_s=self.era_s,
                        predictor=self.predictor,
                        **dict(zip(JOB_FIELDS, values)),
                    )
                )
        for campaign in self.campaigns:
            for rep in range(self.replicates):
                cell = f"chaos/{campaign}/rep{rep}"
                jobs.append(
                    JobSpec(
                        kind="chaos",
                        scenario=campaign,
                        policy="",
                        load=1.0,
                        seed=derive_seed(self.root_seed, cell),
                        replicate=rep,
                        eras=self.campaign_eras,
                        era_s=self.era_s,
                    )
                )
        return jobs

    def config(self) -> dict:
        """JSON-able form of the whole spec (digested into the sweep
        manifest and embedded in every aggregate artifact)."""
        config = {
            "scenarios": list(self.scenarios),
            "policies": list(self.policies),
            "loads": [float(x) for x in self.loads],
            "replicates": self.replicates,
            "root_seed": self.root_seed,
            "eras": self.eras,
            "era_s": self.era_s,
            "predictor": self.predictor,
            "campaigns": list(self.campaigns),
            "campaign_eras": self.campaign_eras,
        }
        for axis in AXES:
            values = getattr(self, axis.spec_field)
            if axis.used(values):
                config[axis.spec_field] = list(values)
        return config

    def manifest(self) -> RunManifest:
        """Sweep-level provenance for reports and CSV exports."""
        return RunManifest.build(
            seed=self.root_seed,
            config=self.config(),
            cells=self.cell_count,
            jobs=self.job_count,
        )


def listing(jobs: list[JobSpec]) -> str:
    """The ``--dry-run`` job table: order, label, seed, digest."""
    lines = [f"{'#':>4}  {'digest':<16} {'seed':>20}  label"]
    for i, job in enumerate(jobs):
        lines.append(
            f"{i:>4}  {job.digest:<16} {job.seed:>20}  {job.label}"
        )
    return "\n".join(lines)
