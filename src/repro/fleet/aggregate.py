"""Replicate aggregation and sweep reporting.

Jobs that differ only in their replicate index belong to the same
*cell*; this module folds each cell's payloads into per-metric
mean / sample stddev / 95% confidence half-width (normal approximation,
``1.96 * s / sqrt(n)`` -- we avoid a SciPy dependency in the report
path and sweeps with n >= 5 replicates make the approximation honest).

Boolean payload fields aggregate as rates (fraction of replicates that
were true), so ``sla_met`` becomes an SLA-attainment rate per cell.

Both renderers embed the sweep's ``# manifest:`` provenance comment
(PR 3 convention), so every aggregate artifact states the root seed and
spec digest that regenerate it; ``read_csv_manifest`` round-trips the
CSV form.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

from repro.fleet.axes import ALL_OFF, JOB_FIELDS, job_values, label_parts
from repro.fleet.jobs import JobSpec
from repro.obs.manifest import RunManifest

#: Headline metrics, in preferred column order; a report shows the ones
#: present in the cell's payloads, in this order, then any others.
PREFERRED_METRICS = (
    "mean_rmttf_s",
    "rmttf_spread",
    "mean_response_s",
    "convergence_time_s",
    "rejuvenations",
    "sla_met",
    "availability",
    "cost_per_mreq",
    "response_p95_s",
    "mttr_s",
    "recovered",
)

#: z-score of the two-sided 95% interval (normal approximation).
_Z95 = 1.96


def cell_key(job: JobSpec) -> tuple:
    """The grid cell a job belongs to (replicate index erased): kind,
    scenario, policy, load, then one value per optional axis in table
    order."""
    fixed = (job.kind, job.scenario, job.policy, float(job.load))
    return fixed + job_values(job)


@dataclass(frozen=True)
class MetricStats:
    """Mean / spread of one metric over a cell's replicates."""

    mean: float
    std: float
    ci95: float
    n: int


@dataclass
class CellStats:
    """Aggregated view of one sweep cell."""

    kind: str
    scenario: str
    policy: str
    load: float
    n: int
    metrics: dict[str, MetricStats] = field(default_factory=dict)
    #: the cell's value on every optional axis, in table order
    axes: tuple = ALL_OFF

    @property
    def label(self) -> str:
        parts = [self.scenario]
        if self.policy:
            parts.append(self.policy)
        parts.append(f"load{self.load:g}")
        parts.extend(label_parts(self.axes))  # as in JobSpec.label
        return "/".join(parts)


def _stats(values: list[float]) -> MetricStats:
    n = len(values)
    mean = math.fsum(values) / n
    if n > 1:
        var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
        std = math.sqrt(var)
    else:
        std = 0.0
    return MetricStats(
        mean=mean, std=std, ci95=_Z95 * std / math.sqrt(n), n=n
    )


def aggregate(
    jobs: list[JobSpec], payloads: list[dict | None]
) -> list[CellStats]:
    """Fold per-job payloads into per-cell statistics.

    Cells appear in first-seen job order (the spec's deterministic
    expansion order), so serial and parallel sweeps render identical
    reports.  Jobs whose payload is None (failed cells) are skipped;
    a cell with no surviving replicates is dropped entirely.
    """
    if len(jobs) != len(payloads):
        raise ValueError(
            f"jobs ({len(jobs)}) and payloads ({len(payloads)}) differ"
        )
    grouped: dict[tuple, list[dict]] = {}  # keeps first-seen order
    for job, payload in zip(jobs, payloads):
        if payload is not None:
            grouped.setdefault(cell_key(job), []).append(payload)

    cells: list[CellStats] = []
    for key, rows in grouped.items():
        numeric: dict[str, list[float]] = {}
        for row in rows:
            for name, value in row.items():
                if isinstance(value, (int, float)):  # bools are rates
                    numeric.setdefault(name, []).append(float(value))
        cell = CellStats(
            *key[:4],  # kind, scenario, policy, load
            n=len(rows),
            axes=key[4:],
            metrics={
                name: _stats(values)
                for name, values in sorted(numeric.items())
                if len(values) == len(rows)
            },
        )
        cells.append(cell)
    return cells


def _metric_order(cells: list[CellStats]) -> list[str]:
    present: set[str] = set()
    for cell in cells:
        present.update(cell.metrics)
    ordered = [m for m in PREFERRED_METRICS if m in present]
    ordered.extend(sorted(present - set(ordered)))
    return ordered


def _fmt(value: float) -> str:
    if math.isnan(value):
        return "nan"
    return f"{value:.6g}"


def markdown_report(
    cells: list[CellStats],
    manifest: RunManifest | None = None,
) -> str:
    """A GitHub-style table: one row per cell, ``mean +/- ci95`` entries
    of the first eight metrics."""
    if not cells:
        raise ValueError("no cells to report")
    columns = _metric_order(cells)[:8]
    lines: list[str] = []
    if manifest is not None:
        lines.append(f"# manifest: {manifest.to_json()}")
    header = ["cell", "n"] + columns
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "|".join("---" for _ in header) + "|")
    for cell in cells:
        row = [cell.label, str(cell.n)]
        for name in columns:
            stat = cell.metrics.get(name)
            if stat is None:
                row.append("-")
            elif stat.n > 1:
                row.append(f"{_fmt(stat.mean)} ± {_fmt(stat.ci95)}")
            else:
                row.append(_fmt(stat.mean))
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def frontier_report(cells: list[CellStats]) -> str:
    """The cost/SLO frontier table: ``$/M req`` vs availability vs p95.

    One row per policy cell that carries cost metrics, grouped by
    (scenario, load) so rows within a group are directly comparable.
    A row is marked ``*`` when it is Pareto-efficient within its group
    on (cost_per_mreq minimized, availability maximized): no other row
    in the group is at least as cheap *and* at least as available with
    one strict.  Returns "" when no cell carries cost metrics, so the
    sweep CLI can append it unconditionally.
    """
    rows = [
        c
        for c in cells
        if c.kind == "policy" and "cost_per_mreq" in c.metrics
    ]
    if not rows:
        return ""
    groups: dict[tuple[str, float], list[CellStats]] = {}
    for cell in rows:
        groups.setdefault((cell.scenario, cell.load), []).append(cell)

    def dominated(cell: CellStats, peers: list[CellStats]) -> bool:
        cost = cell.metrics["cost_per_mreq"].mean
        avail = cell.metrics.get("availability", _NAN_STAT).mean
        for other in peers:
            if other is cell:
                continue
            ocost = other.metrics["cost_per_mreq"].mean
            oavail = other.metrics.get("availability", _NAN_STAT).mean
            if (
                ocost <= cost
                and oavail >= avail
                and (ocost < cost or oavail > avail)
            ):
                return True
        return False

    lines = [
        "| cell | $/M req | availability | p95 (s) | frontier |",
        "|---|---|---|---|---|",
    ]
    for cell in rows:
        peers = groups[(cell.scenario, cell.load)]
        cost = cell.metrics["cost_per_mreq"].mean
        avail = cell.metrics.get("availability")
        p95 = cell.metrics.get("response_p95_s")
        lines.append(
            "| {} | {} | {} | {} | {} |".format(
                cell.label,
                _fmt(cost),
                _fmt(avail.mean) if avail else "-",
                _fmt(p95.mean) if p95 else "-",
                "*" if not dominated(cell, peers) else "",
            )
        )
    return "\n".join(lines)


#: NaN placeholder for cells missing a frontier metric.
_NAN_STAT = MetricStats(
    mean=float("nan"), std=0.0, ci95=0.0, n=0
)


def write_cells_csv(
    cells: list[CellStats],
    path: str,
    manifest: RunManifest | None = None,
) -> None:
    """Long-format CSV: one row per (cell, metric).

    The cell key is ``kind, scenario, policy, load`` plus one column per
    optional axis (always present, off values included), quoted by
    :mod:`csv`.  A leading ``# manifest:``
    comment embeds the sweep provenance;
    :func:`repro.sim.tracing.read_csv_manifest` reads it back.
    """
    if not cells:
        raise ValueError("no cells to export")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if manifest is not None:
            fh.write(f"# manifest: {manifest.to_json()}\n")
        out = csv.writer(fh, lineterminator="\n")  # floats as repr()
        out.writerow(
            ["kind", "scenario", "policy", "load", *JOB_FIELDS]
            + ["n", "metric", "mean", "std", "ci95"]
        )
        for cell in cells:
            key = [cell.kind, cell.scenario, cell.policy, cell.load]
            key += [*cell.axes, cell.n]
            for name, stat in cell.metrics.items():
                out.writerow([*key, name, stat.mean, stat.std, stat.ci95])
