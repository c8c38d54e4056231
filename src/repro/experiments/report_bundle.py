"""One-command full reproduction: run everything, write the artefact bundle.

``python -m repro reproduce --out results/`` runs both figure experiments
and emits everything a reviewer needs:

* ``<out>/fig{3,4}_<policy>.csv`` -- every plotted series, long format,
  each stamped with its run manifest (``# manifest: {...}`` header);
* ``<out>/fig{3,4}_<policy>_<row>.svg`` -- rendered charts;
* ``<out>/MANIFEST.json`` -- per-run provenance (seed, config digest,
  code version) for every CSV in the bundle;
* ``<out>/REPORT.md`` -- the quantified verdict tables, the paper-shape
  check outcomes, and the run configuration.

Every artefact therefore states how to regenerate itself from its own
metadata alone.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from repro.core.metrics import MIN_ASSESS_ERAS
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.reporting import assessment_table, manifest_line
from repro.experiments.runner import ExperimentResult, paper_shape_holds
from repro.experiments.svgplot import render_figure


@dataclass(frozen=True, slots=True)
class BundleManifest:
    """What a reproduction run produced."""

    out_dir: str
    csv_files: tuple[str, ...]
    svg_files: tuple[str, ...]
    report_path: str
    all_checks_pass: bool
    manifest_path: str | None = None


def write_csvs(results: dict[str, ExperimentResult], stem: str) -> list[str]:
    """Write ``<stem>_<policy>.csv`` per policy, each stamped with its
    run manifest; returns the paths."""
    written = []
    for policy, result in results.items():
        path = f"{stem}_{policy}.csv"
        result.traces.to_csv(path, manifest=result.manifest)
        written.append(path)
    return written


def _report_section(
    figure: str, results: dict[str, ExperimentResult]
) -> tuple[str, bool]:
    checks = paper_shape_holds(results)
    lines = [
        f"## {figure}",
        "",
        "```",
        assessment_table([r.assessment for r in results.values()]),
        "```",
        "",
        "| check | outcome |",
        "|---|---|",
    ]
    for name, passed in checks.items():
        lines.append(f"| {name} | {'PASS' if passed else 'FAIL'} |")
    lines.append("")
    return "\n".join(lines), all(checks.values())


def reproduce_all(
    out_dir: str,
    eras: int = 240,
    seed: int = 7,
    predictor: str = "oracle",
) -> BundleManifest:
    """Run both figures and write the complete artefact bundle.

    Returns the manifest; ``all_checks_pass`` is the headline verdict.
    """
    if eras < MIN_ASSESS_ERAS:
        raise ValueError(f"eras must be >= {MIN_ASSESS_ERAS}")
    os.makedirs(out_dir, exist_ok=True)
    csvs: list[str] = []
    svgs: list[str] = []
    sections: list[str] = []
    run_manifests: dict[str, dict] = {}
    overall = True
    for figure in FIGURES:
        results = run_figure(figure, eras=eras, seed=seed, predictor=predictor)
        csvs.extend(write_csvs(results, os.path.join(out_dir, figure)))
        svgs.extend(
            render_figure(results, figure, os.path.join(out_dir, "acm"))
        )
        section, ok = _report_section(figure, results)
        provenance = [
            f"- `{figure}_{policy}.csv` -- {manifest_line(result.manifest)}"
            for policy, result in results.items()
            if result.manifest is not None
        ]
        if provenance:
            section += "\n".join(["", "Provenance:", "", *provenance, ""])
        sections.append(section)
        overall = overall and ok
        for policy, result in results.items():
            if result.manifest is not None:
                run_manifests[f"{figure}_{policy}.csv"] = (
                    result.manifest.as_dict()
                )

    manifest_path = os.path.join(out_dir, "MANIFEST.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(run_manifests, fh, indent=1, sort_keys=True)

    report_path = os.path.join(out_dir, "REPORT.md")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(
            "# ACM Framework reproduction report\n\n"
            f"Configuration: eras={eras}, era_s=30, seed={seed}, "
            f"predictor={predictor}.\n\n"
            "Figures 3 and 4 of *Proactive Cloud Management for Highly "
            "Heterogeneous Multi-Cloud Infrastructures* (Pellegrini, "
            "Di Sanzo, Avresky, 2016), regenerated by this repository.\n\n"
        )
        fh.write("\n".join(sections))
        fh.write(
            f"\n## Verdict\n\nAll paper-shape checks "
            f"{'PASS' if overall else 'FAIL'}.\n\n"
            "Artefacts: "
            + ", ".join(
                os.path.basename(p) for p in (*csvs, *svgs)
            )
            + "\n"
        )
    return BundleManifest(
        out_dir=out_dir,
        csv_files=tuple(csvs),
        svg_files=tuple(svgs),
        report_path=report_path,
        all_checks_pass=overall,
        manifest_path=manifest_path,
    )
