"""Ascii reporting for the figure reproductions.

The original figures are line plots; offline we print the same series as
downsampled tables and unicode sparklines, which is enough to eyeball the
shapes the paper describes (convergence, divergence, oscillation).
"""

from __future__ import annotations

import numpy as np

from repro.core.metrics import PolicyAssessment
from repro.obs.manifest import RunManifest
from repro.sim.tracing import TraceRecorder, TraceSeries

_SPARK_CHARS = "▁▂▃▄▅▆▇█"
#: Most characters a sparkline takes.
SPARK_WIDTH = 60
#: Sampled values printed under each sparkline.
SERIES_POINTS = 8


def sparkline(values: np.ndarray) -> str:
    """Render a series as a unicode sparkline of at most
    :data:`SPARK_WIDTH` characters."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return ""
    # downsample by bucket means
    buckets = np.array_split(values, min(SPARK_WIDTH, values.size))
    means = np.array([b.mean() for b in buckets])
    lo, hi = float(means.min()), float(means.max())
    if hi - lo < 1e-12:
        return _SPARK_CHARS[0] * len(means)
    idx = ((means - lo) / (hi - lo) * (len(_SPARK_CHARS) - 1)).astype(int)
    return "".join(_SPARK_CHARS[i] for i in idx)


def render_series(
    traces: TraceRecorder,
    prefix: str,
    label: str,
    scale: float = 1.0,
    unit: str = "",
) -> str:
    """Render all series under ``prefix`` as sparkline + sampled values
    (:data:`SERIES_POINTS` of them)."""
    series = traces.matching(prefix)
    if not series:
        raise KeyError(f"no series under prefix {prefix!r}")
    lines = [f"-- {label} --"]
    for name, s in sorted(series.items()):
        samples = _downsample(s) * scale
        sampled = " ".join(f"{v:8.2f}" for v in samples)
        lines.append(f"{name:<28} {sparkline(s.values)}")
        lines.append(f"{'':<28} [{sampled}]{unit}")
    return "\n".join(lines)


def _downsample(series: TraceSeries) -> np.ndarray:
    if len(series) <= SERIES_POINTS:
        return series.values
    buckets = np.array_split(series.values, SERIES_POINTS)
    return np.array([b.mean() for b in buckets])


def manifest_line(manifest: RunManifest | None) -> str:
    """One-line provenance stamp for reports (empty without a manifest)."""
    if manifest is None:
        return ""
    extra = " ".join(
        f"{k}={v}" for k, v in sorted(manifest.extra.items())
    )
    return (
        f"run: seed={manifest.seed} config={manifest.config_digest} "
        f"version={manifest.version}" + (f" {extra}" if extra else "")
    )


def assessment_table(assessments: list[PolicyAssessment]) -> str:
    """Render the policy-comparison verdict table."""
    if not assessments:
        raise ValueError("no assessments to render")
    header = (
        f"{'policy':<22} {'rmttf spread':>12} {'convergence':>12} "
        f"{'f oscill.':>10} {'mean rt':>9} {'rejuv':>6} {'SLA':>4}"
    )
    lines = [header, "-" * len(header)]
    for a in assessments:
        conv = f"{a.convergence_time_s:,.0f}s" if a.converged else "never"
        lines.append(
            f"{a.policy:<22} {a.rmttf_spread:>12.3f} {conv:>12} "
            f"{a.fraction_oscillation:>10.4f} "
            f"{a.mean_response_time_s * 1000:>7.1f}ms "
            f"{a.total_rejuvenations:>6.0f} "
            f"{'ok' if a.sla_met else 'MISS':>4}"
        )
    return "\n".join(lines)
