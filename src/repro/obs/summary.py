"""Human-readable summary of a telemetry dump (`repro obs <dump>`).

Works from the saved JSON document alone -- no live objects -- so dumps
collected on one machine can be inspected on another.
"""

from __future__ import annotations

from collections import defaultdict

from repro.obs.spans import validate_nesting

#: Flight events the report's timeline shows (the most recent ones).
TIMELINE_EVENTS = 15


def _fmt_seconds(value: float) -> str:
    if value != value:  # NaN
        return "nan"
    if value >= 1.0:
        return f"{value:.3g} s"
    if value >= 1e-3:
        return f"{value * 1e3:.3g} ms"
    return f"{value * 1e6:.3g} us"


def _histogram_stats(h: dict) -> tuple[float, float, float]:
    """(mean, ~p50, ~p99) from a snapshot histogram (bucket resolution)."""
    count = h["count"]
    mean = h["sum"] / count if count else float("nan")

    def quantile(q: float) -> float:
        if count == 0:
            return float("nan")
        target = q * count
        running = 0
        for i, n in enumerate(h["counts"]):
            running += n
            if running >= target:
                return h["bounds"][min(i, len(h["bounds"]) - 1)]
        return h["bounds"][-1]

    return mean, quantile(0.5), quantile(0.99)


def summarize_dump(doc: dict, top: int = 5) -> str:
    """Render a dump document as a terminal-friendly report."""
    lines: list[str] = []

    manifest = doc.get("manifest")
    lines.append("== run manifest ==")
    if manifest:
        lines.append(
            f"  seed={manifest['seed']}  config={manifest['config_digest']}  "
            f"version={manifest['version']}"
        )
        for key, value in sorted(manifest.get("extra", {}).items()):
            lines.append(f"  {key}={value}")
    else:
        lines.append("  (none attached)")

    metrics = doc.get("metrics", {})
    histograms = sorted(
        metrics.get("histograms", []), key=lambda h: h["count"], reverse=True
    )
    lines.append("")
    lines.append(f"== top latency histograms (by sample count, top {top}) ==")
    if histograms:
        for h in histograms[:top]:
            label_str = ",".join(f"{k}={v}" for k, v in sorted(h["labels"].items()))
            suffix = f"{{{label_str}}}" if label_str else ""
            mean, p50, p99 = _histogram_stats(h)
            lines.append(
                f"  {h['name']}{suffix}: n={h['count']} "
                f"mean={_fmt_seconds(mean)} p50~{_fmt_seconds(p50)} "
                f"p99~{_fmt_seconds(p99)}"
            )
    else:
        lines.append("  (no histograms)")

    counters = metrics.get("counters", [])
    if counters:
        lines.append("")
        lines.append(f"== top counters (top {top}) ==")
        for c in sorted(counters, key=lambda c: c["value"], reverse=True)[:top]:
            label_str = ",".join(f"{k}={v}" for k, v in sorted(c["labels"].items()))
            suffix = f"{{{label_str}}}" if label_str else ""
            lines.append(f"  {c['name']}{suffix} = {c['value']:g}")

    spans = doc.get("spans", [])
    lines.append("")
    lines.append("== span time breakdown by kind ==")
    if spans:
        totals: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        for s in spans:
            totals[s["kind"]] += s["t1"] - s["t0"]
            counts[s["kind"]] += 1
        for kind in sorted(totals, key=lambda k: totals[k], reverse=True):
            lines.append(
                f"  {kind}: {counts[kind]} spans, "
                f"total {_fmt_seconds(totals[kind])} simulated"
            )
        problems = validate_nesting(spans)
        if problems:
            lines.append(f"  NESTING: {len(problems)} violation(s):")
            for p in problems[:top]:
                lines.append(f"    - {p}")
        else:
            lines.append("  nesting: OK (all tracks laminar)")
    else:
        lines.append("  (no spans)")

    events = doc.get("events", {})
    recorded = events.get("events", [])
    lines.append("")
    lines.append(f"== flight recorder (last {TIMELINE_EVENTS} of {events.get('seen', 0)}) ==")
    if recorded:
        if events.get("evicted"):
            lines.append(f"  ({events['evicted']} earlier events evicted)")
        for e in recorded[-TIMELINE_EVENTS:]:
            data_str = " ".join(
                f"{k}={v}" for k, v in sorted(e.get("data", {}).items())
            )
            lines.append(f"  t={e['time']:.3f}  {e['kind']}  {data_str}".rstrip())
    else:
        lines.append("  (no events)")

    return "\n".join(lines)
