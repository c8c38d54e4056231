"""Export formats: Prometheus text, Chrome trace-event JSON.

Every exporter takes the same snapshot structures the in-memory objects
produce (``MetricsRegistry.snapshot()``, ``SpanTracer.snapshot()``,
``FlightRecorder.snapshot()``) so exports can be regenerated from a
saved dump without the original process.
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs.manifest import RunManifest

# ------------------------------------------------------------------ #
# Prometheus text exposition
# ------------------------------------------------------------------ #


def _prom_labels(labels: dict[str, str], extra: dict[str, Any] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update({k: str(v) for k, v in extra.items()})
    if not merged:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in sorted(merged.items()))
    return "{" + body + "}"


def _prom_name(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def to_prometheus_text(metrics: dict, manifest: RunManifest | None = None) -> str:
    """Prometheus text exposition format (0.0.4).

    Histograms emit the conventional cumulative ``_bucket`` series with
    ``le`` labels plus ``_sum``/``_count``; the manifest rides along as
    a ``repro_run_info`` gauge so scrapes stay self-describing.
    """
    lines: list[str] = []
    if manifest is not None:
        lines.append("# TYPE repro_run_info gauge")
        info_labels = _prom_labels(
            {},
            {
                "seed": manifest.seed,
                "config_digest": manifest.config_digest,
                "version": manifest.version,
            },
        )
        lines.append(f"repro_run_info{info_labels} 1")
    for m in metrics.get("counters", []):
        name = _prom_name(m["name"])
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name}{_prom_labels(m['labels'])} {m['value']:g}")
    for m in metrics.get("gauges", []):
        name = _prom_name(m["name"])
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name}{_prom_labels(m['labels'])} {m['value']:g}")
    for m in metrics.get("histograms", []):
        name = _prom_name(m["name"])
        lines.append(f"# TYPE {name} histogram")
        cumulative = 0
        for bound, count in zip(m["bounds"], m["counts"]):
            cumulative += count
            le = _prom_labels(m["labels"], {"le": f"{bound:g}"})
            lines.append(f"{name}_bucket{le} {cumulative}")
        cumulative += m["counts"][-1]
        le = _prom_labels(m["labels"], {"le": "+Inf"})
        lines.append(f"{name}_bucket{le} {cumulative}")
        lines.append(f"{name}_sum{_prom_labels(m['labels'])} {m['sum']:g}")
        lines.append(f"{name}_count{_prom_labels(m['labels'])} {m['count']}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ #
# Chrome trace-event JSON (Perfetto / chrome://tracing)
# ------------------------------------------------------------------ #


def to_chrome_trace(
    spans: list[dict], manifest: RunManifest | None = None
) -> dict:
    """Chrome trace-event document from completed span records.

    Every span becomes a complete ``X`` event with ``ts``/``dur`` in
    microseconds of *simulated* time.  String track names are mapped to
    integer tids with ``thread_name`` metadata (``M``) events so
    Perfetto labels the tracks; ``main`` is pinned to tid 0.
    """
    tids: dict[str, int] = {"main": 0}
    for s in spans:
        tids.setdefault(s["tid"], len(tids))
    events: list[dict] = []
    for name, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": name},
            }
        )
    for s in spans:
        events.append(
            {
                "name": s["name"],
                "cat": s["kind"],
                "ph": "X",
                "pid": 1,
                "tid": tids[s["tid"]],
                "ts": s["t0"] * 1e6,
                "dur": (s["t1"] - s["t0"]) * 1e6,
                "args": dict(s.get("args", {})),
            }
        )
    doc: dict = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated-seconds"},
    }
    if manifest is not None:
        doc["otherData"]["manifest"] = manifest.as_dict()
    return doc


def write_chrome_trace(
    path: str, spans: list[dict], manifest: RunManifest | None = None
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(spans, manifest), fh, indent=1)
