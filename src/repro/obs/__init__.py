"""repro.obs -- the unified observability subsystem.

The paper's whole evaluation is time-series driven and the roadmap's
north star is a production-scale control plane; neither is operable
without first-class telemetry.  This package is the monitoring substrate
the surveyed elastic-management frameworks treat as a dedicated layer
(Saxena et al. 2022; Qu et al. 2016), built from four parts:

* :mod:`repro.obs.metrics` -- a registry of counters, gauges, and
  fixed-bucket (log-spaced) histograms keyed by name + label tuple,
  allocation-light on the hot path;
* :mod:`repro.obs.spans` -- span tracing on the *simulator* clock, with
  a context-manager API for the strictly nested MAPE phases and an
  async-slot API for overlapping channel send/retry cycles, exportable
  as Chrome trace-event JSON (viewable in Perfetto);
* :mod:`repro.obs.flight` -- a bounded ring buffer of recent structured
  events (drops, degradation transitions, chaos faults, elections) for
  post-mortems without re-running;
* :mod:`repro.obs.exporters` -- Prometheus text and Chrome traces, plus
  the :class:`~repro.obs.manifest.RunManifest` (seed, config digest,
  package version) attached to every export.

Everything is reached through one :class:`~repro.obs.telemetry.Telemetry`
facade.  A disabled facade (the default) is a strict no-op: every handle
it returns swallows its calls, no clock is read, and instrumented code
paths stay bit-identical to their un-instrumented behaviour.
"""

from repro.obs.flight import FlightEvent, FlightRecorder
from repro.obs.manifest import RunManifest, config_digest
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.spans import Span, SpanTracer, validate_nesting
from repro.obs.summary import summarize_dump
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_S",
    "Span",
    "SpanTracer",
    "validate_nesting",
    "FlightEvent",
    "FlightRecorder",
    "RunManifest",
    "config_digest",
    "Telemetry",
    "NULL_TELEMETRY",
    "summarize_dump",
]
