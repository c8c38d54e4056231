"""The `Telemetry` facade: one switch for the whole subsystem.

Components take a single optional ``telemetry`` argument and never check
whether it is on: they ask for handles and use them.  A disabled facade
(the default) hands out shared null handles whose methods do nothing --
no clock reads, no allocation, no branching beyond the call itself -- so
instrumented code is bit-identical to un-instrumented code when
telemetry is off.  ``enabled`` is fixed at construction: flipping
telemetry mid-run would produce dumps that silently start at an
arbitrary point, which is worse than not having them.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.obs.flight import FlightRecorder
from repro.obs.manifest import RunManifest
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.spans import AsyncSpanHandle, SpanTracer


class _NullCounter:
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class _NullHandle:
    """Stands in for an :class:`AsyncSpanHandle` when telemetry is off."""

    __slots__ = ()


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()
_NULL_HANDLE = _NullHandle()


@contextmanager
def _null_span() -> Iterator[dict]:
    yield {}


class Telemetry:
    """Facade over registry + tracer + flight recorder (see module doc).

    The three stores are public attributes (``registry``, ``tracer``,
    ``flight``) when enabled and ``None`` when disabled, so tests and
    exporters can reach the underlying objects directly.  The flight
    recorder keeps the last :data:`~repro.obs.flight.FLIGHT_CAPACITY`
    events.
    """

    __slots__ = ("enabled", "registry", "tracer", "flight", "manifest", "autodump_path")

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = bool(enabled)
        self.manifest: RunManifest | None = None
        self.autodump_path: str | None = None
        if self.enabled:
            self.registry: MetricsRegistry | None = MetricsRegistry()
            self.tracer: SpanTracer | None = SpanTracer()
            self.flight: FlightRecorder | None = FlightRecorder()
        else:
            self.registry = None
            self.tracer = None
            self.flight = None

    def __bool__(self) -> bool:
        return self.enabled

    # -------------------------------------------------------------- #
    # clock + manifest
    # -------------------------------------------------------------- #

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Attach the (simulated) time source; no-op when disabled."""
        if self.enabled:
            self.tracer.set_clock(clock)

    def set_manifest(self, manifest: RunManifest) -> None:
        if self.enabled:
            self.manifest = manifest

    # -------------------------------------------------------------- #
    # metric handles
    # -------------------------------------------------------------- #

    def counter(self, name: str, **labels: str) -> Counter | _NullCounter:
        if not self.enabled:
            return _NULL_COUNTER
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels: str) -> Gauge | _NullGauge:
        if not self.enabled:
            return _NULL_GAUGE
        return self.registry.gauge(name, **labels)

    def histogram(
        self,
        name: str,
        bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_S,
        **labels: str,
    ) -> Histogram | _NullHistogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        return self.registry.histogram(name, bounds, **labels)

    # -------------------------------------------------------------- #
    # spans
    # -------------------------------------------------------------- #

    def span(self, name: str, kind: str = "span", **args: Any):
        if not self.enabled:
            return _null_span()
        return self.tracer.span(name, kind=kind, **args)

    def instant(self, name: str, kind: str = "span", **args: Any) -> None:
        if self.enabled:
            self.tracer.instant(name, kind=kind, **args)

    def open_span(
        self, name: str, kind: str, **args: Any
    ) -> AsyncSpanHandle | _NullHandle:
        if not self.enabled:
            return _NULL_HANDLE
        return self.tracer.open(name, kind, **args)

    def close_span(self, handle, **args: Any) -> None:
        if self.enabled and not isinstance(handle, _NullHandle):
            self.tracer.close(handle, **args)

    # -------------------------------------------------------------- #
    # flight events
    # -------------------------------------------------------------- #

    def event(self, kind: str, **data: Any) -> None:
        """Record a flight event stamped with the tracer's current time."""
        if self.enabled:
            self.flight.record(self.tracer.now, kind, **data)

    # -------------------------------------------------------------- #
    # export
    # -------------------------------------------------------------- #

    def snapshot(self) -> dict:
        """The canonical dump document (JSON-ready)."""
        if not self.enabled:
            return {"enabled": False}
        doc: dict = {
            "enabled": True,
            "manifest": self.manifest.as_dict() if self.manifest else None,
            "metrics": self.registry.snapshot(),
            "spans": self.tracer.snapshot(),
            "events": self.flight.snapshot(),
        }
        return doc

    def dump_json(self, path: str) -> None:
        """Write the canonical dump document to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh, indent=1)

    def maybe_autodump(self) -> str | None:
        """Dump to the configured ``autodump_path`` (failure/campaign-end
        hook); returns the path written, or ``None`` if nothing to do."""
        if self.enabled and self.autodump_path:
            self.dump_json(self.autodump_path)
            return self.autodump_path
        return None


#: Shared disabled facade -- the default ``telemetry or NULL_TELEMETRY``
#: target, so components never need their own None checks.
NULL_TELEMETRY = Telemetry(enabled=False)
