"""Counters, gauges, and fixed-bucket histograms keyed by name + labels.

The registry follows the Prometheus data model scaled down to what a
deterministic simulation needs:

* a metric *handle* is fetched once (at component construction) and then
  mutated with plain attribute arithmetic -- the per-request hot path
  never touches the registry, builds no strings, and allocates nothing;
* histograms use **fixed** bucket boundaries chosen up front
  (log-spaced latency buckets by default), so ``observe`` is one bisect
  plus two adds -- no dynamic resizing, no per-sample records;
* label sets are small frozen tuples (``(("region", "r1"),)``), hashed
  once at handle-creation time.

Handles are plain mutable objects rather than lock-guarded abstractions:
the simulator is single-threaded by design, and the registry inherits
that contract.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator

#: Log-spaced latency buckets (seconds): 9 decades, 3 buckets per decade,
#: from 100 us to 100 s.  Wide enough for think times and rejuvenation
#: windows, fine enough to separate a 50 ms hop from a 500 ms retry.
DEFAULT_LATENCY_BUCKETS_S: tuple[float, ...] = tuple(
    round(10.0 ** (exp / 3.0), 10) for exp in range(-12, 7)
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative inc {amount}")
        self.value += amount

    def as_dict(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels), "value": self.value}


class Gauge:
    """A value that can go up and down (pool sizes, modes, heap depth)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def as_dict(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels), "value": self.value}


class Histogram:
    """Fixed-bucket histogram with cumulative-friendly export.

    ``bounds`` are the finite upper bucket edges; one implicit ``+Inf``
    bucket catches the overflow.  ``observe`` is the hot-path call: one
    bisect over a small tuple plus two float adds.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...],
        bounds: tuple[float, ...],
    ) -> None:
        if not bounds:
            raise ValueError(f"histogram {name!r}: need at least one bound")
        if any(nxt <= prev for nxt, prev in zip(bounds[1:], bounds)):
            raise ValueError(f"histogram {name!r}: bounds must increase")
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # bisect_left makes each edge an inclusive upper bound, matching
        # the Prometheus ``le`` semantics of the exporter
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Get-or-create store of metric handles keyed by (name, labels).

    Asking twice for the same (name, labels) returns the *same* handle,
    so components can share series intentionally; asking for the same
    name with a different metric type raises.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], object] = {}
        self._types: dict[str, type] = {}

    def _get(self, cls: type, name: str, labels: dict[str, str], *args):
        known = self._types.get(name)
        if known is not None and known is not cls:
            raise ValueError(
                f"metric {name!r} already registered as {known.__name__}, "
                f"requested as {cls.__name__}"
            )
        key = (name, _label_key(labels))
        handle = self._metrics.get(key)
        if handle is None:
            handle = cls(name, key[1], *args)
            self._metrics[key] = handle
            self._types[name] = cls
        return handle

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_S,
        **labels: str,
    ) -> Histogram:
        return self._get(Histogram, name, labels, bounds)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator:
        for key in sorted(self._metrics):
            yield self._metrics[key]

    def counters(self) -> list[Counter]:
        return [m for m in self if isinstance(m, Counter)]

    def gauges(self) -> list[Gauge]:
        return [m for m in self if isinstance(m, Gauge)]

    def histograms(self) -> list[Histogram]:
        return [m for m in self if isinstance(m, Histogram)]

    def snapshot(self) -> dict:
        """JSON-ready dump of every registered metric."""
        return {
            "counters": [m.as_dict() for m in self.counters()],
            "gauges": [m.as_dict() for m in self.gauges()],
            "histograms": [m.as_dict() for m in self.histograms()],
        }
