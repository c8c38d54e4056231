"""Span tracing on the simulator clock.

Two recording disciplines cover everything the MAPE loop does:

* **synchronous spans** (:meth:`SpanTracer.span`, a context manager, or
  :meth:`SpanTracer.instant` for zero-duration decision points) live on
  the ``main`` track and are strictly nested by construction -- the
  tracer keeps an explicit stack, so a Chrome trace built from them can
  never have mismatched begin/end events;
* **asynchronous spans** (:meth:`SpanTracer.open` /
  :meth:`SpanTracer.close`) model operations that overlap in simulated
  time -- a reliable-channel send retrying while the next era's send is
  already in flight.  Each open span leases the lowest free *slot* of
  its kind and records on track ``<kind>#<slot>``, exactly how Perfetto
  lays out async tracks; spans on one track therefore never overlap.

All timestamps come from a swappable ``clock`` callable (the owning
simulator's ``now``), never from wall time, so traces are replayable
artifacts of the seed like everything else in this reproduction.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Track name of the synchronous (strictly nested) span stack.
MAIN_TRACK = "main"


@dataclass(slots=True)
class Span:
    """One completed span: a named interval on one track."""

    name: str
    kind: str
    tid: str
    t0: float
    t1: float
    depth: int = 0
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "tid": self.tid,
            "t0": self.t0,
            "t1": self.t1,
            "depth": self.depth,
            "args": dict(self.args),
        }


@dataclass(slots=True)
class AsyncSpanHandle:
    """Ticket for an open asynchronous span (close it exactly once)."""

    name: str
    kind: str
    slot: int
    t0: float
    args: dict[str, Any]
    closed: bool = field(default=False, init=False)


class SpanTracer:
    """Records spans against a simulated clock (see module docstring)."""

    def __init__(self) -> None:
        #: time 0 until :meth:`set_clock`
        self._clock: Callable[[], float] = lambda: 0.0
        self.spans: list[Span] = []
        self._stack: list[tuple[str, str, float, dict]] = []
        #: per async kind: busy flags per slot index
        self._slots: dict[str, list[bool]] = {}

    # -------------------------------------------------------------- #
    # clock
    # -------------------------------------------------------------- #

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Point the tracer at a (new) time source, e.g. ``sim.now``."""
        self._clock = clock

    @property
    def now(self) -> float:
        return float(self._clock())

    # -------------------------------------------------------------- #
    # synchronous spans (main track, strictly nested)
    # -------------------------------------------------------------- #

    @contextmanager
    def span(self, name: str, kind: str = "span", **args: Any) -> Iterator[dict]:
        """Record a strictly nested span around the ``with`` body.

        Yields the span's ``args`` dict so the body can annotate it
        (``s["outcome"] = "acked"``) before the end time is taken.
        """
        t0 = self.now
        self._stack.append((name, kind, t0, args))
        try:
            yield args
        finally:
            self._stack.pop()
            self.spans.append(
                Span(
                    name=name,
                    kind=kind,
                    tid=MAIN_TRACK,
                    t0=t0,
                    t1=self.now,
                    depth=len(self._stack),
                    args=args,
                )
            )

    def instant(self, name: str, kind: str = "span", **args: Any) -> None:
        """Record a zero-duration span (a decision point, not a period)."""
        t = self.now
        self.spans.append(
            Span(
                name=name,
                kind=kind,
                tid=MAIN_TRACK,
                t0=t,
                t1=t,
                depth=len(self._stack),
                args=args,
            )
        )

    # -------------------------------------------------------------- #
    # asynchronous spans (slot-leased tracks)
    # -------------------------------------------------------------- #

    def open(self, name: str, kind: str, **args: Any) -> AsyncSpanHandle:
        """Open an async span; spans of one kind get non-overlapping
        slot tracks, so concurrent operations stay laminar per track."""
        slots = self._slots.setdefault(kind, [])
        for i, busy in enumerate(slots):
            if not busy:
                slots[i] = True
                slot = i
                break
        else:
            slots.append(True)
            slot = len(slots) - 1
        return AsyncSpanHandle(
            name=name, kind=kind, slot=slot, t0=self.now, args=args
        )

    def close(self, handle: AsyncSpanHandle, **more_args: Any) -> Span:
        """Close an async span, releasing its slot."""
        if handle.closed:
            raise ValueError(f"async span {handle.name!r} already closed")
        handle.closed = True
        self._slots[handle.kind][handle.slot] = False
        handle.args.update(more_args)
        span = Span(
            name=handle.name,
            kind=handle.kind,
            tid=f"{handle.kind}#{handle.slot}",
            t0=handle.t0,
            t1=self.now,
            depth=0,
            args=handle.args,
        )
        self.spans.append(span)
        return span

    def open_count(self) -> int:
        """Sync + async spans currently open (0 when the run is quiesced)."""
        return len(self._stack) + sum(
            sum(flags) for flags in self._slots.values()
        )

    # -------------------------------------------------------------- #
    # introspection
    # -------------------------------------------------------------- #

    def kinds(self) -> set[str]:
        """Distinct span kinds recorded so far."""
        return {s.kind for s in self.spans}

    def by_kind(self, kind: str) -> list[Span]:
        return [s for s in self.spans if s.kind == kind]

    def snapshot(self) -> list[dict]:
        """JSON-ready list of completed spans in completion order."""
        return [s.as_dict() for s in self.spans]


def validate_nesting(spans: list[Span] | list[dict]) -> list[str]:
    """Check that spans on every track form a laminar family.

    Two spans on the same track must be either disjoint or properly
    nested (one interval containing the other); this is exactly the
    invariant Chrome trace ``B``/``E`` pairs (and same-tid ``X`` events)
    require.  Returns a list of human-readable violations (empty = valid).
    """
    records = [s.as_dict() if isinstance(s, Span) else s for s in spans]
    problems: list[str] = []
    by_tid: dict[str, list[dict]] = {}
    for rec in records:
        if rec["t1"] < rec["t0"]:
            problems.append(
                f"{rec['tid']}: span {rec['name']!r} ends before it starts "
                f"({rec['t1']} < {rec['t0']})"
            )
            continue
        by_tid.setdefault(rec["tid"], []).append(rec)
    for tid, group in sorted(by_tid.items()):
        group.sort(key=lambda r: (r["t0"], -r["t1"]))
        stack: list[dict] = []
        for rec in group:
            while stack and rec["t0"] >= stack[-1]["t1"]:
                stack.pop()
            if stack and rec["t1"] > stack[-1]["t1"]:
                problems.append(
                    f"{tid}: span {rec['name']!r} "
                    f"[{rec['t0']}, {rec['t1']}] straddles "
                    f"{stack[-1]['name']!r} "
                    f"[{stack[-1]['t0']}, {stack[-1]['t1']}]"
                )
                continue
            stack.append(rec)
    return problems
