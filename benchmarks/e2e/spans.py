"""In-memory spans from wrappers the harness installs on public callables.

The program under test is not edited: :meth:`Tracer.wrap` replaces an
attribute of a module or class with a timing wrapper for the traced pass and
:meth:`Tracer.uninstall` puts the original back.  Spans stay in a list until
the run ends; ``self = duration - time covered by child spans``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

_NAME, _START, _END, _PARENT = range(4)


class Tracer:
    def __init__(self) -> None:
        #: one ``[name, start, end, parent id or -1]`` per span; index = id
        self.spans: list[list] = []
        self._current = -1
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        original = getattr(owner, attr)
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, self._current]
            self._current = len(spans)
            spans.append(record)
            try:
                return original(*args, **kwargs)
            finally:
                record[_END] = clock()
                self._current = record[_PARENT]

        self._installed.append((owner, attr, original))
        setattr(owner, attr, traced)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the harness's own code."""
        record = [name, time.perf_counter(), 0.0, self._current]
        self._current = len(self.spans)
        self.spans.append(record)
        try:
            yield
        finally:
            record[_END] = time.perf_counter()
            self._current = record[_PARENT]

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def durations(self, name: str) -> list[float]:
        return [s[_END] - s[_START] for s in self.spans if s[_NAME] == name]

    def table(self) -> dict[str, dict]:
        """Per span name: call count, total seconds, self seconds."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child_time[span[_PARENT]] += span[_END] - span[_START]
        rows: dict[str, dict] = defaultdict(
            lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span, covered in zip(self.spans, child_time):
            row = rows[span[_NAME]]
            duration = span[_END] - span[_START]
            row["count"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - covered
        return dict(rows)

    def top_level_s(self, first: int = 0) -> float:
        """Seconds under top-level spans, from span id ``first`` on."""
        return sum(
            s[_END] - s[_START] for s in self.spans[first:] if s[_PARENT] < 0
        )

    def child_share(self, parent: str, children: tuple[str, ...]) -> float:
        """Share of ``parent`` spans' time in directly nested ``children``."""
        total = sum(self.durations(parent))
        inside = sum(
            s[_END] - s[_START]
            for s in self.spans
            if s[_NAME] in children
            and s[_PARENT] >= 0
            and self.spans[s[_PARENT]][_NAME] == parent
        )
        return inside / total if total > 0 else 0.0

    def write_chrome_trace(self, path: str) -> None:
        origin = self.spans[0][_START] if self.spans else 0.0
        events = [
            {
                "name": span[_NAME],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (span[_START] - origin) * 1e6,
                "dur": (span[_END] - span[_START]) * 1e6,
                "args": {"id": index, "parent": span[_PARENT]},
            }
            for index, span in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
