"""Tests-only reference SLO window: a bisect-sorted mirror of the latencies.

This is the evaluator ``repro.slo`` shipped before the threshold counts,
with the same comparisons in the same order: a deque of ``(now, latency)``
tuples, a sorted list kept in step with ``bisect.insort`` /
``del sorted[i]``, a deque of ``(now, ok)`` outcomes with a running
error counter, and a ``status`` that reads the p95 off the sorted list.
Beside it sits the ladder's transition function as it was then, which
built a fresh :class:`~repro.slo.ladder.Decision` on every call.

``tests/slo/test_evaluator_differential.py`` drives seeded streams
through this pair and through :class:`~repro.slo.evaluator.SloEvaluator`
and :class:`~repro.slo.controller.SloController`; every ``SloStatus``
field and every decision must be equal.
"""

from __future__ import annotations

import bisect
import math
from collections import deque

from repro.slo import (
    LEVEL_DEGRADED,
    LEVEL_NORMAL,
    SOURCE_ADAPTIVE,
    SOURCE_DEFAULT,
    SOURCE_KILL_SWITCH,
    SOURCE_MANUAL,
    Decision,
    SloConfig,
    SloStatus,
)


def presorted_p95(data: list) -> float:
    """Nearest-rank p95 of an already sorted list (NaN when empty)."""
    n = len(data)
    if n == 0:
        return float("nan")
    rank = math.ceil(0.95 * n - 1e-9)
    return float(data[min(n - 1, max(0, rank - 1))])


class ReferenceSloEvaluator:
    """Rolling window with a bisect-sorted latency mirror."""

    def __init__(self, config: SloConfig) -> None:
        self.config = config
        self._latencies: deque = deque()
        self._sorted: list = []
        self._outcomes: deque = deque()
        self._errors = 0
        self._queue_depth = 0.0

    def observe_latency(self, now: float, latency_s: float) -> None:
        value = float(latency_s)
        self._latencies.append((now, value))
        bisect.insort(self._sorted, value)

    def observe_outcome(self, now: float, ok: bool) -> None:
        ok = bool(ok)
        self._outcomes.append((now, ok))
        if not ok:
            self._errors += 1

    def set_queue_depth(self, depth: float) -> None:
        self._queue_depth = max(0.0, float(depth))

    def _trim(self, now: float) -> None:
        horizon = now - self.config.window_s
        while self._latencies and self._latencies[0][0] < horizon:
            _, value = self._latencies.popleft()
            del self._sorted[bisect.bisect_left(self._sorted, value)]
        while self._outcomes and self._outcomes[0][0] < horizon:
            _, ok = self._outcomes.popleft()
            if not ok:
                self._errors -= 1

    def status(self, now: float) -> SloStatus:
        cfg = self.config
        self._trim(now)
        lats = self._sorted
        p95 = presorted_p95(lats)
        total = len(self._outcomes)
        error_rate = self._errors / total if total else 0.0

        latency_breach = bool(lats) and p95 > cfg.p95_target_s
        queue_on = cfg.queue_depth_max > 0
        queue_breach = queue_on and self._queue_depth > cfg.queue_depth_max
        budget_on = cfg.error_budget < 1.0
        budget_breach = budget_on and error_rate > cfg.error_budget

        latency_ok = not lats or p95 <= cfg.exit_ratio * cfg.p95_target_s
        queue_ok = (
            not queue_on
            or self._queue_depth <= cfg.exit_ratio * cfg.queue_depth_max
        )
        budget_ok = (
            not budget_on or error_rate <= cfg.exit_ratio * cfg.error_budget
        )

        return SloStatus(
            p95_s=p95,
            samples=len(lats),
            queue_depth=self._queue_depth,
            error_rate=error_rate,
            breach=latency_breach or queue_breach or budget_breach,
            recovered=latency_ok and queue_ok and budget_ok,
        )


class ReferenceLadder:
    """The priority ladder's transition function, a new Decision a call."""

    def __init__(self, config: SloConfig, now: float = 0.0) -> None:
        self.config = config
        self.kill_switch = False
        self.manual_level: str | None = None
        self.transitions = 0
        self._adaptive = LEVEL_NORMAL
        self._since = now

    def update(self, now: float, status: SloStatus) -> Decision:
        if self._adaptive == LEVEL_NORMAL:
            if status.breach:
                self._adaptive = LEVEL_DEGRADED
                self._since = now
                self.transitions += 1
        else:
            dwelled = now - self._since >= self.config.min_dwell_s
            if dwelled and status.recovered:
                self._adaptive = LEVEL_NORMAL
                self._since = now
                self.transitions += 1
        return self.decision(now)

    def decision(self, now: float) -> Decision:
        if self.kill_switch:
            return Decision(LEVEL_DEGRADED, SOURCE_KILL_SWITCH, self._since, 0.0)
        if self.manual_level is not None:
            return Decision(self.manual_level, SOURCE_MANUAL, self._since, 0.0)
        if self._adaptive != LEVEL_NORMAL:
            remaining = max(
                0.0, self.config.min_dwell_s - (now - self._since)
            )
            return Decision(
                self._adaptive, SOURCE_ADAPTIVE, self._since, remaining
            )
        return Decision(LEVEL_NORMAL, SOURCE_DEFAULT, self._since, 0.0)
