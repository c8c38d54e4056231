"""Deterministic priority ladder with hysteresis and minimum dwell.

Four rungs decide a region's serving level, strictly in this order
(SNIPPETS Snippet 2's contract):

1. **kill-switch** -- an operator said stop; always degraded.
2. **manual override** -- an operator pinned a level; adaptive is
   ignored until cleared.
3. **adaptive** -- the :class:`~repro.slo.evaluator.SloEvaluator`
   verdict drives transitions: a breach degrades immediately, recovery
   requires the *exit* thresholds to hold AND the minimum dwell time to
   have elapsed since the degradation.  The asymmetry (enter fast, exit
   slow through a laxer threshold) is the anti-oscillation mechanism.
4. **default** -- no signal, serve normally.

The ladder is pure state + arithmetic: no clocks, no I/O.  Callers feed
it ``now`` so the sim side can drive it on virtual time and the serve
side on ``time.monotonic()``.  At a steady level it hands back the
:class:`Decision` it already holds, so a per-request caller allocates
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.slo.evaluator import SloConfig, SloStatus, Verdict

LEVEL_NORMAL = "normal"
LEVEL_DEGRADED = "degraded"

#: Numeric codes for traces / gauges (mirrors degradation.MODE_CODES).
LEVEL_CODES = {LEVEL_NORMAL: 0, LEVEL_DEGRADED: 1}

SOURCE_KILL_SWITCH = "kill-switch"
SOURCE_MANUAL = "manual-override"
SOURCE_ADAPTIVE = "adaptive"
SOURCE_DEFAULT = "default"


@dataclass(frozen=True)
class Decision:
    """The ladder's answer: a level, which rung produced it, and timing.

    ``dwell_remaining_s`` is how long the adaptive rung must keep its
    degraded level before recovery is even considered (0 when the rung
    is normal or the dwell has elapsed); it doubles as the honest
    ``Retry-After`` hint for a shed response.
    """

    level: str
    source: str
    since: float
    dwell_remaining_s: float


class PriorityLadder:
    """Kill-switch > manual override > adaptive > default, with dwell."""

    def __init__(self, config: SloConfig, now: float = 0.0) -> None:
        self.config = config
        self.kill_switch = False
        self.manual_level: str | None = None
        self.transitions = 0
        self._adaptive = LEVEL_NORMAL
        self._since = now
        self._last = Decision(
            level=LEVEL_NORMAL,
            source=SOURCE_DEFAULT,
            since=now,
            dwell_remaining_s=0.0,
        )

    def set_kill_switch(self, on: bool) -> None:
        self.kill_switch = bool(on)

    def set_override(self, level: str | None) -> None:
        """Pin the level (``normal``/``degraded``), or clear with None."""
        if level is not None and level not in LEVEL_CODES:
            known = ", ".join(sorted(LEVEL_CODES))
            raise ValueError(f"unknown level {level!r} (expected {known})")
        self.manual_level = level

    def update(self, now: float, status: Verdict | SloStatus) -> Decision:
        """Advance the adaptive rung on ``status``, then decide.

        Only ``status.breach`` and ``status.recovered`` are read, so an
        evaluator's bare :class:`~repro.slo.evaluator.Verdict` will do.

        The adaptive state machine runs even while a higher rung is
        active, so lifting a kill-switch lands on the level the signals
        currently justify rather than a stale one.
        """
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
        """Resolve the rungs in priority order without advancing state.

        Returns the last decision again when nothing in it changed.
        """
        if self.kill_switch:
            level, source, remaining = LEVEL_DEGRADED, SOURCE_KILL_SWITCH, 0.0
        elif self.manual_level is not None:
            level, source, remaining = self.manual_level, SOURCE_MANUAL, 0.0
        elif self._adaptive != LEVEL_NORMAL:
            level, source = self._adaptive, SOURCE_ADAPTIVE
            remaining = max(
                0.0, self.config.min_dwell_s - (now - self._since)
            )
        else:
            level, source, remaining = LEVEL_NORMAL, SOURCE_DEFAULT, 0.0
        last = self._last
        # `since` by identity: every transition stores a fresh `now`
        if (
            last.since is self._since
            and last.dwell_remaining_s == remaining
            and last.source == source
            and last.level == level
        ):
            return last
        last = self._last = Decision(
            level=level,
            source=source,
            since=self._since,
            dwell_remaining_s=remaining,
        )
        return last
