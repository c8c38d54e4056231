"""The SLO plane: per-region evaluators + ladders, on either clock.

One :class:`SloController` owns a per-region
:class:`~repro.slo.evaluator.SloEvaluator` and
:class:`~repro.slo.ladder.PriorityLadder` and is the only place a signal
window becomes a level.  Its two hosts differ in clock and actuator only:

* the sim MAPE loop calls :meth:`observe` in its Monitor phase (virtual
  time; era response times are the latency samples) and :meth:`shape`
  in its Plan phase, which multiplies degraded regions' forward
  fractions by ``shed_factor`` and renormalizes;
* the serve runtime feeds the evaluators from its request path, calls
  :meth:`advance` per request (``time.monotonic()``) and answers a
  degraded region with 429 + ``Retry-After``; its era tick runs the same
  :meth:`observe` sweep so an idle region recovers without probe traffic.

Telemetry follows the repo's bit-invisibility idiom: the facade is kept
only when enabled, and every gauge/counter/event is guarded on it.  Both
hosts emit one vocabulary: ``slo_level``, ``slo_p95_seconds``,
``slo_transitions_total`` (label ``region``) and the ``slo.transition``
event (``region``, ``frm``, ``to``, ``source``, ``p95_s``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.slo.evaluator import SloConfig, SloEvaluator, SloStatus, Verdict
from repro.slo.ladder import (
    LEVEL_CODES,
    LEVEL_NORMAL,
    Decision,
    PriorityLadder,
)


class SloController:
    """Per-region SLO evaluation + ladder; ``now`` starts the ladders."""

    def __init__(
        self, regions, config: SloConfig, telemetry=None, now: float = 0.0
    ) -> None:
        self.regions = list(regions)
        self.config = config
        self.evaluators = {r: SloEvaluator(config) for r in self.regions}
        self.ladders = {r: PriorityLadder(config, now) for r in self.regions}
        self._levels = {r: LEVEL_NORMAL for r in self.regions}
        self.eras = 0
        self.degraded_eras = 0
        self._tel = (
            telemetry if telemetry is not None and telemetry.enabled else None
        )
        if self._tel is not None:
            self._m_level = {
                r: self._tel.gauge("slo_level", region=r)
                for r in self.regions
            }
            self._m_p95 = {
                r: self._tel.gauge("slo_p95_seconds", region=r)
                for r in self.regions
            }
            self._m_trans = {
                r: self._tel.counter("slo_transitions_total", region=r)
                for r in self.regions
            }

    def advance(self, region: str, now: float) -> Decision:
        """Evaluate ``region``'s window at ``now`` and step its ladder.

        The one evaluator -> ladder -> bookkeeping body.  The ladder
        steps on the evaluator's verdict alone; bookkeeping (level gauge,
        transition counter, ``slo.transition`` event with the window's
        p95) happens only when the level changed, so the per-request
        caller pays for two threshold counts and the ladder step.
        """
        return self._step(region, now, self.evaluators[region].verdict(now))

    def _step(
        self,
        region: str,
        now: float,
        verdict: Verdict | SloStatus,
        p95_s: float | None = None,
    ) -> Decision:
        """:meth:`advance` on a verdict in hand; ``p95_s`` if already read."""
        decision = self.ladders[region].update(now, verdict)
        previous = self._levels[region]
        if decision.level != previous:
            self._levels[region] = decision.level
            if self._tel is not None:
                if p95_s is None:
                    p95_s = self.evaluators[region].p95(now)
                self._m_trans[region].inc()
                self._m_level[region].set(LEVEL_CODES[decision.level])
                self._tel.event(
                    "slo.transition",
                    region=region,
                    frm=previous,
                    to=decision.level,
                    source=decision.source,
                    p95_s=p95_s,
                )
        return decision

    def observe(self, now: float, per_region_rt: dict) -> dict:
        """The era sweep: ingest era response times, advance every ladder.

        Returns the resulting ``{region: level}`` map (also kept on the
        controller for :meth:`shape` / :meth:`level_codes`).  A host that
        feeds its evaluators itself passes ``{}``.  Each window is read
        once: the verdict alone, or with telemetry on the full status,
        whose p95 feeds the gauge and any transition event.
        """
        for region in self.regions:
            evaluator = self.evaluators[region]
            rt = per_region_rt.get(region)
            if rt is not None and np.isfinite(rt):
                evaluator.observe_latency(now, float(rt))
            if self._tel is None:
                self.advance(region, now)
            else:
                status = evaluator.status(now)
                p95 = status.p95_s
                self._step(region, now, status, p95)
                self._m_p95[region].set(0.0 if math.isnan(p95) else p95)
        self.eras += 1
        if any(lv != LEVEL_NORMAL for lv in self._levels.values()):
            self.degraded_eras += 1
        return dict(self._levels)

    def set_kill_switch(self, on: bool, now: float) -> None:
        """Flip every region's kill switch (the operator's top rung)."""
        for region in self.regions:
            self.ladders[region].set_kill_switch(on)
            self.advance(region, now)
        if self._tel is not None:
            self._tel.event("slo.kill_switch", on=bool(on))

    def set_override(self, level: str | None, now: float) -> None:
        """Pin every region's level (``None`` clears).

        Raises ``ValueError`` on an unknown level, before any ladder moved.
        """
        for region in self.regions:
            self.ladders[region].set_override(level)
            self.advance(region, now)
        if self._tel is not None:
            self._tel.event("slo.override", level=level or "cleared")

    def snapshot(self, now: float) -> dict:
        """Plane state as the admin ``/slo`` JSON."""
        out = {}
        for region in self.regions:
            status = self.evaluators[region].status(now)
            ladder = self.ladders[region]
            decision = ladder.decision(now)
            out[region] = {
                "level": decision.level,
                "source": decision.source,
                "dwell_remaining_s": decision.dwell_remaining_s,
                "p95_s": None if math.isnan(status.p95_s) else status.p95_s,
                "samples": status.samples,
                "queue_depth": status.queue_depth,
                "error_rate": status.error_rate,
                "transitions": ladder.transitions,
            }
        return {
            "enabled": True,
            "config": self.config.spec(),
            "kill_switch": any(
                ladder.kill_switch for ladder in self.ladders.values()
            ),
            "regions": out,
        }

    def shape(self, fractions: np.ndarray) -> np.ndarray:
        """Plan phase: scale degraded regions down by ``shed_factor``.

        The result stays on the simplex; if every region is degraded the
        uniform scaling cancels out and the plan is returned unchanged.
        Degraded regions can land below the policy's min-fraction floor
        -- deliberately: the degradation signal exists to starve a
        breached region, and ``shed_factor`` > 0 keeps it reachable.
        """
        scale = np.array(
            [
                self.config.shed_factor
                if self._levels[r] != LEVEL_NORMAL
                else 1.0
                for r in self.regions
            ]
        )
        if np.all(scale == 1.0):
            return fractions
        shaped = fractions * scale
        total = shaped.sum()
        if total <= 0:
            return fractions
        return shaped / total

    def level_codes(self) -> dict:
        """``{region: code}`` for trace recording (0 normal, 1 degraded)."""
        return {r: LEVEL_CODES[self._levels[r]] for r in self.regions}

    def stats(self) -> dict:
        """Run-level summary for experiment results / fleet payloads."""
        return {
            "eras": self.eras,
            "degraded_eras": self.degraded_eras,
            "violation_rate": (
                self.degraded_eras / self.eras if self.eras else 0.0
            ),
            "transitions": sum(
                ladder.transitions for ladder in self.ladders.values()
            ),
        }
