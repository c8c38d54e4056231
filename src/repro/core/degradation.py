"""Graceful degradation of the global Plan step under report loss.

The leader's ``POLICY()`` (Algorithm 2) is only as good as the lastRMTTF
reports feeding Eq. (1).  When partitions, message loss, or predictor
faults starve the leader of fresh reports, re-planning from a mostly-stale
RMTTF vector is worse than not re-planning at all: the policy would chase
ghosts and thrash the forward plan.  The hardened loop instead walks a
three-state ladder, decided once per era by :class:`DegradationTracker`:

``normal``
    A quorum of regions reported recently; run ``POLICY()`` as usual.
``hold``
    Quorum lost: freeze the last-known-good fractions (the forward plan
    the whole fleet already agreed on).  A slave that is itself cut off
    behaves the same way -- this just lifts that local rule to the leader.
``fallback``
    Quorum has been lost for :data:`FALLBACK_AFTER_ERAS` consecutive eras:
    the held plan is now too old to trust either, so fall back to the
    static split proportional to each region's healthy capacity -- the
    information-free prior of the available-resources policy, computable
    entirely from local deployment knowledge.

Reports carrying non-finite values (a corrupted predictor emitting NaN)
are treated as *missing*, so numerical faults degrade gracefully instead
of crashing :func:`repro.core.policy.normalize_fractions`.

Recovery is automatic and immediate: the era a quorum of fresh reports
reappears (e.g. rejoined regions re-syncing through the gossip store),
the tracker returns to ``normal`` and ``POLICY()`` resumes from the
currently installed fractions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from repro.obs.telemetry import Telemetry

#: Trace encoding of the degradation mode (series ``degradation``).
MODE_CODES = {"normal": 0, "hold": 1, "fallback": 2}


#: The leader needs *strictly more* than this fraction of all regions
#: reporting fresh to stay in ``normal`` (a majority).
QUORUM_FRACTION = 0.5
#: A region's last report stays "fresh" for this many eras, so a brief
#: one-era hiccup does not degrade the plane.
STALE_AFTER_ERAS = 2
#: Consecutive degraded eras before ``hold`` escalates to ``fallback``.
FALLBACK_AFTER_ERAS = 6


class DegradationTracker:
    """Per-era degradation state machine (see module docstring)."""

    def __init__(
        self,
        regions: list[str],
        telemetry: "Telemetry | None" = None,
    ) -> None:
        if not regions:
            raise ValueError("need at least one region")
        self.regions = list(regions)
        self.mode = "normal"
        self.consecutive_degraded = 0
        #: era index of each region's most recent (finite) report
        self._last_report_era: dict[str, int] = {}
        self._tel = telemetry if telemetry is not None and telemetry.enabled else None

    def observe(self, era: int, reported: Iterable[str]) -> str:
        """Fold one era's received-report set; returns the new mode."""
        for region in reported:
            self._last_report_era[region] = era
        horizon = era - STALE_AFTER_ERAS
        fresh = sum(
            1
            for region in self.regions
            if self._last_report_era.get(region, -1) >= horizon
        )
        previous = self.mode
        if fresh > QUORUM_FRACTION * len(self.regions):
            self.mode = "normal"
            self.consecutive_degraded = 0
        else:
            self.consecutive_degraded += 1
            self.mode = (
                "fallback"
                if self.consecutive_degraded >= FALLBACK_AFTER_ERAS
                else "hold"
            )
        if self._tel is not None:
            self._tel.gauge("degradation_mode").set(MODE_CODES[self.mode])
            if self.mode != previous:
                self._tel.counter(
                    "degradation_transitions_total", to=self.mode
                ).inc()
                self._tel.event(
                    "degradation.transition",
                    era=era,
                    previous=previous,
                    mode=self.mode,
                    fresh=fresh,
                )
        return self.mode
