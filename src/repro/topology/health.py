"""Per-domain health aggregation for the control plane.

:class:`DomainHealthTracker` is the read side of the failure-domain
hierarchy: chaos primitives mark domains degraded when they inject a
correlated fault and clear them on heal, while the campaign loop feeds it
per-rack ACTIVE counts each era.  From those two inputs it derives

* which racks the rejuvenation scheduler and balancer should avoid
  (:meth:`degraded_racks`),
* a per-domain availability timeline (fraction of observed eras with at
  least one ACTIVE VM in the domain) for campaign reports, and
* the region filter that feeds the existing degradation ladder: a region
  whose every rack is degraded stops counting as "reporting", so the
  :class:`~repro.core.degradation.DegradationTracker` walks down its
  normal -> hold -> fallback ladder without any new mechanism.

Telemetry (``fd_*`` metrics and flight events) follows the repo-wide
gating pattern: when telemetry is absent or disabled the tracker holds a
``None`` handle and touches nothing -- bit-invisible by construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.topology.domains import FailureDomainTree

if TYPE_CHECKING:
    from repro.obs.telemetry import Telemetry


class DomainHealthTracker:
    """Tracks fault marks and availability per failure domain.

    Parameters
    ----------
    tree:
        The deployment's failure-domain hierarchy.
    telemetry:
        Optional telemetry facade; when enabled the tracker maintains
        ``fd_domain_faults_total`` counters, the
        ``fd_domain_availability`` gauge, and ``fd.fault`` / ``fd.heal``
        flight events.
    """

    def __init__(
        self,
        tree: FailureDomainTree,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self.tree = tree
        #: Cumulative fault count per domain path (fault-log style).
        self.fault_counts: dict[str, int] = {}
        self._degraded: set[str] = set()
        self._healthy_eras: dict[str, int] = {
            d: 0 for d in tree.domains()
        }
        self._timeline: dict[str, list[bool]] = {
            d: [] for d in tree.domains()
        }
        self._observed_eras = 0
        self._obs = (
            telemetry if telemetry is not None and telemetry.enabled else None
        )

    # ------------------------------------------------------------------ #
    # fault marks (written by the chaos engine)
    # ------------------------------------------------------------------ #

    def record_fault(self, domain: str, kind: str) -> None:
        """Mark a domain degraded after a correlated fault hits it."""
        self.tree.racks_in(domain)  # validate the path
        self.fault_counts[domain] = self.fault_counts.get(domain, 0) + 1
        self._degraded.add(domain)
        if self._obs is not None:
            self._obs.counter(
                "fd_domain_faults_total", domain=domain, kind=kind
            ).inc()
            self._obs.event("fd.fault", domain=domain, fault=kind)

    def clear_fault(self, domain: str) -> bool:
        """Clear a domain's degraded mark; returns False if not marked."""
        if domain not in self._degraded:
            return False
        self._degraded.discard(domain)
        if self._obs is not None:
            self._obs.event("fd.heal", domain=domain)
        return True

    def degraded_racks(self) -> set[int]:
        """Rack ids covered by any currently degraded domain."""
        racks: set[int] = set()
        for domain in self._degraded:
            racks.update(self.tree.racks_in(domain))
        return racks

    def is_degraded(self, domain: str) -> bool:
        """True when the domain or any of its ancestors is marked."""
        parts = domain.split("/")
        return any(
            "/".join(parts[: i + 1]) in self._degraded
            for i in range(len(parts))
        )

    # ------------------------------------------------------------------ #
    # availability (written by the campaign / control loop)
    # ------------------------------------------------------------------ #

    def observe_era(
        self, era: int, rack_active: Mapping[int, int]
    ) -> None:
        """Record one era's per-rack ACTIVE counts.

        A domain counts *healthy* this era when at least one of its racks
        has an ACTIVE VM -- the same "can it serve at all" criterion the
        campaign's service-health check applies per region.
        """
        self._observed_eras += 1
        for domain in self._timeline:
            active = sum(
                rack_active.get(rid, 0)
                for rid in self.tree.racks_in(domain)
            )
            healthy = active > 0
            self._timeline[domain].append(healthy)
            if healthy:
                self._healthy_eras[domain] += 1
            if self._obs is not None:
                self._obs.gauge(
                    "fd_domain_availability", domain=domain
                ).set(self.availability(domain))

    def availability(self, domain: str) -> float:
        """Fraction of observed eras the domain was healthy (1.0 if none)."""
        if domain not in self._healthy_eras:
            raise KeyError(f"unknown failure domain {domain!r}")
        if self._observed_eras == 0:
            return 1.0
        return self._healthy_eras[domain] / self._observed_eras

    def timeline(self, domain: str) -> list[bool]:
        """Per-era healthy flags for a domain (copy)."""
        return list(self._timeline[domain])

    @property
    def observed_eras(self) -> int:
        """Number of eras fed through :meth:`observe_era`."""
        return self._observed_eras

    # ------------------------------------------------------------------ #
    # degradation-ladder feed
    # ------------------------------------------------------------------ #

    def reporting_regions(self, reported: set[str]) -> set[str]:
        """Filter a reported-region set by domain health.

        A region whose *every* rack sits under a degraded domain is
        dropped from the set, so the degradation ladder sees it as
        silent and ages it toward hold/fallback -- no new ladder states
        needed.  Regions with at least one healthy rack pass through.
        """
        degraded = self.degraded_racks()
        return {
            region
            for region in reported
            if region not in self.tree.regions
            or any(
                rid not in degraded
                for rid in self.tree.racks_in(region)
            )
        }
