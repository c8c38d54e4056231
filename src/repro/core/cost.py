"""Deployment cost accounting.

The paper motivates heterogeneous multi-cloud deployments economically:
"different cloud providers offer various types of VMs at different costs
... the cost of VMs of the same cloud provider may change depending on the
geographical region ...  Therefore, it could be more convenient to have
more VMs in some regions, or of a given provider, rather than in/of other
ones" (Sec. I).

:class:`CostTracker` turns a control-loop run into a bill: ACTIVE,
REJUVENATING, and FAILED VMs accrue their instance type's full hourly rate
(a rebooting or crashed VM is still provisioned -- the cloud bills until
the instance is terminated, not until it stops being useful); STANDBY VMs
accrue a configurable idle multiplier (stopped instances are typically
cheaper but not free).  With a :class:`CostModel` attached, the tracker
additionally bills marginal per-request cost (per-region $/req) and
inter-region egress, which is what the cost/SLO frontier sweeps and the
cost-aware policy (``repro.core.costaware``) consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

from repro.pcam.vm import CODE_STANDBY
from repro.pcam.vmc import VirtualMachineController

#: Fraction of the full hourly rate a STANDBY VM costs (EBS-backed
#: stopped instances still pay for storage).
STANDBY_MULTIPLIER = 0.25

#: Hours of full utilisation an hourly charge is amortised over when
#: folding provisioned cost into a per-request figure.
_SECONDS_PER_HOUR = 3600.0


@dataclass(frozen=True)
class CostModel:
    """Marginal request pricing: per-region $/req plus inter-region egress.

    ``usd_per_req`` maps region name -> marginal cost of serving one
    request there (request-metered services, I/O, per-call licensing).
    ``egress_usd_per_req`` is charged once for every request forwarded
    *across* regions (cloud providers bill inter-region transfer; local
    traffic is free).  Unknown regions price at zero, so a model built
    for one scenario is safe to reuse on another.
    """

    usd_per_req: Mapping[str, float] = field(
        default_factory=lambda: MappingProxyType({})
    )
    egress_usd_per_req: float = 0.0

    def __post_init__(self) -> None:
        for region, price in self.usd_per_req.items():
            if price < 0:
                raise ValueError(
                    f"usd_per_req[{region!r}] must be >= 0, got {price}"
                )
        if self.egress_usd_per_req < 0:
            raise ValueError(
                "egress_usd_per_req must be >= 0, "
                f"got {self.egress_usd_per_req}"
            )
        # freeze the mapping so the dataclass is hashable in spirit too
        object.__setattr__(
            self, "usd_per_req", MappingProxyType(dict(self.usd_per_req))
        )


def effective_usd_per_req(itype) -> float:
    """Decision-signal price of one request on an instance type.

    Marginal per-request cost plus the hourly charge amortised over the
    requests a fully-utilised healthy VM serves in an hour
    (``cpu_power`` req/s).  This is what the cost-aware policy weighs
    regions by; the :class:`CostTracker` keeps the two components
    separate (hourly billed per era, marginal per request) so nothing is
    double-counted.
    """
    amortised = itype.hourly_cost / _SECONDS_PER_HOUR / itype.cpu_power
    return itype.cost_per_req + amortised


def cost_model_for(region_specs: Iterable, egress_usd_per_req: float = 0.0):
    """Build a :class:`CostModel` from region specs (duck-typed).

    Each spec needs ``name`` and ``instance_type`` (a catalog key);
    pricing comes from the instance type's ``cost_per_req``.
    """
    from repro.sim.instances import get_instance_type

    return CostModel(
        usd_per_req={
            spec.name: get_instance_type(spec.instance_type).cost_per_req
            for spec in region_specs
        },
        egress_usd_per_req=egress_usd_per_req,
    )


@dataclass
class CostTracker:
    """Accumulates deployment cost over control eras.

    Parameters
    ----------
    model:
        Optional :class:`CostModel` for marginal per-request and egress
        pricing; without one the tracker bills provisioned hours only
        (the pre-existing behaviour, bit-for-bit).
    """

    model: CostModel | None = None
    total_usd: float = field(default=0.0, init=False)
    per_region_usd: dict[str, float] = field(default_factory=dict, init=False)
    requests_served: int = field(default=0, init=False)
    egress_usd: float = field(default=0.0, init=False)
    egress_requests: int = field(default=0, init=False)

    def charge_era(
        self,
        vmc: VirtualMachineController,
        dt_s: float,
        requests_served: int = 0,
    ) -> float:
        """Accrue one era's cost for a region; returns the era's charge.

        ACTIVE, REJUVENATING, and FAILED VMs bill at the full hourly
        rate -- a crashed-but-provisioned VM still costs money until it
        is deprovisioned.  STANDBY bills at :data:`STANDBY_MULTIPLIER`.
        With a :class:`CostModel`, the region's marginal $/req is added
        for every served request.
        """
        if dt_s <= 0:
            raise ValueError("dt_s must be positive")
        if requests_served < 0:
            raise ValueError("requests_served must be >= 0")
        hours = dt_s / 3600.0
        # one pass over the region's rows; the sequential cumsum adds in
        # pool order, as a running sum over the VMs would
        table = vmc.table
        billed = table.hourly_cost * hours
        billed[table.state_code == CODE_STANDBY] *= STANDBY_MULTIPLIER
        charge = float(billed.cumsum()[-1])
        if self.model is not None and requests_served:
            charge += requests_served * self.model.usd_per_req.get(
                vmc.region_name, 0.0
            )
        self.total_usd += charge
        self.per_region_usd[vmc.region_name] = (
            self.per_region_usd.get(vmc.region_name, 0.0) + charge
        )
        self.requests_served += requests_served
        return charge

    def charge_egress(self, n_requests: int) -> float:
        """Bill ``n_requests`` forwarded across regions; returns the charge.

        A no-op without a :class:`CostModel` (or at zero egress price),
        so single-region deployments and legacy callers see zero.
        """
        if n_requests < 0:
            raise ValueError("n_requests must be >= 0")
        if self.model is None or n_requests == 0:
            return 0.0
        charge = n_requests * self.model.egress_usd_per_req
        self.total_usd += charge
        self.egress_usd += charge
        self.egress_requests += n_requests
        return charge

    def cost_per_million_requests(self) -> float:
        """Normalised efficiency metric (inf before any request)."""
        if self.requests_served == 0:
            return float("inf")
        return self.total_usd / self.requests_served * 1e6
