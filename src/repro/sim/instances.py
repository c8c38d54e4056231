"""Instance-type catalog for heterogeneous cloud regions.

The paper's testbed (Sec. VI-A) uses three distinct VM shapes:

* **Region 1** (Amazon EC2, Ireland): 6 x ``m3.medium`` instances.
* **Region 2** (Amazon EC2, Frankfurt): 12 x ``m3.small`` instances.
* **Region 3** (private, Munich): 4 VMs with 2 vCPUs, 1 GB RAM, 4 GB disk on
  an HP ProLiant server under VMware Workstation.

We encode each shape as an :class:`InstanceType` with the attributes that
drive the simulation: relative CPU power (requests/second a healthy VM can
serve), memory capacity (the resource consumed by injected memory leaks),
thread-slot capacity (consumed by unterminated threads), and swap space.
Numbers follow the published EC2 specs of 2015-era ``m3`` instances; absolute
values matter less than their *ratios*, which produce the heterogeneity the
paper studies.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class InstanceType:
    """A VM hardware shape.

    Parameters
    ----------
    name:
        Catalog key (e.g. ``"m3.medium"``).
    cpu_power:
        Healthy service capacity in requests/second.  Relative scale across
        types is what creates region heterogeneity.
    memory_mb:
        RAM available to the application; memory leaks consume it.
    swap_mb:
        Swap space; once RAM is exhausted, leaks spill into swap at a
        response-time penalty and exhaustion of swap is a hard failure.
    thread_slots:
        Maximum live threads; unterminated threads consume them.
    disk_gb:
        Virtual disk size (recorded for completeness; not a failure resource
        in the paper's anomaly model).
    hourly_cost:
        Nominal $/hour, used by cost-aware examples (the paper motivates
        heterogeneous deployments by price differences across providers).
    cost_per_req:
        Marginal $/request on top of the hourly charge (request-metered
        services, I/O, per-call licensing).  Magnitudes are chosen so the
        marginal spend at nominal load is comparable to the amortised
        hourly charge -- the regime where cost-aware planning has a real
        trade-off to make.
    """

    name: str
    cpu_power: float
    memory_mb: float
    swap_mb: float
    thread_slots: int
    disk_gb: float
    hourly_cost: float
    cost_per_req: float = 0.0

    def __post_init__(self) -> None:
        if self.cpu_power <= 0:
            raise ValueError(f"{self.name}: cpu_power must be positive")
        if self.memory_mb <= 0:
            raise ValueError(f"{self.name}: memory_mb must be positive")
        if self.thread_slots <= 0:
            raise ValueError(f"{self.name}: thread_slots must be positive")
        if self.swap_mb < 0:
            raise ValueError(f"{self.name}: swap_mb must be non-negative")
        if self.cost_per_req < 0:
            raise ValueError(f"{self.name}: cost_per_req must be non-negative")


#: Amazon EC2 m3.medium (1 vCPU / 3 ECU burst, 3.75 GiB RAM) -- Region 1.
M3_MEDIUM = InstanceType(
    name="m3.medium",
    cpu_power=55.0,
    memory_mb=3840.0,
    swap_mb=1024.0,
    thread_slots=256,
    disk_gb=4.0,
    hourly_cost=0.073,
    cost_per_req=4.2e-7,
)

#: Amazon EC2 m3.small-equivalent (the paper's label; closest published shape
#: is m1.small-class: 1 slow vCPU, 1.7 GiB RAM) -- Region 2.
M3_SMALL = InstanceType(
    name="m3.small",
    cpu_power=26.0,
    memory_mb=1740.0,
    swap_mb=512.0,
    thread_slots=128,
    disk_gb=4.0,
    hourly_cost=0.047,
    cost_per_req=6.5e-7,
)

#: Privately hosted VM on the HP ProLiant server: 2 vCPUs, 1 GB RAM, 4 GB
#: disk (Sec. VI-A) -- Region 3.
PRIVATE_SMALL = InstanceType(
    name="private.small",
    cpu_power=40.0,
    memory_mb=1024.0,
    swap_mb=512.0,
    thread_slots=160,
    disk_gb=4.0,
    hourly_cost=0.0,
    cost_per_req=1.5e-7,
)

INSTANCE_CATALOG: dict[str, InstanceType] = {
    t.name: t for t in (M3_MEDIUM, M3_SMALL, PRIVATE_SMALL)
}


def get_instance_type(name: str) -> InstanceType:
    """Look up an instance type by catalog name.

    Raises
    ------
    KeyError
        With the list of known names, if ``name`` is not in the catalog.
    """
    try:
        return INSTANCE_CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(INSTANCE_CATALOG))
        raise KeyError(f"unknown instance type {name!r}; known: {known}") from None
