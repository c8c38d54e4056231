"""Mean-field capacity planning: sizing pools for a target RMTTF.

The whole reproduction rests on one mean-field relation: a VM serving
``r`` requests/second exhausts its anomaly budget (memory + swap or
thread slots, whichever binds first) after ``TTF(r)`` seconds, and a
region of ``n`` such VMs sharing rate ``R`` shows
``RMTTF ~ TTF(R / n)``.  Inverting that relation answers the operator
question the paper's Sec. V autoscaling solves reactively: *how many
ACTIVE VMs does a region need so the RMTTF stays above a target at a
given load?* -- plus the standby count needed to keep the rejuvenation
pipeline fed.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

from repro.pcam.vm import FailurePolicy, fresh_ttf_s
from repro.sim.instances import InstanceType, get_instance_type
from repro.workload.anomalies import AnomalyInjector

import numpy as np

#: The largest ACTIVE pool a plan considers.
MAX_VMS = 256
#: Per-VM utilisation ceiling of a plan (queueing headroom).
MAX_UTILISATION = 0.7


@dataclass(frozen=True, slots=True)
class PoolPlan:
    """Recommended pool sizing for one region.

    ``hourly_usd`` bills every provisioned VM (active + standby) at the
    shape's full hourly rate -- planning assumes the worst-case standby
    price so a plan never under-budgets.  ``usd_per_mreq`` folds that
    hourly charge (amortised over the planned request rate) together
    with the shape's marginal ``cost_per_req`` into the figure the
    cost/SLO frontier reports.
    """

    instance_type: str
    request_rate: float
    target_rmttf_s: float
    active_vms: int
    standby_vms: int
    expected_rmttf_s: float
    expected_utilisation: float
    hourly_usd: float = 0.0
    usd_per_mreq: float = 0.0

    @property
    def total_vms(self) -> int:
        return self.active_vms + self.standby_vms


def mean_field_ttf(
    itype: InstanceType, per_vm_rate: float, mean_demand: float = 1.5
) -> float:
    """Expected time to the failure point at a steady per-VM rate.

    The mean-field life of a fresh VM of the given shape under the
    default failure policy and the paper's injection probabilities:
    :func:`repro.pcam.vm.fresh_ttf_s`.
    """
    if per_vm_rate <= 0:
        return float("inf")
    # mean-field computations only touch expected rates; the stream is
    # never drawn from, so any generator works
    injector = AnomalyInjector(np.random.default_rng(0))
    return fresh_ttf_s(
        itype, FailurePolicy(), injector, per_vm_rate, mean_demand
    )


def recommend_pool(
    instance_type: str,
    request_rate: float,
    target_rmttf_s: float,
    rejuvenation_time_s: float = 120.0,
    rttf_threshold_s: float = 240.0,
    mean_demand: float = 1.5,
) -> PoolPlan:
    """Smallest ACTIVE pool meeting the RMTTF target (plus standbys).

    The ACTIVE count must satisfy both the RMTTF target (``TTF(R/n) >=
    target``) and the :data:`MAX_UTILISATION` ceiling (queueing
    headroom), under the paper's injection probabilities.  Standbys
    cover the rejuvenation pipeline: with VM lifetime ``L = TTF -
    threshold`` and restart time ``T``, about ``n * T / L`` VMs are
    mid-restart at any instant (rounded up, minimum 1).

    Raises
    ------
    ValueError
        If no pool within :data:`MAX_VMS` meets the target (the target is
        unreachable at this load with this shape).
    """
    if request_rate <= 0:
        raise ValueError("request_rate must be positive")
    if target_rmttf_s <= 0:
        raise ValueError("target_rmttf_s must be positive")
    if not (
        0 <= rejuvenation_time_s < math.inf
        and 0 <= rttf_threshold_s < math.inf
    ):
        raise ValueError(
            "rejuvenation_time_s and rttf_threshold_s must be non-negative "
            "and finite"
        )
    itype = get_instance_type(instance_type)
    service_rate = itype.cpu_power / mean_demand
    for n in range(1, MAX_VMS + 1):
        per_vm = request_rate / n
        utilisation = per_vm / service_rate
        if utilisation > MAX_UTILISATION:
            continue
        ttf = mean_field_ttf(itype, per_vm, mean_demand)
        if ttf < target_rmttf_s:
            continue
        # standby sizing from the rejuvenation pipeline
        lifetime = max(ttf - rttf_threshold_s, rttf_threshold_s)
        in_restart = n * rejuvenation_time_s / lifetime
        standby = max(1, math.ceil(in_restart))
        hourly_usd = itype.hourly_cost * (n + standby)
        usd_per_mreq = (
            hourly_usd / (request_rate * 3600.0) + itype.cost_per_req
        ) * 1e6
        return PoolPlan(
            instance_type=instance_type,
            request_rate=float(request_rate),
            target_rmttf_s=float(target_rmttf_s),
            active_vms=n,
            standby_vms=standby,
            expected_rmttf_s=float(ttf),
            expected_utilisation=float(utilisation),
            hourly_usd=float(hourly_usd),
            usd_per_mreq=float(usd_per_mreq),
        )
    raise ValueError(
        f"no pool of <= {MAX_VMS} x {instance_type} reaches "
        f"RMTTF {target_rmttf_s}s at {request_rate} req/s"
    )
