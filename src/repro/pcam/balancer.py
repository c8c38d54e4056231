"""The intra-region load balancer hosted by the VMC.

Sec. III: "all the requests issued by remote clients of the system are
directed to VMC, which hosts a load balancer.  The goal of this component
is to balance the load associated to client requests to VMs in the ACTIVE
state."

Two disciplines are provided:

* ``capacity`` (default) -- weight ACTIVE VMs by their *current effective
  capacity*, so degraded VMs receive proportionally less load;
* ``uniform`` -- equal split, the naive baseline.

Splitting is multinomial over the weights (requests are routed
independently), except for the deterministic largest-remainder mode used
by the fluid simulation when stochastic splitting noise is not wanted.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.pcam.vm import VirtualMachine, VmState

Discipline = Literal["capacity", "uniform"]


def largest_remainder_split(total: int, weights: np.ndarray) -> np.ndarray:
    """Deterministically apportion ``total`` items proportionally to weights.

    Hamilton's method: floor the exact shares, then hand the leftover items
    to the largest fractional remainders (the lowest index wins a tie).
    Conserves the total exactly.

    Raises
    ------
    ValueError
        On a negative or NaN weight, or a sum that is zero or infinite
        (either would floor NaN shares into ``INT64_MIN`` counts).
    """
    weights = np.asarray(weights, dtype=float)
    if total < 0:
        raise ValueError("total must be >= 0")
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError("weights must be a non-empty 1-D array")
    if not (weights >= 0).all():
        raise ValueError("weights must be non-negative numbers")
    s = weights.sum()
    if not 0 < s < np.inf:
        raise ValueError(f"weights must have a positive finite sum, got {s}")
    exact = total * weights / s
    base = np.floor(exact).astype(int)
    leftover = total - int(base.sum())
    if leftover > 0:
        order = (base - exact).argsort(kind="stable")
        base[order[:leftover]] += 1
    return base


class LocalBalancer:
    """Distributes a region's request batch across its ACTIVE VMs.

    Parameters
    ----------
    discipline:
        ``"capacity"`` or ``"uniform"``.
    rng:
        Stream for multinomial routing; ``None`` selects the deterministic
        largest-remainder split.
    """

    def __init__(
        self,
        discipline: Discipline = "capacity",
        rng: np.random.Generator | None = None,
    ) -> None:
        if discipline not in ("capacity", "uniform"):
            raise ValueError(f"unknown discipline {discipline!r}")
        self.discipline: Discipline = discipline
        self._rng = rng

    def weights(self, vms: list[VirtualMachine]) -> np.ndarray:
        """Routing weights over the given (ACTIVE) VMs."""
        if self.discipline == "uniform":
            return np.ones(len(vms))
        return np.array([vm.effective_capacity for vm in vms])

    def split(
        self, n_requests: int, vms: list[VirtualMachine]
    ) -> dict[str, int]:
        """Assign ``n_requests`` to ACTIVE VMs; returns name -> count.

        Raises
        ------
        RuntimeError
            If the region has no ACTIVE VM to serve a positive batch
            (availability loss -- callers surface this as an outage).
        """
        active = [vm for vm in vms if vm.state is VmState.ACTIVE]
        if not active:
            if n_requests == 0:
                return {}
            raise RuntimeError(
                "no ACTIVE VM available to serve "
                f"{n_requests} requests (region outage)"
            )
        counts = self.split_counts(n_requests, self.weights(active))
        return {vm.name: int(c) for vm, c in zip(active, counts)}

    def split_counts(
        self, n_requests: int, weights: np.ndarray
    ) -> np.ndarray:
        """Assign ``n_requests`` proportionally to ``weights``, by position.

        The weight-level core of :meth:`split`: the VMC computes the
        ACTIVE pool's weights straight from the state table
        (bit-identical to :meth:`weights` over the same VMs) and calls
        this to skip the per-VM object walk and the name dict.
        """
        w = weights
        if w.sum() <= 0:
            w = np.ones(len(w))
        if self._rng is not None:
            return self._rng.multinomial(n_requests, w / w.sum())
        return largest_remainder_split(n_requests, w)


class DomainAwareBalancer(LocalBalancer):
    """A balancer that routes away from degraded failure domains.

    Wraps the base discipline's weights with a multiplicative penalty on
    VMs whose rack currently sits under a degraded domain (per the
    deployment's :class:`~repro.topology.health.DomainHealthTracker`):
    traffic *prefers* healthy racks but still reaches a degraded one when
    it holds the only ACTIVE capacity -- the penalty shifts load, it never
    zeroes a VM out.

    Being a ``LocalBalancer`` subclass, the VMC routes through its
    :meth:`split` (the object API) rather than the weight-array shortcut.

    Parameters
    ----------
    health:
        The deployment's domain health tracker.
    discipline, rng:
        As for :class:`LocalBalancer`.
    degraded_penalty:
        Weight multiplier for VMs in degraded racks, in (0, 1].
    """

    def __init__(
        self,
        health,
        discipline: Discipline = "capacity",
        rng: np.random.Generator | None = None,
        degraded_penalty: float = 0.25,
    ) -> None:
        super().__init__(discipline, rng)
        if not 0.0 < degraded_penalty <= 1.0:
            raise ValueError("degraded_penalty must be in (0, 1]")
        self.health = health
        self.degraded_penalty = float(degraded_penalty)

    def weights(self, vms: list[VirtualMachine]) -> np.ndarray:
        w = super().weights(vms)
        degraded = self.health.degraded_racks()
        if degraded:
            penalty = np.array(
                [
                    self.degraded_penalty if vm.rack_id in degraded else 1.0
                    for vm in vms
                ]
            )
            w = w * penalty
        return w
