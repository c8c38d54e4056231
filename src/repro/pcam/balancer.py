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

from repro.pcam.state_table import VmStateTable

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

    def weights_of(
        self, table: VmStateTable, rows: np.ndarray
    ) -> np.ndarray:
        """Routing weights over the given (ACTIVE) table rows, in order."""
        if self.discipline == "uniform":
            return np.ones(len(rows))
        return table.effective_capacity_of(rows)

    def split_counts(
        self, n_requests: int, weights: np.ndarray
    ) -> np.ndarray:
        """Assign ``n_requests`` proportionally to ``weights``, by position.

        The VMC passes it the :meth:`weights_of` its ACTIVE rows.
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

    def weights_of(
        self, table: VmStateTable, rows: np.ndarray
    ) -> np.ndarray:
        w = super().weights_of(table, rows)
        degraded = self.health.degraded_racks()
        if degraded:
            in_degraded = np.isin(table.rack_id[rows], list(degraded))
            w = w * np.where(in_degraded, self.degraded_penalty, 1.0)
        return w
