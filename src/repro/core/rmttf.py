"""RMTTF aggregation at the leader VMC -- Eq. (1).

Sec. IV: "The VMC of a region i periodically sends to the leader VMC the
last average value of the Region Mean Time To Failure (RMTTF), say
lastRMTTF_i ...  When the leader VMC receives lastRMTTF_i at time t, the
current RMTTF of the region i ... is (re-)calculated by using the following
weighted average:

    RMTTF_i^t = (1 - beta) * RMTTF_i^{t-1} + beta * lastRMTTF_i,   0<=beta<=1
"""

from __future__ import annotations


class RmttfAggregator:
    """Per-region exponentially weighted RMTTF state held by the leader.

    Parameters
    ----------
    beta:
        The EWMA weight of Eq. (1).  ``beta=1`` tracks the raw reports,
        ``beta=0`` never updates (degenerate but allowed by the paper's
        ``0 <= beta <= 1`` bound).
    """

    def __init__(self, beta: float = 0.5) -> None:
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {beta}")
        self.beta = float(beta)
        self._state: dict[str, float] = {}

    def update(self, region: str, last_rmttf: float) -> float:
        """Apply Eq. (1) for one region report; returns the new RMTTF.

        The first report for a region initialises the state directly (there
        is no ``RMTTF^{t-1}`` yet).
        """
        if last_rmttf < 0:
            raise ValueError(f"last_rmttf must be >= 0, got {last_rmttf}")
        prev = self._state.get(region)
        if prev is None:
            value = float(last_rmttf)
        else:
            value = (1.0 - self.beta) * prev + self.beta * float(last_rmttf)
        self._state[region] = value
        return value

    def update_all(self, reports: dict[str, float]) -> dict[str, float]:
        """Apply Eq. (1) to a batch of region reports (one control era)."""
        return {r: self.update(r, v) for r, v in sorted(reports.items())}

    def snapshot(self) -> dict[str, float]:
        """Copy of all current RMTTF values, sorted by region name."""
        return {r: self._state[r] for r in sorted(self._state)}

