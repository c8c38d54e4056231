"""Baseline policies the paper's three are measured against.

Not part of the paper's comparison, but needed to quantify it: ``uniform``
shows what *no* MTTF awareness does under heterogeneity, and
``static-weights`` is the best *non-adaptive* policy (fractions fixed to
known capacity shares), which Policy 2 should approach dynamically.
"""

from __future__ import annotations

import numpy as np

from repro.core.policy import Policy, register_policy
from repro.sim.instances import get_instance_type


@register_policy
class UniformPolicy(Policy):
    """Equal split across regions, ignoring all feedback."""

    name = "uniform"

    def _compute(
        self,
        prev_fractions: np.ndarray,
        rmttf: np.ndarray,
        global_rate: float,
    ) -> np.ndarray:
        return np.full(prev_fractions.size, 1.0 / prev_fractions.size)


@register_policy
class StaticWeightsPolicy(Policy):
    """Fixed fractions proportional to configured weights.

    Without explicit ``weights`` it binds the regions' nameplate split:
    each region's full-health capacity, ``target_active`` VMs at their
    shape's ``cpu_power`` (the oracle static split).  Explicit weights,
    ``StaticWeightsPolicy(weights=[330, 312, 160])``, are kept.
    """

    name = "static-weights"

    def __init__(
        self,
        weights: list[float] | np.ndarray | None = None,
        min_fraction: float = 1e-3,
    ) -> None:
        super().__init__(min_fraction=min_fraction)
        self.weights: np.ndarray | None = None
        if weights is not None:
            w = np.asarray(weights, dtype=float)
            if w.ndim != 1 or w.size == 0:
                raise ValueError("weights must be a non-empty 1-D vector")
            if np.any(w < 0) or w.sum() <= 0:
                raise ValueError("weights must be non-negative and sum > 0")
            self.weights = w

    def bind(self, regions) -> None:
        if self.weights is None:
            self.weights = np.array(
                [
                    spec.target_active
                    * get_instance_type(spec.instance_type).cpu_power
                    for spec in regions
                ]
            )

    def _compute(
        self,
        prev_fractions: np.ndarray,
        rmttf: np.ndarray,
        global_rate: float,
    ) -> np.ndarray:
        if self.weights is None:
            raise ValueError(
                "static-weights has no weights: pass them or bind() the "
                "deployment's regions"
            )
        if self.weights.size != prev_fractions.size:
            raise ValueError(
                f"policy configured for {self.weights.size} regions, "
                f"got {prev_fractions.size}"
            )
        return self.weights.copy()
