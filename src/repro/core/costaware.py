"""Cost-aware allocation policy: availability-per-dollar.

The paper motivates heterogeneous deployments economically (Sec. I:
"it could be more convenient to have more VMs in some regions ...
rather than in/of other ones"), but Policies 1-3 optimise MTTF alone.
:class:`CostAwarePolicy` anchors on Policy 2's resource estimate
``Q_i = RMTTF_i * f_i(k-1) * lambda`` (Eqs. 3-4) -- the expected
requests a region can absorb before failing -- and divides each
region's weight by its *relative* price, so traffic prefers regions
that buy the most expected-served-requests per dollar.

With no price vector configured (or an all-zero one) the divisor is
uniform and the policy is numerically identical to Policy 2.  Prices are
normalised by their mean before weighting, so the policy responds to
price *ratios*, not absolute magnitudes -- doubling every region's
price changes nothing, exactly as availability-per-dollar should
behave.
"""

from __future__ import annotations

import numpy as np

from repro.core.cost import effective_usd_per_req
from repro.core.policy import DEFAULT_MIN_FRACTION, Policy, register_policy
from repro.sim.instances import get_instance_type

#: Strength of the price signal (gamma): 0 reduces to Policy 2; 1 halves a
#: mean-priced region's weight relative to a free one.
COST_WEIGHT = 1.0


@register_policy
class CostAwarePolicy(Policy):
    """Policy 2's availability estimate weighted by 1 / relative cost,
    at :data:`COST_WEIGHT`.

    Until :meth:`configure_costs` installs a price vector, :meth:`bind`
    takes the deployment's prices from the instance catalog, so the sim
    and serve paths see the same $ signal.
    """

    name = "cost-aware"

    def __init__(self, min_fraction: float = DEFAULT_MIN_FRACTION) -> None:
        super().__init__(min_fraction)
        self._rel_costs: np.ndarray | None = None

    @property
    def needs_costs(self) -> bool:
        """True until a usable price vector has been configured."""
        return self._rel_costs is None

    def configure_costs(self, usd_per_req) -> None:
        """Install the per-region price vector (region order = policy
        order): any non-negative per-request figure;
        :func:`repro.core.cost.effective_usd_per_req` folds hourly and
        marginal cost into one.

        An all-zero vector carries no signal and clears the
        configuration (the policy stays Policy 2-equivalent) rather
        than dividing by zero.
        """
        costs = np.asarray(usd_per_req, dtype=float)
        if costs.ndim != 1 or costs.size == 0:
            raise ValueError("usd_per_req must be a non-empty 1-d vector")
        if not np.all(np.isfinite(costs)) or np.any(costs < 0):
            raise ValueError("usd_per_req entries must be finite and >= 0")
        mean = costs.mean()
        self._rel_costs = costs / mean if mean > 0 else None

    def bind(self, regions) -> None:
        """Price the deployment's regions unless a usable price vector
        was configured."""
        if self.needs_costs:
            self.configure_costs(
                [
                    effective_usd_per_req(get_instance_type(s.instance_type))
                    for s in regions
                ]
            )

    def _compute(
        self,
        prev_fractions: np.ndarray,
        rmttf: np.ndarray,
        global_rate: float,
    ) -> np.ndarray:
        rate = global_rate if global_rate > 0 else 1.0
        quality = rmttf * prev_fractions * rate
        if self._rel_costs is None:
            return quality
        if self._rel_costs.size != prev_fractions.size:
            raise ValueError(
                f"price vector has {self._rel_costs.size} regions but the "
                f"deployment has {prev_fractions.size}"
            )
        return quality / (1.0 + COST_WEIGHT * self._rel_costs)
