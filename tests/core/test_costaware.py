"""Units for the cost-aware policy (availability-per-dollar)."""

import numpy as np
import pytest

import repro.core.costaware as costaware
from repro.core.costaware import CostAwarePolicy
from repro.core.policy import compute_fractions, get_policy
from repro.core.resources import AvailableResourcesPolicy


def priced(usd_per_req, **kwargs):
    """A cost-aware policy with ``usd_per_req`` installed."""
    policy = CostAwarePolicy(**kwargs)
    policy.configure_costs(usd_per_req)
    return policy


@pytest.fixture
def cost_weight(monkeypatch):
    """Sets :data:`costaware.COST_WEIGHT` for one test."""
    return lambda value: monkeypatch.setattr(costaware, "COST_WEIGHT", value)


class TestRegistry:
    def test_registered_by_name(self):
        assert isinstance(get_policy("cost-aware"), CostAwarePolicy)


class TestCostWeighting:
    def test_unconfigured_matches_policy2(self):
        prev = np.array([0.5, 0.3, 0.2])
        rmttf = np.array([300.0, 600.0, 900.0])
        plain = AvailableResourcesPolicy().compute(prev, rmttf, 100.0)
        costless = CostAwarePolicy().compute(prev, rmttf, 100.0)
        assert costless == pytest.approx(plain)

    def test_all_zero_prices_clear_configuration(self):
        policy = priced([0.0, 0.0])
        assert policy.needs_costs

    def test_prices_shift_traffic_toward_cheap_regions(self):
        prev = np.array([0.5, 0.5])
        rmttf = np.array([600.0, 600.0])  # identical health...
        policy = priced([1e-6, 1e-7])
        f = policy.compute(prev, rmttf, 100.0)
        assert f[1] > f[0]  # ...so the cheap region wins

    def test_price_ratios_not_magnitudes(self):
        prev = np.array([0.4, 0.6])
        rmttf = np.array([500.0, 700.0])
        lo = priced([1e-7, 3e-7])
        hi = priced([1e-4, 3e-4])  # 1000x scale
        assert lo.compute(prev, rmttf, 50.0) == pytest.approx(
            hi.compute(prev, rmttf, 50.0)
        )

    def test_cost_weight_zero_reduces_to_policy2(self, cost_weight):
        prev = np.array([0.5, 0.5])
        rmttf = np.array([300.0, 900.0])
        cost_weight(0.0)
        weighted = priced([1e-6, 1e-7]).compute(prev, rmttf, 100.0)
        plain = AvailableResourcesPolicy().compute(prev, rmttf, 100.0)
        assert weighted == pytest.approx(plain)

    def test_size_mismatch_raises(self):
        policy = priced([1e-6, 1e-7, 1e-7])
        with pytest.raises(ValueError):
            policy.compute(np.array([0.5, 0.5]), np.array([1.0, 1.0]), 1.0)

    def test_bind_prices_the_deployment_unless_configured(self):
        from repro.core.cost import effective_usd_per_req
        from repro.core.manager import RegionSpec
        from repro.sim.instances import get_instance_type

        regions = [
            RegionSpec("a", "m3.medium", n_vms=2, target_active=1, clients=64),
            RegionSpec("b", "private.small", n_vms=2, target_active=1, clients=64),
        ]
        bound = CostAwarePolicy()
        bound.bind(regions)
        assert not bound.needs_costs
        catalog = priced(
            [
                effective_usd_per_req(get_instance_type(s.instance_type))
                for s in regions
            ]
        )
        prev, rmttf = np.array([0.5, 0.5]), np.array([600.0, 600.0])
        assert np.array_equal(
            bound.compute(prev, rmttf, 100.0),
            catalog.compute(prev, rmttf, 100.0),
        )
        explicit = priced([1e-6, 1e-7])
        before = explicit.compute(prev, rmttf, 100.0)
        explicit.bind(regions)
        assert np.array_equal(explicit.compute(prev, rmttf, 100.0), before)

    def test_configure_validation(self):
        policy = CostAwarePolicy()
        with pytest.raises(ValueError):
            policy.configure_costs([])
        with pytest.raises(ValueError):
            policy.configure_costs([1e-6, -1.0])
        with pytest.raises(ValueError):
            policy.configure_costs([1e-6, float("inf")])


class TestMinFractionInteraction:
    """Satellite: expensive regions stay observable through the floor."""

    def test_expensive_region_keeps_min_fraction(self, cost_weight):
        # an extreme price ratio starves region 0, but the simplex
        # floor must keep it observable (no requests -> no RMTTF signal
        # -> no recovery, the failure mode the floor exists to prevent)
        cost_weight(100.0)
        policy = priced([1.0, 1e-9], min_fraction=0.01)
        prev = np.array([1e-3, 1.0 - 1e-3])
        rmttf = np.array([600.0, 600.0])
        for _ in range(20):  # iterate the multiplicative policy
            prev = policy.compute(prev, rmttf, 100.0)
        assert prev[0] >= 0.01 - 1e-12
        assert prev.sum() == pytest.approx(1.0)

    def test_through_compute_fractions_seam(self):
        policy = priced([1e-6, 1e-7])
        prev = np.array([0.5, 0.5])
        rmttf = np.array([600.0, 600.0])
        direct = policy.compute(prev, rmttf, 100.0)
        seam = compute_fractions(policy, prev, rmttf, 100.0, mode="normal")
        assert seam == pytest.approx(direct)
        hold = compute_fractions(policy, prev, rmttf, 100.0, mode="hold")
        assert hold == pytest.approx(prev)
