"""Tests for the deployment cost tracker and request-pricing model."""

import numpy as np
import pytest

from repro.core import CostTracker
from repro.core.cost import CostModel, cost_model_for, effective_usd_per_req
from repro.pcam import OracleRttfPredictor, VirtualMachineController, VmcConfig, VmState
from repro.sim import M3_MEDIUM, RngRegistry

from ..pcam.conftest import build_vm


@pytest.fixture
def vmc():
    rngs = RngRegistry(seed=8)
    vms = [
        build_vm(rngs, name=f"cost/vm{i}", itype=M3_MEDIUM) for i in range(4)
    ]
    return VirtualMachineController(
        "cost", vms, OracleRttfPredictor(), VmcConfig(target_active=2)
    )


class TestCostTracker:
    def test_active_vms_pay_full_rate(self, vmc):
        tracker = CostTracker(standby_multiplier=0.0)
        charge = tracker.charge_era(vmc, dt_s=3600.0)
        # 2 active x 1 hour at the m3.medium rate; standbys free here
        assert charge == pytest.approx(2 * M3_MEDIUM.hourly_cost)

    def test_standby_multiplier(self, vmc):
        tracker = CostTracker(standby_multiplier=0.5)
        charge = tracker.charge_era(vmc, dt_s=3600.0)
        expected = (2 + 0.5 * 2) * M3_MEDIUM.hourly_cost
        assert charge == pytest.approx(expected)

    def test_rejuvenating_pays_full_rate(self, vmc):
        vm = vmc.vms_in(VmState.ACTIVE)[0]
        vmc.table.start_rejuvenation(np.array([vm.row]))
        tracker = CostTracker(standby_multiplier=0.0)
        charge = tracker.charge_era(vmc, dt_s=3600.0)
        # 1 active + 1 rejuvenating at full rate
        assert charge == pytest.approx(2 * M3_MEDIUM.hourly_cost)

    def test_failed_pays_full_rate(self, vmc):
        # regression: a crashed-but-provisioned VM still costs money
        # until it is deprovisioned -- FAILED must bill like ACTIVE,
        # which is what the docstring now promises
        vmc.vms_in(VmState.ACTIVE)[0].fail()
        tracker = CostTracker(standby_multiplier=0.0)
        charge = tracker.charge_era(vmc, dt_s=3600.0)
        # 1 active + 1 failed, both at the full rate
        assert charge == pytest.approx(2 * M3_MEDIUM.hourly_cost)

    def test_per_state_billing_matrix(self, vmc):
        active = vmc.vms_in(VmState.ACTIVE)
        active[0].fail()
        vmc.table.start_rejuvenation(np.array([active[1].row]))
        tracker = CostTracker(standby_multiplier=0.25)
        charge = tracker.charge_era(vmc, dt_s=3600.0)
        # 1 failed + 1 rejuvenating at full rate, 2 standby at 25%
        expected = (2 + 0.25 * 2) * M3_MEDIUM.hourly_cost
        assert charge == pytest.approx(expected)

    def test_accumulates_per_region(self, vmc):
        tracker = CostTracker()
        tracker.charge_era(vmc, dt_s=1800.0, requests_served=500)
        tracker.charge_era(vmc, dt_s=1800.0, requests_served=500)
        assert tracker.per_region_usd["cost"] == pytest.approx(
            tracker.total_usd
        )
        assert tracker.requests_served == 1000

    def test_cost_per_million(self, vmc):
        tracker = CostTracker(standby_multiplier=0.0)
        tracker.charge_era(vmc, dt_s=3600.0, requests_served=1_000_000)
        assert tracker.cost_per_million_requests() == pytest.approx(
            2 * M3_MEDIUM.hourly_cost
        )

    def test_cost_per_million_no_requests(self):
        assert CostTracker().cost_per_million_requests() == float("inf")

    def test_validation(self, vmc):
        with pytest.raises(ValueError):
            CostTracker(standby_multiplier=1.5)
        tracker = CostTracker()
        with pytest.raises(ValueError):
            tracker.charge_era(vmc, 0.0)
        with pytest.raises(ValueError):
            tracker.charge_era(vmc, 1.0, requests_served=-1)


class TestCostModel:
    def test_marginal_request_pricing(self, vmc):
        model = CostModel(usd_per_req={"cost": 2e-6})
        tracker = CostTracker(standby_multiplier=0.0, model=model)
        charge = tracker.charge_era(vmc, dt_s=3600.0, requests_served=1000)
        expected = 2 * M3_MEDIUM.hourly_cost + 1000 * 2e-6
        assert charge == pytest.approx(expected)

    def test_unknown_region_prices_at_zero(self, vmc):
        model = CostModel(usd_per_req={"elsewhere": 1.0})
        tracker = CostTracker(standby_multiplier=0.0, model=model)
        charge = tracker.charge_era(vmc, dt_s=3600.0, requests_served=1000)
        assert charge == pytest.approx(2 * M3_MEDIUM.hourly_cost)

    def test_egress_billing(self):
        tracker = CostTracker(model=CostModel(egress_usd_per_req=1e-6))
        charge = tracker.charge_egress(500)
        assert charge == pytest.approx(5e-4)
        assert tracker.egress_usd == pytest.approx(5e-4)
        assert tracker.egress_requests == 500
        assert tracker.total_usd == pytest.approx(5e-4)

    def test_egress_is_noop_without_model(self):
        tracker = CostTracker()
        assert tracker.charge_egress(500) == 0.0
        assert tracker.total_usd == 0.0
        with pytest.raises(ValueError):
            tracker.charge_egress(-1)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            CostModel(usd_per_req={"r": -1.0})
        with pytest.raises(ValueError):
            CostModel(egress_usd_per_req=-0.1)

    def test_cost_model_for_reads_catalog(self):
        from repro.core.manager import RegionSpec

        specs = [
            RegionSpec("r1", "m3.medium", 4, 2, 100),
            RegionSpec("r3", "private.small", 4, 2, 100),
        ]
        model = cost_model_for(specs, egress_usd_per_req=2.5e-7)
        assert model.usd_per_req["r1"] > 0
        assert model.usd_per_req["r3"] > 0
        assert model.egress_usd_per_req == 2.5e-7

    def test_effective_price_orders_the_paper_shapes(self):
        from repro.sim.instances import get_instance_type

        private = effective_usd_per_req(get_instance_type("private.small"))
        medium = effective_usd_per_req(get_instance_type("m3.medium"))
        small = effective_usd_per_req(get_instance_type("m3.small"))
        # the privately-hosted region is the cheapest per request (the
        # paper's economic motivation); m3.small is the priciest because
        # its hourly charge amortises over the least capacity
        assert private < medium < small


class TestDegenerateCases:
    """Satellite: zero-request / single-region sentinel behaviour."""

    def test_zero_requests_is_inf_sentinel(self, vmc):
        tracker = CostTracker()
        tracker.charge_era(vmc, dt_s=3600.0)  # billed hours, no requests
        assert tracker.total_usd > 0
        assert tracker.cost_per_million_requests() == float("inf")

    def test_single_region_no_egress(self, vmc):
        tracker = CostTracker(
            standby_multiplier=0.0,
            model=CostModel(
                usd_per_req={"cost": 1e-6}, egress_usd_per_req=1e-6
            ),
        )
        tracker.charge_era(vmc, dt_s=3600.0, requests_served=1_000_000)
        # a single region never forwards, so egress is never charged
        assert tracker.charge_egress(0) == 0.0
        assert tracker.egress_usd == 0.0
        assert tracker.cost_per_million_requests() == pytest.approx(
            2 * M3_MEDIUM.hourly_cost + 1.0
        )
