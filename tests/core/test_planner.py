"""Tests for the mean-field capacity planner."""

import math

import pytest

from repro.core import AcmManager, RegionSpec
from repro.core.planner import mean_field_ttf, recommend_pool
from repro.sim import M3_MEDIUM, PRIVATE_SMALL


class TestMeanFieldTtf:
    def test_decreases_with_rate(self):
        assert mean_field_ttf(M3_MEDIUM, 20.0) < mean_field_ttf(M3_MEDIUM, 5.0)

    def test_zero_rate_infinite(self):
        assert mean_field_ttf(M3_MEDIUM, 0.0) == float("inf")

    def test_bigger_shape_lasts_longer(self):
        assert mean_field_ttf(M3_MEDIUM, 8.0) > mean_field_ttf(
            PRIVATE_SMALL, 8.0
        )


class TestRecommendPool:
    def test_plan_meets_target(self):
        plan = recommend_pool("m3.medium", 40.0, target_rmttf_s=600.0)
        assert plan.expected_rmttf_s >= 600.0
        assert plan.expected_utilisation <= 0.7
        assert plan.active_vms >= 1
        assert plan.standby_vms >= 1

    def test_minimality(self):
        """One fewer ACTIVE VM must violate the target or utilisation."""
        plan = recommend_pool("m3.medium", 40.0, target_rmttf_s=600.0)
        n = plan.active_vms
        if n > 1:
            per_vm = 40.0 / (n - 1)
            util = per_vm / (M3_MEDIUM.cpu_power / 1.5)
            ttf = mean_field_ttf(M3_MEDIUM, per_vm)
            assert util > 0.7 or ttf < 600.0

    def test_higher_target_needs_more_vms(self):
        small = recommend_pool("private.small", 30.0, target_rmttf_s=300.0)
        big = recommend_pool("private.small", 30.0, target_rmttf_s=1200.0)
        assert big.active_vms > small.active_vms

    def test_unreachable_target_raises(self):
        with pytest.raises(ValueError, match="no pool"):
            recommend_pool("private.small", 50.0, target_rmttf_s=1e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            recommend_pool("m3.medium", 0.0, 100.0)
        with pytest.raises(ValueError):
            recommend_pool("m3.medium", 1.0, 0.0)
        for bad in (-5.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="non-negative and finite"):
                recommend_pool("m3.medium", 30.0, 600.0, rttf_threshold_s=bad)
            with pytest.raises(ValueError, match="non-negative and finite"):
                recommend_pool(
                    "m3.medium", 30.0, 600.0, rejuvenation_time_s=bad
                )

    def test_total_vms(self):
        plan = recommend_pool("m3.medium", 40.0, target_rmttf_s=600.0)
        assert plan.total_vms == plan.active_vms + plan.standby_vms


class TestPlanDeployment:
    def test_plan_validates_in_simulation(self):
        """Deploy the planner's recommendation and confirm the loop
        actually sustains the target RMTTF -- planner/simulator closure."""
        target = 500.0
        rate = 25.0  # ~175 clients of offered load
        plan = recommend_pool(
            "m3.medium", rate, target_rmttf_s=target,
            rejuvenation_time_s=120.0, rttf_threshold_s=240.0,
        )
        clients = int(rate * 7.0)  # closed-loop: N = rate * think time
        mgr = AcmManager(
            regions=[
                RegionSpec(
                    "planned",
                    "m3.medium",
                    n_vms=plan.total_vms,
                    target_active=plan.active_vms,
                    clients=clients,
                ),
            ],
            policy="uniform",
            seed=12,
        )
        mgr.run(120)
        steady = (
            mgr.traces.series("rmttf/planned").tail_fraction(0.4).mean()
        )
        assert steady >= target * 0.8
        assert mgr.traces.series("failures").values.sum() == 0


class TestPlanCost:
    def test_hourly_usd_bills_all_provisioned_vms(self):
        plan = recommend_pool("m3.medium", 40.0, target_rmttf_s=600.0)
        assert plan.hourly_usd == pytest.approx(
            M3_MEDIUM.hourly_cost * plan.total_vms
        )

    def test_usd_per_mreq_folds_hourly_and_marginal(self):
        plan = recommend_pool("m3.medium", 40.0, target_rmttf_s=600.0)
        expected = (
            plan.hourly_usd / (40.0 * 3600.0) + M3_MEDIUM.cost_per_req
        ) * 1e6
        assert plan.usd_per_mreq == pytest.approx(expected)
