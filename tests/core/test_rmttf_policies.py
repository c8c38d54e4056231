"""Tests for Eq. (1) aggregation and the three paper policies."""

import numpy as np
import pytest

from repro.core import (
    AvailableResourcesPolicy,
    ExplorationPolicy,
    RmttfAggregator,
    SensibleRoutingPolicy,
    StaticWeightsPolicy,
    UniformPolicy,
    get_policy,
    normalize_fractions,
)
from repro.core.policy import POLICY_REGISTRY


class TestRmttfAggregator:
    def test_first_report_initialises(self):
        agg = RmttfAggregator(beta=0.5)
        assert agg.update("r1", 100.0) == 100.0

    def test_equation_one(self):
        # RMTTF^t = (1-beta) * prev + beta * last
        agg = RmttfAggregator(beta=0.25)
        agg.update("r1", 100.0)
        assert agg.update("r1", 200.0) == pytest.approx(
            0.75 * 100.0 + 0.25 * 200.0
        )

    def test_beta_one_tracks_reports(self):
        agg = RmttfAggregator(beta=1.0)
        agg.update("r1", 100.0)
        assert agg.update("r1", 50.0) == 50.0

    def test_beta_zero_frozen_after_init(self):
        agg = RmttfAggregator(beta=0.0)
        agg.update("r1", 100.0)
        assert agg.update("r1", 999.0) == 100.0

    def test_beta_validated(self):
        with pytest.raises(ValueError):
            RmttfAggregator(beta=-0.1)
        with pytest.raises(ValueError):
            RmttfAggregator(beta=1.1)

    def test_negative_report_rejected(self):
        with pytest.raises(ValueError):
            RmttfAggregator().update("r1", -1.0)

    def test_regions_independent(self):
        agg = RmttfAggregator(beta=0.5)
        agg.update("r1", 100.0)
        agg.update("r2", 500.0)
        assert agg.snapshot() == {"r1": 100.0, "r2": 500.0}

    def test_unknown_region_is_absent(self):
        assert "ghost" not in RmttfAggregator().snapshot()

    def test_snapshot_sorted(self):
        agg = RmttfAggregator()
        agg.update_all({"b": 2.0, "a": 1.0})
        assert list(agg.snapshot()) == ["a", "b"]


class TestNormalizeFractions:
    def test_simple_normalisation(self):
        f = normalize_fractions(np.array([1.0, 3.0]), min_fraction=0.0)
        assert np.allclose(f, [0.25, 0.75])

    def test_all_zero_falls_back_to_uniform(self):
        f = normalize_fractions(np.zeros(4), min_fraction=0.0)
        assert np.allclose(f, 0.25)

    def test_negatives_clipped(self):
        f = normalize_fractions(np.array([-1.0, 1.0]), min_fraction=0.0)
        assert np.allclose(f, [0.0, 1.0])

    def test_floor_applied_and_sums_to_one(self):
        f = normalize_fractions(np.array([0.0, 100.0]), min_fraction=0.01)
        assert f[0] >= 0.01 - 1e-12
        assert f.sum() == pytest.approx(1.0)

    def test_infeasible_floor_rejected(self):
        with pytest.raises(ValueError):
            normalize_fractions(np.ones(3), min_fraction=0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            normalize_fractions(np.array([]))
        with pytest.raises(ValueError):
            normalize_fractions(np.array([np.nan, 1.0]))


class TestPolicyBase:
    def test_shape_mismatch(self):
        p = SensibleRoutingPolicy()
        with pytest.raises(ValueError):
            p.compute(np.array([0.5, 0.5]), np.array([1.0]), 10.0)

    def test_prev_fraction_simplex_enforced(self):
        p = SensibleRoutingPolicy()
        with pytest.raises(ValueError, match="sum to 1"):
            p.compute(np.array([0.5, 0.9]), np.array([1.0, 1.0]), 10.0)

    @pytest.mark.parametrize(
        "total", [1 + 1.0e-5, 1 - 1.0e-5, 1 + 1.2e-5, 1 - 1.2e-5, float("nan")]
    )
    def test_simplex_tolerance_is_np_isclose(self, total):
        prev = np.array([0.5, total - 0.5])
        rmttf = np.array([1.0, 1.0])
        if np.isclose(prev.sum(), 1.0, atol=1e-6):
            SensibleRoutingPolicy().compute(prev, rmttf, 10.0)
        else:
            with pytest.raises(ValueError, match="sum to 1"):
                SensibleRoutingPolicy().compute(prev, rmttf, 10.0)

    def test_negative_rmttf_rejected(self):
        p = SensibleRoutingPolicy()
        with pytest.raises(ValueError):
            p.compute(np.array([0.5, 0.5]), np.array([-1.0, 1.0]), 10.0)

    def test_initial_fractions_uniform(self):
        p = SensibleRoutingPolicy()
        assert np.allclose(p.initial_fractions(4), 0.25)
        with pytest.raises(ValueError):
            p.initial_fractions(0)


class TestSensibleRouting:
    def test_equation_two(self):
        p = SensibleRoutingPolicy(min_fraction=0.0)
        f = p.compute(np.array([0.5, 0.5]), np.array([300.0, 100.0]), 10.0)
        assert np.allclose(f, [0.75, 0.25])

    def test_ignores_previous_fractions(self):
        p = SensibleRoutingPolicy(min_fraction=0.0)
        rmttf = np.array([200.0, 200.0])
        f1 = p.compute(np.array([0.9, 0.1]), rmttf, 10.0)
        f2 = p.compute(np.array([0.1, 0.9]), rmttf, 10.0)
        assert np.allclose(f1, f2)


class TestAvailableResources:
    def test_equations_three_four(self):
        # Q_i = rmttf_i * f_i * lambda, normalised
        p = AvailableResourcesPolicy(min_fraction=0.0)
        prev = np.array([0.6, 0.4])
        rmttf = np.array([100.0, 300.0])
        f = p.compute(prev, rmttf, 50.0)
        q = rmttf * prev * 50.0
        assert np.allclose(f, q / q.sum())

    def test_fixed_point_at_capacity_shares(self):
        """If RMTTF_i = C_i / (f_i * lam), the policy maps any f to C/sum(C)."""
        p = AvailableResourcesPolicy(min_fraction=0.0)
        capacity = np.array([300.0, 100.0])
        lam = 20.0
        f = np.array([0.3, 0.7])
        for _ in range(3):
            rmttf = capacity / (f * lam)
            f = p.compute(f, rmttf, lam)
        assert np.allclose(f, capacity / capacity.sum())

    def test_zero_rate_tolerated(self):
        p = AvailableResourcesPolicy()
        f = p.compute(np.array([0.5, 0.5]), np.array([10.0, 30.0]), 0.0)
        assert f.sum() == pytest.approx(1.0)


class TestExploration:
    def test_overloaded_sheds_underloaded_gains(self):
        p = ExplorationPolicy(k=1.0, min_fraction=0.0)
        prev = np.array([0.5, 0.5])
        rmttf = np.array([100.0, 300.0])  # region 0 overloaded (below avg)
        f = p.compute(prev, rmttf, 10.0)
        assert f[0] < 0.5
        assert f[1] > 0.5
        assert f.sum() == pytest.approx(1.0)

    def test_balanced_system_unchanged(self):
        p = ExplorationPolicy(k=1.0, min_fraction=0.0)
        prev = np.array([0.3, 0.7])
        rmttf = np.array([200.0, 200.0])
        f = p.compute(prev, rmttf, 10.0)
        assert np.allclose(f, prev)

    def test_equation_six_magnitude(self):
        p = ExplorationPolicy(k=1.0, min_fraction=0.0)
        prev = np.array([0.5, 0.5])
        rmttf = np.array([100.0, 300.0])  # ARMTTF = 200
        f = p.compute(prev, rmttf, 10.0)
        # overloaded region: f = (100/200) * 0.5 * 1.0 = 0.25
        assert f[0] == pytest.approx(0.25)
        assert f[1] == pytest.approx(0.75)

    def test_k_damps_step(self):
        strong = ExplorationPolicy(k=1.0, min_fraction=0.0)
        weak = ExplorationPolicy(k=0.5, min_fraction=0.0)
        prev = np.array([0.5, 0.5])
        rmttf = np.array([100.0, 300.0])
        f_strong = strong.compute(prev, rmttf, 10.0)
        f_weak = weak.compute(prev, rmttf, 10.0)
        # k=0.5 sheds more from the overloaded region (multiplies by k)
        assert f_weak[0] < f_strong[0]

    def test_shedding_never_increases_overloaded_flow(self):
        p = ExplorationPolicy(k=3.0, min_fraction=0.0)  # k too large
        prev = np.array([0.5, 0.5])
        rmttf = np.array([180.0, 220.0])
        f = p.compute(prev, rmttf, 10.0)
        assert f[0] <= 0.5 + 1e-12

    def test_iterates_toward_balance(self):
        """On the mean-field model the policy equalises RMTTF."""
        p = ExplorationPolicy(k=1.0, min_fraction=1e-3)
        capacity = np.array([300.0, 150.0, 100.0])
        lam = 30.0
        f = np.full(3, 1 / 3)
        for _ in range(60):
            rmttf = capacity / np.maximum(f * lam, 1e-9)
            f = p.compute(f, rmttf, lam)
        rmttf = capacity / (f * lam)
        assert rmttf.max() / rmttf.min() < 1.15

    def test_k_validated(self):
        with pytest.raises(ValueError):
            ExplorationPolicy(k=0.0)


class TestBaselines:
    def test_uniform(self):
        p = UniformPolicy(min_fraction=0.0)
        f = p.compute(np.array([0.9, 0.1]), np.array([1.0, 2.0]), 10.0)
        assert np.allclose(f, 0.5)

    def test_static_weights(self):
        p = StaticWeightsPolicy(weights=[3.0, 1.0], min_fraction=0.0)
        f = p.compute(np.array([0.5, 0.5]), np.array([1.0, 1.0]), 10.0)
        assert np.allclose(f, [0.75, 0.25])

    def test_static_weights_size_mismatch(self):
        p = StaticWeightsPolicy(weights=[1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            p.compute(np.array([0.5, 0.5]), np.array([1.0, 1.0]), 10.0)

    def test_static_weights_validation(self):
        with pytest.raises(ValueError):
            StaticWeightsPolicy(weights=[])
        with pytest.raises(ValueError):
            StaticWeightsPolicy(weights=[-1.0, 1.0])

    def test_static_weights_bind_the_nameplate_split(self):
        from repro.core.manager import RegionSpec

        regions = [
            RegionSpec("a", "m3.medium", n_vms=6, target_active=4, clients=64),
            RegionSpec("b", "m3.small", n_vms=3, target_active=2, clients=64),
        ]
        p = StaticWeightsPolicy(min_fraction=0.0)
        with pytest.raises(ValueError, match="bind"):
            p.compute(np.array([0.5, 0.5]), np.array([1.0, 1.0]), 10.0)
        p.bind(regions)
        f = p.compute(np.array([0.5, 0.5]), np.array([1.0, 1.0]), 10.0)
        from repro.sim.instances import get_instance_type

        w = np.array([4 * get_instance_type("m3.medium").cpu_power,
                      2 * get_instance_type("m3.small").cpu_power])
        assert np.allclose(f, w / w.sum())
        explicit = StaticWeightsPolicy(weights=[1.0, 1.0], min_fraction=0.0)
        explicit.bind(regions)
        assert np.allclose(explicit.weights, [1.0, 1.0])


class TestRegistry:
    def test_all_five_policies_registered(self):
        names = {
            "sensible-routing",
            "available-resources",
            "exploration",
            "uniform",
            "static-weights",
        }
        get_policy("uniform")  # force registry population
        assert names <= set(POLICY_REGISTRY)

    def test_get_policy_constructs(self):
        assert isinstance(get_policy("sensible-routing"), SensibleRoutingPolicy)
        assert isinstance(
            get_policy("exploration", k=0.5), ExplorationPolicy
        )

    def test_unknown_policy(self):
        with pytest.raises(KeyError, match="sensible-routing"):
            get_policy("round-robin")
