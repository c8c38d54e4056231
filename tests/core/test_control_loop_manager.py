"""Integration tests: the full MAPE loop and the AcmManager façade."""

import math

import numpy as np
import pytest

from repro.core import (
    AcmManager,
    ControlLoopConfig,
    RegionSpec,
    assess_policy_run,
)
from repro.core.metrics import convergence_time, mean_oscillation, rmttf_spread
from repro.experiments.reporting import assessment_table
from repro.overlay import OverlayNetwork
from repro.sim.tracing import TraceSeries


def two_region_manager(policy="available-resources", seed=11, **kw):
    return AcmManager(
        regions=[
            RegionSpec("region1", "m3.medium", n_vms=8, target_active=6, clients=160),
            RegionSpec("region3", "private.small", n_vms=6, target_active=4, clients=96),
        ],
        policy=policy,
        seed=seed,
        **kw,
    )


class TestManagerConstruction:
    def test_builds_regions_and_loop(self):
        mgr = two_region_manager()
        assert mgr.region_names() == ["region1", "region3"]
        assert mgr.loop.vmcs["region1"].healthy_capacity() > 0

    def test_duplicate_region_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            AcmManager(
                regions=[
                    RegionSpec("r", "m3.medium", 2, 1, 32),
                    RegionSpec("r", "m3.small", 2, 1, 32),
                ]
            )

    def test_empty_regions_rejected(self):
        with pytest.raises(ValueError):
            AcmManager(regions=[])

    def test_region_spec_validation(self):
        with pytest.raises(ValueError):
            RegionSpec("r", "m3.medium", n_vms=0, target_active=1, clients=32)
        with pytest.raises(ValueError):
            RegionSpec("r", "m3.medium", n_vms=2, target_active=3, clients=32)
        with pytest.raises(ValueError):
            RegionSpec("r", "m3.medium", n_vms=2, target_active=1, clients=0)

    def test_policy_accepts_name_or_instance(self):
        from repro.core import UniformPolicy

        by_name = two_region_manager(policy="uniform")
        by_obj = two_region_manager(policy=UniformPolicy())
        assert type(by_name.loop.policy) is type(by_obj.loop.policy)


class TestControlLoopMechanics:
    def test_era_summary_fields(self):
        mgr = two_region_manager()
        (s,) = mgr.run(1)
        assert s.era == 0
        assert set(s.fractions) == {"region1", "region3"}
        assert sum(s.fractions.values()) == pytest.approx(1.0)
        assert s.leader == "region1"  # min id in the component
        assert s.total_requests > 0
        assert 0.0 <= s.forwarded_fraction <= 1.0

    def test_run_validates_n_eras(self):
        with pytest.raises(ValueError):
            two_region_manager().run(0)

    def test_traces_recorded_per_region(self):
        mgr = two_region_manager()
        mgr.run(5)
        for r in ("region1", "region3"):
            assert len(mgr.traces.series(f"rmttf/{r}")) == 5
            assert len(mgr.traces.series(f"fraction/{r}")) == 5
        assert len(mgr.traces.series("response_time")) == 5

    def test_deterministic_given_seed(self):
        a = two_region_manager(seed=5)
        b = two_region_manager(seed=5)
        sa = a.run(10)
        sb = b.run(10)
        assert [s.total_requests for s in sa] == [s.total_requests for s in sb]
        assert np.allclose(
            a.traces.series("rmttf/region1").values,
            b.traces.series("rmttf/region1").values,
        )

    def test_different_seeds_differ(self):
        a = two_region_manager(seed=5)
        b = two_region_manager(seed=6)
        a.run(10)
        b.run(10)
        assert not np.allclose(
            a.traces.series("rmttf/region1").values,
            b.traces.series("rmttf/region1").values,
        )

    def test_control_loop_config_validation(self):
        with pytest.raises(ValueError):
            ControlLoopConfig(era_s=0.0)
        with pytest.raises(ValueError):
            ControlLoopConfig(beta=1.5)

    @pytest.mark.parametrize("era_s", [math.nan, math.inf, -math.inf])
    def test_non_finite_era_rejected(self, era_s):
        # `nan <= 0` is False: a NaN era once passed the check
        with pytest.raises(ValueError, match="era_s"):
            ControlLoopConfig(era_s=era_s)


class TestPaperDynamics:
    """The qualitative claims of Sec. VI-B, asserted quantitatively."""

    @pytest.fixture(scope="class")
    def runs(self):
        out = {}
        for pol in ("sensible-routing", "available-resources", "exploration"):
            mgr = two_region_manager(policy=pol, seed=7)
            mgr.run(200)
            out[pol] = mgr.traces
        return out

    def _tail_rmttf(self, traces):
        return {
            n: s.tail_fraction(0.8)
            for n, s in traces.matching("rmttf/").items()
        }

    def test_policy1_rmttf_does_not_converge(self, runs):
        spread = rmttf_spread(self._tail_rmttf(runs["sensible-routing"]))
        assert spread > 0.25  # regions stabilise visibly apart

    def test_policy2_converges_tightly(self, runs):
        spread = rmttf_spread(self._tail_rmttf(runs["available-resources"]))
        assert spread < 0.08

    def test_policy3_converges(self, runs):
        spread = rmttf_spread(self._tail_rmttf(runs["exploration"]))
        assert spread < 0.12

    def test_policy2_most_stable_fractions(self, runs):
        def f_osc(traces):
            return mean_oscillation(
                {n: s for n, s in traces.matching("fraction/").items()}
            )

        assert f_osc(runs["available-resources"]) <= f_osc(runs["exploration"])

    def test_response_time_below_sla_for_all(self, runs):
        for pol, traces in runs.items():
            assert traces.series("response_time").mean() < 1.0, pol

    def test_assess_policy_run_summary(self, runs):
        a = assess_policy_run(
            "available-resources", runs["available-resources"]
        )
        assert a.converged
        assert a.sla_met
        assert "available-resources" in assessment_table([a])


class TestOverlayIntegration:
    def test_custom_overlay_leader_follows_failures(self):
        net = OverlayNetwork()
        for r in ("region1", "region3"):
            net.add_node(r)
        net.add_link("region1", "region3", 30.0)
        mgr = two_region_manager(overlay=net)
        (s1,) = mgr.run(1)
        assert s1.leader == "region1"
        net.fail_node("region1")
        (s2,) = mgr.run(1)
        assert s2.leader == "region3"

    def test_partitioned_region_keeps_serving(self):
        net = OverlayNetwork()
        for r in ("region1", "region3"):
            net.add_node(r)
        net.add_link("region1", "region3", 30.0)
        mgr = two_region_manager(overlay=net)
        mgr.run(5)
        net.fail_link("region1", "region3")
        summaries = mgr.run(5)
        # both regions still process load under partition
        assert all(
            s.active_vms["region3"] >= 1 and s.total_requests > 0
            for s in summaries
        )


class TestMetricFunctions:
    def test_convergence_time_simple(self):
        t = np.arange(10.0)
        a = TraceSeries("a", t, np.r_[np.full(5, 100.0), np.full(5, 200.0)])
        b = TraceSeries("b", t, np.full(10, 200.0))
        ct = convergence_time({"a": a, "b": b}, tolerance=0.15, min_window=3)
        assert ct == 5.0

    def test_convergence_never(self):
        t = np.arange(10.0)
        a = TraceSeries("a", t, np.full(10, 100.0))
        b = TraceSeries("b", t, np.full(10, 300.0))
        assert convergence_time({"a": a, "b": b}) == float("inf")

    def test_convergence_immediate(self):
        t = np.arange(5.0)
        a = TraceSeries("a", t, np.full(5, 100.0))
        assert convergence_time({"a": a}, min_window=3) == 0.0

    def test_convergence_tolerates_single_excursion(self):
        t = np.arange(40.0)
        vals = np.full(40, 100.0)
        vals[30] = 200.0  # one stochastic blip must not undo convergence
        a = TraceSeries("a", t, vals)
        b = TraceSeries("b", t, np.full(40, 100.0))
        assert convergence_time({"a": a, "b": b}) == 0.0

    def test_convergence_short_series_is_never(self):
        t = np.arange(3.0)
        a = TraceSeries("a", t, np.full(3, 100.0))
        assert convergence_time({"a": a}) == float("inf")

    def test_convergence_rate_validation(self):
        t = np.arange(20.0)
        s = {"a": TraceSeries("a", t, np.full(20, 1.0))}
        with pytest.raises(ValueError):
            convergence_time(s, allowed_violation_rate=1.0)

    def test_spread_zero_when_equal(self):
        t = np.arange(5.0)
        s = {k: TraceSeries(k, t, np.full(5, 100.0)) for k in "ab"}
        assert rmttf_spread(s) == 0.0

    def test_metric_validation(self):
        with pytest.raises(ValueError):
            rmttf_spread({})
        with pytest.raises(ValueError):
            convergence_time({})
        with pytest.raises(ValueError):
            mean_oscillation({})
        t = np.arange(3.0)
        s = {"a": TraceSeries("a", t, np.zeros(3))}
        with pytest.raises(ValueError):
            rmttf_spread(s)


class TestAutoscaleIntegration:
    def test_autoscaler_grows_under_overload(self):
        mgr = AcmManager(
            regions=[
                RegionSpec(
                    "solo",
                    "private.small",
                    n_vms=8,
                    target_active=2,
                    clients=200,
                    rttf_threshold_s=60.0,
                    rejuvenation_time_s=60.0,
                ),
            ],
            policy="uniform",
            seed=3,
            autoscale=True,
        )
        mgr.run(60)
        # RMTTF below the 300 s autoscale floor at 2 active VMs: the pool
        # must grow until the projected RMTTF clears the floor.
        vmc = mgr.loop.vmcs["solo"]
        assert vmc.target_active >= 4
        assert mgr.loop.autoscaler.scale_up_count >= 2
