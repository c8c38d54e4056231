"""Tests for reactive VM-pool resizing (Sec. V)."""

import pytest

from repro.core import Autoscaler, AutoscaleConfig
from repro.pcam import OracleRttfPredictor, VirtualMachineController, VmcConfig, VmState
from repro.pcam.vmc import EraReport

from ..pcam.conftest import build_vm
from repro.sim import RngRegistry


@pytest.fixture
def rngs():
    return RngRegistry(seed=3)


def make_vmc(rngs, n_vms=6, target=2):
    vms = [build_vm(rngs, name=f"as/vm{i}") for i in range(n_vms)]
    return VirtualMachineController(
        "as", vms, OracleRttfPredictor(), VmcConfig(target_active=target)
    )


def report(n_active=2, n_standby=3, response_time_s=0.1):
    return EraReport(
        region="as",
        time=0.0,
        last_rmttf=500.0,
        response_time_s=response_time_s,
        n_active=n_active,
        n_standby=n_standby,
        n_rejuvenating=0,
        n_failed=0,
        requests_served=100,
        rejuvenations_triggered=0,
        failures=0,
    )


class TestConfig:
    def test_defaults_valid(self):
        AutoscaleConfig()

    @pytest.mark.parametrize(
        "kw",
        [
            dict(response_time_threshold_s=0.0),
            dict(rmttf_low_s=-1.0),
            dict(rmttf_low_s=100.0, rmttf_high_s=100.0),
            dict(cooldown_eras=-1),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            AutoscaleConfig(**kw)


class TestExpectedRmttf:
    def test_mean_field_projection(self):
        a = Autoscaler()
        assert a.expected_rmttf_after(400.0, 4, +1) == pytest.approx(500.0)
        assert a.expected_rmttf_after(400.0, 4, -1) == pytest.approx(300.0)

    def test_validation(self):
        a = Autoscaler()
        with pytest.raises(ValueError):
            a.expected_rmttf_after(1.0, 0, 1)
        with pytest.raises(ValueError):
            a.expected_rmttf_after(1.0, 1, -1)


class TestDecisions:
    def test_grows_on_response_time_breach(self, rngs):
        vmc = make_vmc(rngs)
        a = Autoscaler(AutoscaleConfig(response_time_threshold_s=0.5))
        delta = a.decide(vmc, report(response_time_s=0.9), rmttf=1000.0)
        assert delta == +1
        assert a.scale_up_count == 1

    def test_grows_on_low_rmttf(self, rngs):
        vmc = make_vmc(rngs)
        a = Autoscaler(AutoscaleConfig(rmttf_low_s=300.0))
        assert a.decide(vmc, report(), rmttf=100.0) == +1

    def test_no_growth_without_standby(self, rngs):
        vmc = make_vmc(rngs)
        a = Autoscaler()
        assert a.decide(vmc, report(n_standby=0, response_time_s=2.0), 100.0) == 0

    def test_shrinks_on_high_rmttf_with_headroom(self, rngs):
        vmc = make_vmc(rngs)
        a = Autoscaler(
            AutoscaleConfig(rmttf_high_s=1000.0, response_time_threshold_s=0.8)
        )
        delta = a.decide(vmc, report(n_active=4, response_time_s=0.1), 5000.0)
        assert delta == -1
        assert a.scale_down_count == 1

    def test_never_shrinks_when_response_time_tight(self, rngs):
        vmc = make_vmc(rngs)
        a = Autoscaler(
            AutoscaleConfig(rmttf_high_s=1000.0, response_time_threshold_s=0.8)
        )
        # 0.5 > threshold/2 -> no headroom
        assert a.decide(vmc, report(n_active=4, response_time_s=0.5), 5000.0) == 0

    def test_never_shrinks_below_one(self, rngs):
        vmc = make_vmc(rngs)
        a = Autoscaler(AutoscaleConfig(rmttf_high_s=1000.0))
        assert a.decide(vmc, report(n_active=1, response_time_s=0.01), 5000.0) == 0

    def test_shrink_rejected_if_projection_violates_floor(self, rngs):
        vmc = make_vmc(rngs)
        cfg = AutoscaleConfig(rmttf_low_s=900.0, rmttf_high_s=1000.0)
        a = Autoscaler(cfg)
        # projected 1100 * 1/2 = 550 < low threshold: refuse
        assert a.decide(vmc, report(n_active=2, response_time_s=0.01), 1100.0) == 0

    def test_cooldown_blocks_consecutive_actions(self, rngs):
        vmc = make_vmc(rngs)
        a = Autoscaler(AutoscaleConfig(cooldown_eras=2, rmttf_low_s=300.0))
        assert a.decide(vmc, report(), rmttf=100.0) == +1
        assert a.decide(vmc, report(), rmttf=100.0) == 0
        assert a.decide(vmc, report(), rmttf=100.0) == 0
        assert a.decide(vmc, report(), rmttf=100.0) == +1

    def test_apply_mutates_pool(self, rngs):
        vmc = make_vmc(rngs, target=2)
        a = Autoscaler(AutoscaleConfig(rmttf_low_s=300.0, cooldown_eras=0))
        delta = a.apply(vmc, report(), rmttf=100.0)
        assert delta == +1
        assert vmc.target_active == 3
        assert len(vmc.vms_in(VmState.ACTIVE)) == 3
