"""Regression tests for per-VM predictor state through the VMC era path.

Guards one bug: the VMC (and the DES loop) used to predict each VM's RTTF
and then ``predict_mttf`` -- which re-predicts internally -- so stateful
predictors saw *two* history appends per era, corrupting the trend
windows of :class:`TrendAwareRttfPredictor`.  A pool is fixed when it is
built, so the windows are keyed by a fixed set of names.
"""

import numpy as np
import pytest

import repro.experiments.runner as runner_module
from repro.experiments import make_trained_predictor
from repro.pcam import VirtualMachineController, VmcConfig, VmState
from repro.sim import RngRegistry

from .conftest import build_vm
from .reference_vmc import (
    RecordingPredictor,
    ReferenceVm,
    feature_rows,
    predict_one,
    predict_rows,
)


def profiled_every_15s(*args, **kwargs):
    """:func:`make_trained_predictor` with its profiling runs sampled
    every 15 s (``runner.SAMPLE_PERIOD_S`` patched for the call)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner_module, "SAMPLE_PERIOD_S", 15.0)
        return make_trained_predictor(*args, **kwargs)


@pytest.fixture(scope="module")
def trend_predictor():
    return profiled_every_15s(
        ["private.small"],
        seed=3,
        profile_rates=(4.0, 8.0, 16.0),
        runs_per_rate=2,
        use_trend_features=True,
    )


@pytest.fixture(scope="module")
def trained_predictor():
    return profiled_every_15s(
        ["private.small"],
        seed=3,
        profile_rates=(4.0, 8.0, 16.0),
        runs_per_rate=2,
    )


def build_vmc(predictor, n_vms=4, target_active=2, name="r1"):
    rngs = RngRegistry(seed=9)
    vms = [build_vm(rngs, name=f"{name}/vm{i}") for i in range(n_vms)]
    return VirtualMachineController(
        name,
        vms,
        predictor,
        VmcConfig(target_active=target_active, rttf_threshold_s=60.0),
    )


class TestOneAppendPerEra:
    def test_process_era_appends_history_once_per_active_vm(
        self, trend_predictor
    ):
        trend_predictor._history.clear()
        vmc = build_vmc(trend_predictor)
        for era in range(3):
            vmc.process_era(n_requests=120, dt=30.0, now=30.0 * (era + 1))
            for vm in vmc.vms_in(VmState.ACTIVE):
                # exactly one (uptime, features) entry per era survived --
                # the double-predict bug appended two
                assert len(trend_predictor._history[vm.name]) == min(
                    era + 1, trend_predictor.window + 1
                )

    def test_rmttf_derives_from_the_reported_rttf(self, trend_predictor):
        trend_predictor._history.clear()
        recorder = RecordingPredictor(trend_predictor)
        vmc = build_vmc(recorder)
        report = vmc.process_era(n_requests=120, dt=30.0, now=30.0)
        by_name = {vm.name: vm for vm in vmc.vms}
        expected = np.mean(
            [
                by_name[name].uptime_s + max(rttf, 0.0)
                for name, rttf in recorder.rttf_by_name().items()
            ]
        )
        assert report.last_rmttf == pytest.approx(expected)

    def test_history_stays_bounded_over_many_eras(self, trend_predictor):
        trend_predictor._history.clear()
        vmc = build_vmc(trend_predictor)
        for era in range(12):
            vmc.process_era(n_requests=60, dt=30.0, now=30.0 * (era + 1))
        for entries in trend_predictor._history.values():
            assert len(entries) <= trend_predictor.window + 1


class TestBatchScalarEquivalence:
    def test_trained_batch_matches_scalar(self, trained_predictor):
        rngs = RngRegistry(seed=21)
        vms = []
        for i in range(5):
            vm = build_vm(rngs, name=f"eq/vm{i}", cls=ReferenceVm)
            vm.activate()
            for _ in range(1 + i):
                vm.apply_load(80, 30.0)
            vms.append(vm)
        batch = predict_rows(trained_predictor, vms)
        scalar = np.array([predict_one(trained_predictor, vm) for vm in vms])
        np.testing.assert_allclose(batch, scalar)

    def test_empty_batch(self, trained_predictor, trend_predictor):
        assert predict_rows(trained_predictor, []).shape == (0,)
        assert predict_rows(trend_predictor, []).shape == (0,)

