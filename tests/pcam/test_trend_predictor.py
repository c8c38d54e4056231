"""Tests for the trend-aware RTTF predictor.

The predictor reads a VM's name and uptime beside its feature row, so
these drive scalar :class:`~tests.pcam.reference_vmc.ReferenceVm` objects
one era at a time.
"""

import numpy as np
import pytest

import repro.experiments.runner as runner_module
import repro.pcam.predictor as predictor_module
from repro.experiments import make_trained_predictor
from repro.pcam import TrendAwareRttfPredictor, VmState

from .conftest import build_vm
from .reference_vmc import ReferenceVm, idle, predict_one
from repro.sim import RngRegistry


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


@pytest.fixture
def rngs():
    return RngRegistry(seed=55)


class TestTrendAwarePredictor:
    def test_factory_returns_trend_variant(self, trend_predictor):
        assert isinstance(trend_predictor, TrendAwareRttfPredictor)
        # the derived schema doubles the source column count
        assert len(trend_predictor.model.source_names) == 30

    def test_model_has_skill(self, trend_predictor):
        assert trend_predictor.model.report.r2 > 0.5

    def test_online_prediction_reasonable(self, trend_predictor, rngs):
        vm = build_vm(rngs, name="trend/vm0", cls=ReferenceVm)
        vm.activate()
        rng = np.random.default_rng(0)
        preds = []
        for _ in range(6):
            vm.apply_load(int(rng.poisson(8.0 * 30.0)), 30.0)
            if vm.state is not VmState.ACTIVE:
                break
            preds.append(predict_one(trend_predictor, vm))
        truth = vm.true_time_to_failure_s(8.0)
        assert preds[-1] == pytest.approx(truth, rel=1.5)
        # predictions trend downward as the VM degrades
        assert preds[-1] < preds[0]

    def test_history_resets_after_rejuvenation(self, trend_predictor, rngs):
        vm = build_vm(rngs, name="trend/vm1", cls=ReferenceVm)
        vm.activate()
        for _ in range(4):
            vm.apply_load(200, 30.0)
            predict_one(trend_predictor, vm)
        degraded = predict_one(trend_predictor, vm)
        vm.start_rejuvenation()
        idle(vm, vm.rejuvenation_time_s)
        vm.activate()
        vm.apply_load(200, 30.0)
        fresh = predict_one(trend_predictor, vm)
        # the fresh VM must not inherit the degraded window
        assert fresh > degraded
        hist = trend_predictor._history[vm.name]
        assert len(hist) == 1

    def test_per_vm_histories_independent(self, trend_predictor, rngs):
        a = build_vm(rngs, name="trend/a", cls=ReferenceVm)
        b = build_vm(rngs, name="trend/b", cls=ReferenceVm)
        a.activate()
        b.activate()
        a.apply_load(600, 30.0)
        b.apply_load(100, 30.0)
        predict_one(trend_predictor, a)
        predict_one(trend_predictor, b)
        assert len(trend_predictor._history["trend/a"]) == 1
        assert len(trend_predictor._history["trend/b"]) == 1

    def test_validation(self, trend_predictor):
        with pytest.raises(ValueError):
            TrendAwareRttfPredictor(trend_predictor.model, window=0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(predictor_module, "FLOOR_S", -1.0)
            with pytest.raises(ValueError):
                TrendAwareRttfPredictor(trend_predictor.model)
