"""Tests for the profiling harness and the RTTF predictors."""

import numpy as np
import pytest

from repro.ml import F2PMToolchain
from repro.ml.features import FEATURE_NAMES
from repro.pcam import (
    OracleRttfPredictor,
    ProfilingHarness,
    TrainedRttfPredictor,
    VmState,
)
from repro.sim import PRIVATE_SMALL

from .conftest import build_vm
from .reference_vmc import predict_one


class TestProfilingHarness:
    def _harness(self, rngs, **kw):
        counter = {"n": 0}

        def factory():
            counter["n"] += 1
            vm = build_vm(rngs, name=f"prof{counter['n']}")
            return vm

        return ProfilingHarness(factory, **kw)

    def test_run_to_failure_produces_trace(self, rngs):
        h = self._harness(rngs, sample_period_s=20.0)
        times, feats, t_fail = h.run_to_failure(
            12.0, np.random.default_rng(0)
        )
        assert times.shape[0] == feats.shape[0]
        assert feats.shape[1] == len(FEATURE_NAMES)
        assert t_fail > times[-1]
        assert np.all(np.diff(times) > 0)

    def test_higher_rate_fails_sooner(self, rngs):
        h = self._harness(rngs, sample_period_s=20.0)
        _, _, t_slow = h.run_to_failure(6.0, np.random.default_rng(1))
        _, _, t_fast = h.run_to_failure(25.0, np.random.default_rng(1))
        assert t_fast < t_slow

    def test_max_time_guard(self, rngs):
        h = self._harness(rngs)
        with pytest.raises(RuntimeError, match="survived"):
            h.run_to_failure(0.001, np.random.default_rng(0), max_time_s=100.0)

    def test_collect_builds_rttf_dataset(self, rngs):
        h = self._harness(rngs, sample_period_s=30.0)
        ds = h.collect([8.0, 16.0], 2, np.random.default_rng(2))
        assert len(ds) > 10
        assert ds.feature_names == FEATURE_NAMES
        # RTTF labels are positive and bounded by run length
        assert (ds.y >= 0).all()

    def test_collect_validation(self, rngs):
        h = self._harness(rngs)
        with pytest.raises(ValueError):
            h.collect([], 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            h.collect([1.0], 0, np.random.default_rng(0))

    def test_invalid_params(self, rngs):
        with pytest.raises(ValueError):
            self._harness(rngs, sample_period_s=0.0)
        h = self._harness(rngs)
        with pytest.raises(ValueError):
            h.run_to_failure(0.0, np.random.default_rng(0))


class TestOraclePredictor:
    def test_predicts_true_ttf(self, active_vm):
        active_vm.apply_load(600, 30.0)  # establishes last_request_rate
        oracle = OracleRttfPredictor()
        rttf = predict_one(oracle, active_vm)
        truth = active_vm.true_time_to_failure_s(active_vm.last_request_rate)
        assert rttf == pytest.approx(truth)

    def test_noise_requires_rng(self):
        with pytest.raises(ValueError):
            OracleRttfPredictor(noise_std=0.1)

    def test_noise_perturbs_but_stays_positive(self, active_vm):
        active_vm.apply_load(600, 30.0)
        noisy = OracleRttfPredictor(
            noise_std=0.5, rng=np.random.default_rng(0)
        )
        vals = [predict_one(noisy, active_vm) for _ in range(50)]
        assert all(v > 0 for v in vals)
        assert np.std(vals) > 0

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            OracleRttfPredictor(noise_std=-0.1)

    @pytest.mark.parametrize("mean_demand", [0.0, -1.0, float("nan"), float("inf")])
    def test_mean_demand_must_be_positive_and_finite(self, mean_demand):
        # 0 divides by zero at the first prediction, a negative value gives
        # negative service rates, NaN switches the SLA clause off
        with pytest.raises(ValueError, match="mean_demand"):
            OracleRttfPredictor(mean_demand=mean_demand)


class TestTrainedPredictor:
    @pytest.fixture(scope="class")
    def trained_model(self):
        """Train a REP-Tree on profiling traces from the private shape."""
        from repro.sim import RngRegistry
        from repro.workload import AnomalyInjector
        from repro.pcam import VirtualMachine

        rngs = RngRegistry(seed=99)
        counter = {"n": 0}

        def factory():
            counter["n"] += 1
            return VirtualMachine(
                f"train{counter['n']}",
                PRIVATE_SMALL,
                AnomalyInjector(
                    rngs.child(f"train{counter['n']}").stream("a")
                ),
            )

        harness = ProfilingHarness(factory, sample_period_s=25.0)
        ds = harness.collect([6.0, 12.0, 20.0], 3, np.random.default_rng(5))
        toolchain = F2PMToolchain(max_features=6, cv_folds=3)
        return toolchain.train_best(
            ds, np.random.default_rng(5), model_name="rep-tree"
        )

    def test_predicts_reasonable_rttf(self, trained_model, rngs):
        vm = build_vm(rngs, name="online")
        vm.activate()
        predictor = TrainedRttfPredictor(trained_model)
        vm.apply_load(300, 30.0)  # 10 req/s
        pred = predict_one(predictor, vm)
        truth = vm.true_time_to_failure_s(10.0)
        # learned model should land within a factor ~2 of the mean field
        assert truth * 0.3 < pred < truth * 3.0

    def test_prediction_decreases_as_vm_degrades(self, trained_model, rngs):
        vm = build_vm(rngs, name="degrading")
        vm.activate()
        predictor = TrainedRttfPredictor(trained_model)
        preds = []
        for _ in range(8):
            vm.apply_load(300, 30.0)
            if vm.state is not VmState.ACTIVE:
                break
            preds.append(predict_one(predictor, vm))
        assert preds[-1] < preds[0]

    def test_floor_clamps(self, trained_model, rngs):
        vm = build_vm(rngs, name="floored")
        vm.activate()
        predictor = TrainedRttfPredictor(trained_model, floor_s=100.0)
        assert predict_one(predictor, vm) >= 100.0

    def test_floor_validation(self, trained_model):
        with pytest.raises(ValueError):
            TrainedRttfPredictor(trained_model, floor_s=-1.0)
