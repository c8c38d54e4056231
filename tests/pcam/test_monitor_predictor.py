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
from repro.sim import M3_MEDIUM, PRIVATE_SMALL

from .conftest import apply_load, build_vm, pooled_vm
from .reference_vmc import ReferenceVm, predict_one


def walk_to_failure(vm, request_rate, rng, dt, mean_demand=1.5):
    """The harness's run, one step at a time on a scalar VM: draw the
    step's requests, sample the features, apply the load."""
    vm.activate()
    times, rows = [], []
    t = 0.0
    while True:
        n = int(rng.poisson(request_rate * dt))
        times.append(t)
        rows.append(vm.sample_features().to_array())
        vm.apply_load(n, dt, mean_demand)
        t += dt
        if vm.state is VmState.FAILED:
            return np.asarray(times), np.vstack(rows), t


class TestProfilingHarness:
    @pytest.mark.parametrize("itype", [PRIVATE_SMALL, M3_MEDIUM])
    @pytest.mark.parametrize("rate", [1.0, 5.0, 26.0])
    def test_runs_equal_a_step_by_step_walk(self, rngs, itype, rate):
        """Runs stepped in blocks on a table are the walk's, bit for bit,
        and leave the shared arrival stream where the walk leaves it."""
        harness = ProfilingHarness(
            lambda: build_vm(rngs, "p", itype), sample_period_s=10.0
        )
        block_rng, walk_rng = (np.random.default_rng(6) for _ in range(2))
        for _ in range(3):
            times, rows, t_fail = harness.run_to_failure(rate, block_rng)
            want = walk_to_failure(
                build_vm(rngs, "p", itype, cls=ReferenceVm), rate, walk_rng,
                10.0,
            )
            assert times.tolist() == want[0].tolist()
            assert rows.tolist() == want[1].tolist()
            assert t_fail == want[2]
            assert block_rng.bit_generator.state == walk_rng.bit_generator.state


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
    def test_predicts_true_ttf(self, rngs, active_vm):
        # a pooled VM and a scalar one on the same anomaly stream
        vm = pooled_vm(rngs, name=active_vm.name)
        apply_load(vm, 600, 30.0)  # establishes last_request_rate
        active_vm.apply_load(600, 30.0)
        rttf = predict_one(OracleRttfPredictor(), vm)
        truth = active_vm.true_time_to_failure_s(active_vm.last_request_rate)
        assert rttf == truth

    def test_noise_requires_rng(self):
        with pytest.raises(ValueError):
            OracleRttfPredictor(noise_std=0.1)

    def test_noise_perturbs_but_stays_positive(self, rngs):
        vm = pooled_vm(rngs)
        apply_load(vm, 600, 30.0)
        noisy = OracleRttfPredictor(
            noise_std=0.5, rng=np.random.default_rng(0)
        )
        vals = [predict_one(noisy, vm) for _ in range(50)]
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
        vm = build_vm(rngs, name="online", cls=ReferenceVm)
        vm.activate()
        predictor = TrainedRttfPredictor(trained_model)
        vm.apply_load(300, 30.0)  # 10 req/s
        pred = predict_one(predictor, vm)
        truth = vm.true_time_to_failure_s(10.0)
        # learned model should land within a factor ~2 of the mean field
        assert truth * 0.3 < pred < truth * 3.0

    def test_prediction_decreases_as_vm_degrades(self, trained_model, rngs):
        vm = build_vm(rngs, name="degrading", cls=ReferenceVm)
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
        vm = build_vm(rngs, name="floored", cls=ReferenceVm)
        vm.activate()
        predictor = TrainedRttfPredictor(trained_model, floor_s=100.0)
        assert predict_one(predictor, vm) >= 100.0

    def test_floor_validation(self, trained_model):
        with pytest.raises(ValueError):
            TrainedRttfPredictor(trained_model, floor_s=-1.0)
