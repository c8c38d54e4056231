"""Row-path behaviour of the corruptible predictor."""

import numpy as np
import pytest

import repro.experiments.runner as runner_module
from repro.chaos.predictor import CorruptiblePredictor
from repro.experiments import make_trained_predictor
from repro.pcam.predictor import OracleRttfPredictor
from repro.pcam.state_table import VmStateTable
from repro.pcam.vm import VirtualMachine, VmState
from repro.sim import PRIVATE_SMALL, RngRegistry
from repro.workload import AnomalyInjector

from ..pcam.conftest import apply_load
from ..pcam.reference_vmc import predict_one, predict_rows


def profiled_every_15s(*args, **kwargs):
    """:func:`make_trained_predictor` with its profiling runs sampled
    every 15 s (``runner.SAMPLE_PERIOD_S`` patched for the call)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner_module, "SAMPLE_PERIOD_S", 15.0)
        return make_trained_predictor(*args, **kwargs)


def make_vms(n=3, seed=17):
    rngs = RngRegistry(seed=seed)
    vms = [
        VirtualMachine(
            f"vm{i}",
            PRIVATE_SMALL,
            AnomalyInjector(rngs.child(f"vm{i}").stream("anomalies")),
            state=VmState.ACTIVE,
        )
        for i in range(n)
    ]
    VmStateTable(vms)
    for i, vm in enumerate(vms):
        for _ in range(1 + i % 3):
            apply_load(vm, 60 + 20 * i, 30.0)
    return vms


class TestCorruptibleBatch:
    def test_off_mode_batch_matches_inner_and_caches(self):
        vms = make_vms()
        pred = CorruptiblePredictor(OracleRttfPredictor())
        batch = predict_rows(pred, vms)
        np.testing.assert_allclose(
            batch, predict_rows(OracleRttfPredictor(), vms)
        )
        # healthy predictions seed the stale cache
        pred.set_mode("stale")
        np.testing.assert_allclose(predict_rows(pred, vms), batch)

    def test_nan_and_zero_modes_corrupt_the_batch(self):
        vms = make_vms()
        pred = CorruptiblePredictor(OracleRttfPredictor())
        pred.set_mode("nan")
        assert np.isnan(predict_rows(pred, vms)).all()
        pred.set_mode("zero")
        np.testing.assert_array_equal(
            predict_rows(pred, vms), np.zeros(len(vms))
        )


@pytest.fixture(scope="module")
def reptree():
    return profiled_every_15s(
        ["private.small"],
        seed=3,
        profile_rates=(4.0, 8.0, 16.0),
        runs_per_rate=2,
    )


@pytest.mark.parametrize("inner_kind", ["noisy-oracle", "rep-tree"])
def test_stale_mode_equals_one_row_calls_in_pool_order(inner_kind, reptree):
    """A stale pooled call serves each cached VM its healthy value and asks
    the inner predictor about the rest exactly as one one-row call per
    VM, in pool order, would: same values, same RNG draws."""

    def make_inner(seed):
        if inner_kind == "rep-tree":
            return reptree
        rng = np.random.default_rng(seed)
        return OracleRttfPredictor(noise_std=0.3, rng=rng)

    vms = make_vms(n=7)
    cached = [vms[k] for k in (1, 2, 5)]
    pred = CorruptiblePredictor(make_inner(4))
    twin = make_inner(4)

    healthy = predict_rows(pred, cached)
    assert healthy.tolist() == [predict_one(twin, vm) for vm in cached]

    pred.set_mode("stale")
    for vm in vms:
        apply_load(vm, 90, 30.0)  # the state moves on; cached answers do not
    last = dict(zip((vm.name for vm in cached), healthy.tolist()))
    want = [
        last[vm.name] if vm.name in last else predict_one(twin, vm)
        for vm in vms
    ]
    assert predict_rows(pred, vms).tolist() == want
    if inner_kind == "noisy-oracle":
        assert (
            pred.inner._rng.bit_generator.state
            == twin._rng.bit_generator.state
        )
    # stale answers are never cached: the next stale call asks again
    assert set(pred._last) == set(last)
