"""Property-based tests for the VM physics model.

The policy dynamics rest on a handful of monotonicity properties of the
VM model; if any of these breaks, the reproduction's conclusions become
artefacts.  Hypothesis sweeps the state space of the scalar
:class:`~tests.pcam.reference_vmc.ReferenceVm`, which the table kernels
equal bit for bit (``test_columnar_parity.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import INSTANCE_CATALOG, RngRegistry
from repro.workload import AnomalyInjector

from .reference_vmc import ReferenceVm

SHAPES = sorted(INSTANCE_CATALOG)


def make_vm(shape, leaked=0.0, threads=0):
    rngs = RngRegistry(seed=1)
    vm = ReferenceVm(
        "prop/vm",
        INSTANCE_CATALOG[shape],
        AnomalyInjector(rngs.stream("a")),
    )
    vm.activate()
    vm.leaked_mb = leaked
    vm.stuck_threads = threads
    return vm


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    r1=st.floats(0.1, 50.0),
    r2=st.floats(0.1, 50.0),
)
def test_response_time_monotone_in_rate(shape, r1, r2):
    vm = make_vm(shape)
    lo, hi = sorted((r1, r2))
    assert vm.response_time_s(lo) <= vm.response_time_s(hi) + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    leak_fraction=st.floats(0.0, 1.0),
    thread_fraction=st.floats(0.0, 1.0),
)
def test_effective_capacity_never_exceeds_nameplate(
    shape, leak_fraction, thread_fraction
):
    vm = make_vm(shape)
    vm.leaked_mb = leak_fraction * vm.anomaly_budget_mb
    vm.stuck_threads = int(thread_fraction * vm.itype.thread_slots)
    assert 0 < vm.effective_capacity <= vm.itype.cpu_power + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    a=st.floats(0.0, 1.0),
    b=st.floats(0.0, 1.0),
)
def test_capacity_monotone_in_leak(shape, a, b):
    lo, hi = sorted((a, b))
    vm_lo = make_vm(shape)
    vm_hi = make_vm(shape)
    vm_lo.leaked_mb = lo * vm_lo.anomaly_budget_mb
    vm_hi.leaked_mb = hi * vm_hi.anomaly_budget_mb
    assert vm_hi.effective_capacity <= vm_lo.effective_capacity + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    rate=st.floats(1.0, 30.0),
    leak_fraction=st.floats(0.0, 0.8),
)
def test_ttf_decreasing_in_accumulated_leak(shape, rate, leak_fraction):
    fresh = make_vm(shape)
    worn = make_vm(shape, leaked=leak_fraction * fresh.anomaly_budget_mb)
    assert (
        worn.true_time_to_failure_s(rate)
        <= fresh.true_time_to_failure_s(rate) + 1e-4
    )


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    r1=st.floats(1.0, 30.0),
    r2=st.floats(1.0, 30.0),
)
def test_ttf_decreasing_in_rate(shape, r1, r2):
    lo, hi = sorted((r1, r2))
    vm = make_vm(shape)
    assert (
        vm.true_time_to_failure_s(hi)
        <= vm.true_time_to_failure_s(lo) + 1e-9
    )


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    n=st.integers(0, 5000),
)
def test_failure_point_consistent_with_budget(shape, n):
    """After any load, either the budget holds or the VM is FAILED."""
    vm = make_vm(shape)
    vm.apply_load(n, 60.0)
    if vm.leaked_mb >= vm.anomaly_budget_mb or vm.thread_pressure >= 1.0:
        assert vm.state.value == "failed"


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(SHAPES), n=st.integers(0, 2000))
def test_feature_sample_always_valid(shape, n):
    vm = make_vm(shape)
    vm.apply_load(n, 60.0)
    row = vm.sample_features().to_array()
    assert np.all(np.isfinite(row))
    fv = vm.sample_features()
    assert fv.mem_used_mb >= 0
    assert fv.mem_free_mb >= 0
    assert fv.cpu_idle_pct >= 0
    assert fv.num_threads >= 0
