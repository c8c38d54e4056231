"""Tests for the one-VM resource/lifecycle model.

They drive the scalar :class:`~tests.pcam.reference_vmc.ReferenceVm`, the
oracle the table kernels are held to (``test_columnar_parity.py``); the
pooled VM view is tested in ``test_state_table.py``.
"""

import numpy as np
import pytest

from repro.pcam import FailurePolicy, VmState
from repro.pcam.vm import BASELINE_MEMORY_MB, BASELINE_THREADS
from repro.sim import M3_MEDIUM, PRIVATE_SMALL

from .conftest import build_vm
from .reference_vmc import ReferenceVm, idle


class TestLifecycle:
    def test_activate_from_standby(self, standby_vm):
        standby_vm.activate()
        assert standby_vm.state is VmState.ACTIVE
        assert standby_vm.uptime_s == 0.0

    def test_activate_from_active_rejected(self, active_vm):
        with pytest.raises(RuntimeError, match="ACTIVATE"):
            active_vm.activate()

    def test_rejuvenation_cycle(self, active_vm):
        active_vm.leaked_mb = 100.0
        active_vm.stuck_threads = 5
        active_vm.start_rejuvenation()
        assert active_vm.state is VmState.REJUVENATING
        idle(active_vm, active_vm.rejuvenation_time_s)
        assert active_vm.state is VmState.STANDBY
        assert active_vm.leaked_mb == 0.0
        assert active_vm.stuck_threads == 0
        assert active_vm.rejuvenation_count == 1

    def test_rejuvenation_partial_progress(self, active_vm):
        active_vm.start_rejuvenation()
        idle(active_vm, active_vm.rejuvenation_time_s / 2)
        assert active_vm.state is VmState.REJUVENATING
        idle(active_vm, active_vm.rejuvenation_time_s)
        assert active_vm.state is VmState.STANDBY

    def test_instant_rejuvenation(self, rngs):
        vm = build_vm(rngs, rejuvenation_time_s=0.0, cls=ReferenceVm)
        vm.activate()
        vm.start_rejuvenation()
        assert vm.state is VmState.STANDBY

    def test_rejuvenate_from_standby_rejected(self, standby_vm):
        with pytest.raises(RuntimeError, match="REJUVENATE"):
            standby_vm.start_rejuvenation()

    def test_failed_vm_can_rejuvenate(self, active_vm):
        active_vm.fail()
        assert active_vm.state is VmState.FAILED
        assert active_vm.failure_count == 1
        active_vm.start_rejuvenation()
        assert active_vm.state is VmState.REJUVENATING

    def test_double_fail_counts_once(self, active_vm):
        active_vm.fail()
        active_vm.fail()
        assert active_vm.failure_count == 1

    def test_apply_load_requires_active(self, standby_vm):
        with pytest.raises(RuntimeError, match="apply_load"):
            standby_vm.apply_load(10, 1.0)


class TestResourcePressures:
    def test_fresh_vm_has_no_pressure(self, active_vm):
        assert active_vm.swap_pressure == 0.0
        assert active_vm.thread_pressure == 0.0
        assert active_vm.effective_capacity == pytest.approx(
            active_vm.itype.cpu_power
        )

    def test_leak_below_ram_no_swap(self, active_vm):
        active_vm.leaked_mb = active_vm.usable_memory_mb * 0.5
        assert active_vm.swap_used_mb == 0.0
        assert active_vm.swap_pressure == 0.0

    def test_leak_spills_into_swap(self, active_vm):
        active_vm.leaked_mb = active_vm.usable_memory_mb + 100.0
        assert active_vm.swap_used_mb == pytest.approx(100.0)
        assert 0 < active_vm.swap_pressure < 1

    def test_capacity_degrades_with_swap(self, active_vm):
        healthy = active_vm.effective_capacity
        active_vm.leaked_mb = active_vm.usable_memory_mb + active_vm.itype.swap_mb * 0.8
        assert active_vm.effective_capacity < healthy

    def test_capacity_degrades_with_threads(self, active_vm):
        healthy = active_vm.effective_capacity
        active_vm.stuck_threads = active_vm.itype.thread_slots // 2
        assert active_vm.effective_capacity < healthy

    def test_capacity_floor_positive(self, active_vm):
        active_vm.leaked_mb = active_vm.anomaly_budget_mb
        active_vm.stuck_threads = active_vm.itype.thread_slots * 2
        assert active_vm.effective_capacity > 0

    def test_response_time_grows_with_rate(self, active_vm):
        assert active_vm.response_time_s(20.0) > active_vm.response_time_s(1.0)

    def test_response_time_grows_with_degradation(self, active_vm):
        fresh = active_vm.response_time_s(10.0)
        active_vm.leaked_mb = active_vm.usable_memory_mb + active_vm.itype.swap_mb * 0.9
        assert active_vm.response_time_s(10.0) > fresh

    def test_response_time_finite_past_saturation(self, active_vm):
        assert np.isfinite(active_vm.response_time_s(1e6))

    def test_negative_rate_rejected(self, active_vm):
        with pytest.raises(ValueError):
            active_vm.response_time_s(-1.0)


class TestFailurePoint:
    def test_budget_exhaustion_trips(self, active_vm):
        active_vm.leaked_mb = active_vm.anomaly_budget_mb + 1.0
        assert active_vm.failure_point_reached()

    def test_thread_exhaustion_trips(self, active_vm):
        active_vm.stuck_threads = active_vm.itype.thread_slots
        assert active_vm.failure_point_reached()

    def test_sla_violation_trips(self, active_vm):
        active_vm.last_response_time_s = 2.0  # > 1 s SLA
        assert active_vm.failure_point_reached()

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            FailurePolicy(sla_response_time_s=0.0)
        # NaN compares False with every response time: it would switch the
        # SLA clause off without saying so
        with pytest.raises(ValueError):
            FailurePolicy(sla_response_time_s=float("nan"))

    def test_infinite_sla_turns_the_clause_off(self, active_vm):
        active_vm.failure_policy = FailurePolicy(sla_response_time_s=float("inf"))
        budget = active_vm.anomaly_budget_mb
        leak_rate = active_vm.injector.expected_leak_rate_mb(5.0)
        slots = active_vm.thread_free_slots
        thread_rate = active_vm.injector.expected_thread_rate(5.0)
        assert active_vm.true_time_to_failure_s(5.0) == min(
            budget / leak_rate, slots / thread_rate
        )
        active_vm.last_response_time_s = 1e300
        assert not active_vm.failure_point_reached()

    def test_apply_load_fails_vm_at_failure_point(self, active_vm):
        active_vm.leaked_mb = active_vm.anomaly_budget_mb - 0.1
        # enough requests that expected leak crosses the line
        active_vm.apply_load(1000, 10.0)
        assert active_vm.state is VmState.FAILED


class TestTrueTimeToFailure:
    def test_ttf_decreases_with_rate(self, active_vm):
        assert active_vm.true_time_to_failure_s(
            20.0
        ) < active_vm.true_time_to_failure_s(5.0)

    def test_zero_rate_infinite(self, active_vm):
        assert active_vm.true_time_to_failure_s(0.0) == float("inf")

    def test_ttf_state_restored_after_computation(self, active_vm):
        active_vm.leaked_mb = 50.0
        before = (active_vm.leaked_mb, active_vm.stuck_threads)
        active_vm.true_time_to_failure_s(10.0)
        assert (active_vm.leaked_mb, active_vm.stuck_threads) == before

    def test_ttf_shrinks_as_leaks_accumulate(self, active_vm):
        fresh = active_vm.true_time_to_failure_s(10.0)
        active_vm.leaked_mb = active_vm.anomaly_budget_mb * 0.5
        assert active_vm.true_time_to_failure_s(10.0) < fresh

    def test_bigger_instance_survives_longer(self, rngs):
        small = build_vm(rngs, "s", PRIVATE_SMALL, cls=ReferenceVm)
        big = build_vm(rngs, "b", M3_MEDIUM, cls=ReferenceVm)
        small.activate()
        big.activate()
        assert big.true_time_to_failure_s(5.0) > small.true_time_to_failure_s(5.0)

    def test_empirical_failure_near_mean_field_prediction(self, rngs):
        vm = build_vm(rngs, name="emp", cls=ReferenceVm)
        vm.activate()
        rate, dt = 10.0, 10.0
        predicted = vm.true_time_to_failure_s(rate)
        rng = np.random.default_rng(0)
        t = 0.0
        while vm.state is VmState.ACTIVE and t < predicted * 3:
            vm.apply_load(int(rng.poisson(rate * dt)), dt)
            t += dt
        assert vm.state is VmState.FAILED
        assert t == pytest.approx(predicted, rel=0.35)


class TestLoadApplication:
    def test_accumulates_anomalies_and_uptime(self, active_vm):
        active_vm.apply_load(1000, 30.0)
        assert active_vm.leaked_mb > 0
        assert active_vm.uptime_s == 30.0
        assert active_vm.total_requests == 1000
        assert active_vm.last_request_rate == pytest.approx(1000 / 30.0)

    def test_zero_requests_ok(self, active_vm):
        rt = active_vm.apply_load(0, 30.0)
        assert rt >= 0
        assert active_vm.leaked_mb == 0.0

    def test_input_validation(self, active_vm):
        with pytest.raises(ValueError):
            active_vm.apply_load(-1, 1.0)
        with pytest.raises(ValueError):
            active_vm.apply_load(1, 0.0)

    def test_idle_validation(self, active_vm):
        with pytest.raises(ValueError):
            idle(active_vm, -1.0)


class TestFeatureSampling:
    def test_fresh_sample_baseline(self, active_vm):
        fv = active_vm.sample_features()
        assert fv.mem_used_mb == pytest.approx(BASELINE_MEMORY_MB)
        assert fv.num_threads == BASELINE_THREADS
        assert fv.swap_used_mb == 0.0

    def test_sample_tracks_anomalies(self, active_vm):
        active_vm.apply_load(5000, 30.0)
        fv = active_vm.sample_features()
        assert fv.mem_used_mb > BASELINE_MEMORY_MB
        assert fv.num_threads > BASELINE_THREADS
        assert fv.uptime_s == 30.0
        assert fv.request_rate == pytest.approx(5000 / 30.0)

    def test_rejuvenation_time_validation(self, rngs):
        with pytest.raises(ValueError):
            build_vm(rngs, rejuvenation_time_s=-1.0)
