"""Tests for the request-level DES region, including cross-validation
against the fluid model's queueing predictions."""

import numpy as np
import pytest

from repro.pcam.vm import VirtualMachine, VmState
from repro.sim import M3_MEDIUM, PRIVATE_SMALL, RngRegistry, Simulator
from repro.pcam import DesRegion, DesStats
from repro.workload import AnomalyInjector, BrowserPopulation
from repro.workload.browsers import closed_loop_rate


def make_region(n_vms=4, clients=40, itype=PRIVATE_SMALL, seed=1,
                leak_probability=0.10, thread_probability=0.05):
    rngs = RngRegistry(seed=seed)
    vms = []
    for i in range(n_vms):
        vm = VirtualMachine(
            f"des/vm{i}",
            itype,
            AnomalyInjector(
                rngs.child(f"vm{i}").stream("a"),
                leak_probability=leak_probability,
                thread_probability=thread_probability,
            ),
        )
        vm.activate()
        vms.append(vm)
    sim = Simulator()
    pop = BrowserPopulation(n_clients=clients, think_time_s=7.0)
    region = DesRegion(sim, vms, pop, rngs.stream("des"))
    return sim, region, vms


class TestDesMechanics:
    def test_requests_complete(self):
        _, region, _ = make_region()
        stats = region.run(300.0)
        assert stats.completed > 0
        assert stats.dropped == 0
        assert all(rt >= 0 for rt in stats.response_times)

    def test_throughput_matches_closed_loop_law(self):
        _, region, _ = make_region(n_vms=6, clients=60)
        duration = 800.0
        stats = region.run(duration)
        measured_rate = stats.completed / duration
        expected = closed_loop_rate(60, 7.0, stats.mean_response_time())
        assert measured_rate == pytest.approx(expected, rel=0.1)

    def test_anomalies_accumulate_on_vms(self):
        _, region, vms = make_region()
        region.run(600.0)
        assert sum(vm.leaked_mb for vm in vms) > 0
        assert sum(vm.total_requests for vm in vms) == region.stats.completed

    def test_anomaly_rate_matches_injection_probability(self):
        _, region, vms = make_region(n_vms=6, clients=60, seed=3)
        stats = region.run(800.0)
        threads = sum(vm.stuck_threads for vm in vms)
        # 5% of completed requests leave a stuck thread
        assert threads / stats.completed == pytest.approx(0.05, abs=0.015)

    def test_outage_drops_requests(self):
        sim, region, vms = make_region(n_vms=1, clients=10)
        vms[0].fail()
        stats = region.run(100.0)
        assert stats.dropped > 0
        assert stats.completed == 0

    def test_join_shortest_queue_balances(self):
        _, region, vms = make_region(n_vms=4, clients=80, seed=5)
        region.run(500.0)
        counts = np.array([vm.total_requests for vm in vms])
        assert counts.min() > 0.7 * counts.max()

    def test_deterministic_given_seed(self):
        _, r1, _ = make_region(seed=9)
        _, r2, _ = make_region(seed=9)
        s1 = r1.run(200.0)
        s2 = r2.run(200.0)
        assert s1.completed == s2.completed
        assert s1.response_times == s2.response_times

    def test_validation(self):
        sim, region, _ = make_region()
        with pytest.raises(ValueError):
            region.run(0.0)
        with pytest.raises(ValueError):
            DesRegion(sim, [], region.population, np.random.default_rng(0))

    def test_stats_empty(self):
        s = DesStats()
        assert np.isnan(s.mean_response_time())
        assert np.isnan(s.p95_response_time())


class TestFluidCrossValidation:
    """The DES and the fluid M/M/1 era model must agree on steady state."""

    def test_response_time_matches_mm1_prediction(self):
        # moderate load, negligible degradation horizon: compare the DES
        # mean response time with the healthy VM's analytic M/M/1 value
        n_vms, clients = 6, 60
        _, region, vms = make_region(
            n_vms=n_vms, clients=clients, itype=M3_MEDIUM, seed=7,
            leak_probability=0.0,  # freeze degradation for the comparison
            thread_probability=0.0,
        )
        stats = region.run(3000.0)
        measured = stats.mean_response_time()
        # fixed point of rate <-> response time for the fluid model
        rt = 0.05
        for _ in range(50):
            rate = closed_loop_rate(clients, 7.0, rt) / n_vms
            rt = vms[0].response_time_s(rate)
        assert measured == pytest.approx(rt, rel=0.35)

    def test_leak_accumulation_matches_mean_field(self):
        _, region, vms = make_region(n_vms=4, clients=40, seed=11)
        duration = 1500.0
        stats = region.run(duration)
        measured_leak = sum(vm.leaked_mb for vm in vms)
        expected_per_request = vms[0].injector.expected_leak_rate_mb(1.0)
        assert measured_leak == pytest.approx(
            stats.completed * expected_per_request, rel=0.1
        )

    def test_des_vms_eventually_fail_like_fluid_predicts(self):
        _, region, vms = make_region(n_vms=2, clients=60, seed=13)
        # fluid TTF at the initial per-VM rate
        rate = closed_loop_rate(60, 7.0, 0.1) / 2
        predicted = vms[0].true_time_to_failure_s(rate)
        region.run(predicted * 3)
        assert any(vm.state is VmState.FAILED for vm in vms)


class TestRateAccountingRegression:
    """Pins the per-run rate-accounting fix in :meth:`DesRegion.run`.

    ``run()`` used to divide the *cumulative* completion count by the
    *end-of-run* ACTIVE count, so repeated runs inflated
    ``last_request_rate`` without bound and mid-run failures inflated the
    per-survivor rate.  The parity harness flushed this out; ``run()``
    now snapshots the counters at run start.
    """

    def test_rate_uses_only_this_runs_completions(self):
        _, region, vms = make_region(
            n_vms=3, clients=30,
            leak_probability=0.0, thread_probability=0.0,
        )
        duration = 200.0
        region.run(duration)
        first = region.stats.completed
        region.run(duration)
        delta = region.stats.completed - first
        expected = delta / 3 / duration
        for vm in vms:
            assert vm.last_request_rate == pytest.approx(expected)
        # the pre-fix value (cumulative completions) must be
        # distinguishable, or this test would pass vacuously
        cumulative = region.stats.completed / 3 / duration
        assert abs(expected - cumulative) > 1e-9

    def test_rate_divides_by_start_of_run_active_count(self):
        _, region, vms = make_region(n_vms=4, clients=24, seed=2)
        # push one VM to the brink so its next leak crosses the budget
        vms[0].leaked_mb = vms[0].anomaly_budget_mb - 0.5
        duration = 300.0
        stats = region.run(duration)
        assert vms[0].state is VmState.FAILED
        survivors = [vm for vm in vms if vm.state is VmState.ACTIVE]
        assert len(survivors) == 3
        # rate is per *starting* ACTIVE VM (4): the failed VM served part
        # of the run, and dividing by the 3 survivors would overstate the
        # load each one saw
        expected = stats.completed / 4 / duration
        for vm in survivors:
            assert vm.last_request_rate == pytest.approx(expected)


class TestRepeatedRunKeepsOnePopulation:
    """Pins the browser-start fix in :meth:`DesRegion.run`.

    ``run()`` used to call ``start()`` every time, scheduling a fresh
    first request for all ``n_clients`` browsers on top of the ones still
    pending from the previous run: three runs served three populations
    (8 572 -> 16 966 -> 25 636 completions per run on this scenario).
    """

    def test_per_run_completions_and_pending_events_stay_flat(self):
        sim, region, _ = make_region(
            n_vms=3, clients=30,
            leak_probability=0.0, thread_probability=0.0,
        )
        per_run = []
        done = 0
        for _ in range(3):
            region.run(2000.0)
            per_run.append(region.stats.completed - done)
            done = region.stats.completed
            # closed loop: one think timer or completion per browser
            assert sim.pending_count == 30
        for n in per_run[1:]:
            assert n == pytest.approx(per_run[0], rel=0.10)

    def test_explicit_start_then_run_starts_once(self):
        sim, region, _ = make_region(n_vms=3, clients=30)
        region.start()
        assert sim.pending_count == 30
        region.run(100.0)
        assert sim.pending_count == 30
