"""Regression tests for the DES-loop correctness sweep.

Each test pins one of the bugs fixed alongside the hot-path
vectorisation:

* ``_forward_latency_s`` swallowed *every* exception (now only
  :class:`~repro.overlay.routing.NoRouteError`) and hid partitions (now
  traced as ``forward_fallback/<region>``);
* routing crashed on a forward-plan row driven to zero (NaN
  probabilities in ``rng.choice``; the draw now lives in
  :class:`~repro.core.forward_plan.PlanTable`);
* per-era accounting divided the per-VM request rate by the
  *end-of-era* active count, excluding VMs that failed mid-era;
* an idle era fed a fabricated load ``max(lam, 1e-9)`` into
  ``POLICY()`` instead of holding the previous fractions.
"""

import numpy as np
import pytest

from repro.core import get_policy
from repro.core.des_loop import FORWARD_FALLBACK_PENALTY_S, DesControlLoop
from repro.overlay import OverlayNetwork
from repro.pcam import OracleRttfPredictor, VirtualMachine, VmState
from repro.sim import M3_MEDIUM, PRIVATE_SMALL, RngRegistry
from repro.workload import AnomalyInjector, BrowserPopulation

from ..pcam.conftest import set_load


def build_loop(policy="available-resources", seed=5, clients=(80, 48),
               think_time_s=7.0, **kwargs):
    rngs = RngRegistry(seed=seed)

    def pool(name, itype, n):
        return [
            VirtualMachine(
                f"{name}/vm{i}",
                itype,
                AnomalyInjector(rngs.child(f"{name}{i}").stream("a")),
            )
            for i in range(n)
        ]

    regions = {
        "r1": (pool("r1", M3_MEDIUM, 6),
               BrowserPopulation(n_clients=clients[0],
                                 think_time_s=think_time_s), 4),
        "r3": (pool("r3", PRIVATE_SMALL, 4),
               BrowserPopulation(n_clients=clients[1],
                                 think_time_s=think_time_s), 3),
    }
    return DesControlLoop(
        regions,
        get_policy(policy) if isinstance(policy, str) else policy,
        OracleRttfPredictor(),
        rngs,
        **kwargs,
    )


def two_region_overlay(latency_ms=20.0):
    overlay = OverlayNetwork()
    overlay.add_node("r1")
    overlay.add_node("r3")
    overlay.add_link("r1", "r3", latency_ms)
    return overlay


class TestForwardLatencyFallback:
    def test_partition_records_forward_fallback_trace(self):
        overlay = two_region_overlay()
        loop = build_loop("uniform", seed=22, clients=(120, 72),
                          overlay=overlay)
        loop.run(3)
        assert loop.total_forward_fallbacks == 0
        overlay.fail_link("r1", "r3")
        loop.run(3)
        # partitioned forwards absorbed the penalty *and* left a trace
        assert loop.total_forward_fallbacks > 0
        fallbacks = loop.traces.matching("forward_fallback/")
        assert fallbacks, "partition left no forward_fallback trace"
        n_traced = sum(len(s) for s in fallbacks.values())
        assert n_traced == loop.total_forward_fallbacks

    def test_fallbacks_start_at_the_cut_and_stop_at_the_heal(self):
        """The overlay is mutated directly, mid-run; the loop's router is
        the loop's own business and nobody tells it anything."""
        overlay = two_region_overlay()
        loop = build_loop("uniform", seed=22, clients=(120, 72),
                          overlay=overlay)
        loop.run(3)
        overlay.fail_link("r1", "r3")
        loop.run(3)
        cut_s, heal_s = 3 * loop.era_s, loop.sim.now
        overlay.restore_link("r1", "r3")
        loop.run(3)
        fallbacks = loop.traces.matching("forward_fallback/")
        assert fallbacks, "the cut left no forward_fallback/<region> trace"
        for series in fallbacks.values():
            assert all(cut_s <= t <= heal_s for t in series.times)

    def test_partition_penalty_value(self):
        overlay = two_region_overlay()
        overlay.fail_link("r1", "r3")
        loop = build_loop("uniform", seed=22, overlay=overlay)
        assert (
            loop._forward_latency_s("r1", "r3")
            == FORWARD_FALLBACK_PENALTY_S
        )

    def test_non_routing_errors_propagate(self):
        loop = build_loop("uniform", seed=23, clients=(120, 72),
                          overlay=two_region_overlay())

        def boom(src, dst):
            raise ValueError("router invariant broken")

        loop.leader.router.latency = boom
        with pytest.raises(ValueError, match="router invariant broken"):
            loop.run(3)


class TestZeroSumPlanRow:
    def test_zero_row_routes_locally(self):
        loop = build_loop(seed=7)
        i = loop.region_names.index("r1")
        n = len(loop.region_names)
        loop._plan.install_row(i, np.zeros(n))  # plan caught mid-update
        for u in (0.0, 0.3, 0.999):
            assert loop._plan.route(i, u) == i

    def test_zero_row_loop_keeps_serving(self):
        loop = build_loop(seed=7)
        loop.run(1)
        n = len(loop.region_names)
        for i in range(n):
            loop._plan.install_row(i, np.zeros(n))
        fired_before = loop.sim.fired_count
        loop.run(2)  # must not crash sampling NaN probabilities
        assert loop.era_index == 3
        assert loop.sim.fired_count > fired_before

    def test_routing_reads_installed_snapshot(self):
        """Mutating the live matrix without installing has no effect:
        routing samples an immutable CDF snapshot, so a plan can never
        be observed half-updated."""
        loop = build_loop(seed=7)
        n = len(loop.region_names)
        draws = np.linspace(0.0, 1.0, 64, endpoint=False)

        def routes():
            return [loop._plan.route(i, u) for i in range(n) for u in draws]

        before = routes()
        assert len(set(before)) > 1  # the plan really forwards
        loop._plan.matrix[:, :] = 0.0
        assert routes() == before


class TestMidEraFailureAccounting:
    def test_rate_divisor_counts_failed_vm(self):
        loop = build_loop(seed=11, clients=(120, 72))
        state = loop._states["r1"]
        victim = state.vms[state.active_slots[0]]
        # poison the victim so that its next completion trips the
        # failure point mid-era (swap exhaustion)
        budget = victim.table.anomaly_budget_mb[victim.row]
        set_load(victim, leaked_mb=budget - 0.5)
        assert state.era_active_start == 4
        loop.run(1)
        assert victim.failure_count == 1, "victim should fail mid-era"
        completed = loop.traces.series("completed/r1").values[-1]
        assert completed > 0
        # the three survivors served the era alongside the victim: the
        # rate must be divided by the 4 VMs that started the era, not
        # the 3 that finished it
        expected = completed / 4 / loop.era_s
        wrong = completed / 3 / loop.era_s
        survivors = [vm for vm in state.vms
                     if vm is not victim and vm.last_request_rate > 0]
        assert survivors
        for vm in survivors:
            assert vm.last_request_rate == expected
            assert vm.last_request_rate != wrong

    def test_divisor_resets_each_era(self):
        loop = build_loop(seed=11)
        loop.run(3)
        for name, state in loop._states.items():
            assert state.era_active_start == loop.vmcs[name].target_active


class _SpyPolicy:
    """Delegating policy that counts ``compute`` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.seen_lams: list[float] = []

    def initial_fractions(self, n):
        return self.inner.initial_fractions(n)

    def compute(self, fractions, rmttf, lam):
        self.calls += 1
        self.seen_lams.append(float(lam))
        return self.inner.compute(fractions, rmttf, lam)


class TestIdleEraHoldsFractions:
    def test_idle_era_skips_policy(self):
        spy = _SpyPolicy(get_policy("available-resources"))
        # think times around 1e9 s: no request completes within 30 s eras
        loop = build_loop(spy, seed=3, think_time_s=1e9)
        initial = loop.leader.fractions.copy()
        loop.run(3)
        assert spy.calls == 0
        assert np.array_equal(loop.leader.fractions, initial)
        # fractions are still traced (held) every era
        assert len(loop.traces.series("fraction/r1")) == 3

    def test_busy_era_sees_true_load_not_floor(self):
        spy = _SpyPolicy(get_policy("available-resources"))
        loop = build_loop(spy, seed=3)
        loop.run(2)
        assert spy.calls == 2
        assert all(lam > 1.0 for lam in spy.seen_lams)


class TestStaleCompletionLifeGate:
    """Pins the per-slot incarnation gate in :meth:`DesControlLoop._complete`.

    A completion can fire after its slot's VM was rejuvenated (queued
    before the era boundary, finishing after the swap).  Pre-fix, the
    ACTIVE-state check alone let such stale completions through whenever
    the slot had already been re-activated -- with ``rejuvenation_time_s``
    of zero or short eras, a request issued to the *previous* incarnation
    injected anomalies into the *fresh* VM.  The ``_RegionState.life``
    counter now stamps every issued request and drops mismatches.
    """

    def test_stale_completion_does_not_mutate_fresh_vm(self):
        loop = build_loop()
        state = loop._states["r1"]
        slot = state.active_slots[0]
        vm = state.vms[slot]
        # a request is in flight against the current incarnation...
        state.in_flight[slot] += 1
        issued_life = int(state.life[slot])
        # ...then the era boundary rejuvenates + reactivates the slot,
        # bumping its incarnation counter
        state.life[slot] += 1
        before = (vm.total_requests, vm.leaked_mb, vm.stuck_threads)
        loop._complete(0, 0, slot, issued_life, t_start=0.0, extra=0.0)
        assert (vm.total_requests, vm.leaked_mb, vm.stuck_threads) == before
        assert state.era_failures == 0

    def test_current_life_completion_still_counts(self):
        loop = build_loop()
        state = loop._states["r1"]
        slot = state.active_slots[0]
        vm = state.vms[slot]
        state.in_flight[slot] += 1
        before = vm.total_requests
        loop._complete(0, 0, slot, int(state.life[slot]),
                       t_start=0.0, extra=0.0)
        assert vm.total_requests == before + 1

    def test_rejuvenation_bumps_slot_life(self):
        # end-to-end: every proactive/reactive swap at the era boundary
        # must advance the slot's incarnation counter
        loop = build_loop(seed=9, clients=(160, 96), think_time_s=3.0)
        for _ in range(20):
            loop.run_era()
        if loop.total_rejuvenations == 0:
            pytest.skip("scenario triggered no swaps")
        lifes = np.concatenate(
            [loop._states[r].life for r in loop.region_names]
        )
        assert int(lifes.sum()) == loop.total_rejuvenations


class TestRegionsRunTheVmc:
    """The era boundary is ``VirtualMachineController.close_era``: the DES
    loop keeps no PCAM copy, so its counters, events and life gate are
    the VMC's and the state table's."""

    def test_counters_events_and_totals_agree(self):
        from repro.obs.telemetry import Telemetry

        tel = Telemetry(enabled=True)
        loop = build_loop(
            seed=9, clients=(160, 96), think_time_s=3.0, telemetry=tel
        )
        loop.run(20)
        assert loop.total_rejuvenations > loop.total_failures > 0
        snap = tel.snapshot()

        def counted(name):
            return sum(
                c["value"]
                for c in snap["metrics"]["counters"]
                if c["name"] == name
            )

        assert counted("rejuvenations_total") == loop.total_rejuvenations
        assert counted("vm_failures_total") == loop.total_failures
        # one emitter: a failure is reported once, when its era closes
        failures = [
            e for e in snap["events"]["events"] if e["kind"] == "vm.failure"
        ]
        assert len(failures) == loop.total_failures
        swaps = tel.tracer.by_kind("rejuvenation")
        assert len(swaps) == loop.total_rejuvenations
        for span in swaps:
            assert span.name.startswith("rejuvenate ")
            assert span.args["region"] in loop.vmcs
            assert span.args["reason"] in {"at_risk", "failed"}

    def test_out_of_band_rejuvenation_invalidates_older_completions(self):
        # a rejuvenation the loop did not order (chaos, an operator)
        # between two eras is a new life all the same: the gate is the
        # table's rejuvenation_count, not a counter the loop bumps itself
        loop = build_loop()
        loop.run(1)
        state = loop._states["r1"]
        slot = state.active_slots[0]
        vm = state.vms[slot]
        state.in_flight[slot] += 1
        issued_life = state.life[slot]
        row = np.array([vm.row])
        vm.table.rejuvenation_time_s[row] = 0.0  # back in STANDBY at once
        vm.table.start_rejuvenation(row)
        loop.run(1)  # the boundary backfills the slot: same VM, new life
        assert vm.state is VmState.ACTIVE
        assert state.life[slot] == issued_life + 1
        before = (vm.total_requests, vm.leaked_mb, vm.stuck_threads)
        loop._complete(0, 0, slot, issued_life, t_start=0.0, extra=0.0)
        assert (vm.total_requests, vm.leaked_mb, vm.stuck_threads) == before
