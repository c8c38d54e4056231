"""Cross-validation of the fluid era model against the request-level DES.

The fluid loop batches each era's requests through closed-form queueing
and mean-field anomaly laws; :class:`~repro.core.des_loop.DesControlLoop`
serves the same deployment one request at a time.  Where their
assumptions overlap the two must agree: a one-region DES loop (every VM
ACTIVE, no proactive swaps, the uniform policy) is held here to the
closed-loop throughput law, the M/M/1 fixed point, the injection
probabilities and the fluid time to failure.

The leader's report rule is checked here too: like the fluid leader, the
DES leader drops non-finite RMTTF reports instead of folding them into
Eq. (1) and the policy.
"""

import math

import numpy as np
import pytest

from repro.chaos.predictor import CorruptiblePredictor
from repro.core import get_policy
from repro.core.des_loop import DesControlLoop
from repro.pcam import OracleRttfPredictor, VirtualMachine
from repro.pcam.vm import fresh_ttf_s
from repro.sim import M3_MEDIUM, PRIVATE_SMALL, RngRegistry
from repro.workload import AnomalyInjector, BrowserPopulation
from repro.workload.browsers import THINK_TIME_S, closed_loop_rate

from ..pcam.reference_vmc import mm1_response_time_s


def make_loop(n_vms=4, clients=40, itype=PRIVATE_SMALL, seed=1,
              leak_probability=0.10, thread_probability=0.05,
              policy="uniform", predictor=None):
    """One region ``r`` whose whole pool is ACTIVE (no standbys)."""
    rngs = RngRegistry(seed=seed)
    vms = [
        VirtualMachine(
            f"r/vm{i}",
            itype,
            AnomalyInjector(
                rngs.child(f"vm{i}").stream("a"),
                leak_probability=leak_probability,
            ),
        )
        for i in range(n_vms)
    ]
    for vm in vms:
        vm.injector.thread_probability = thread_probability
    population = BrowserPopulation(n_clients=clients)
    loop = DesControlLoop(
        {"r": (vms, population, n_vms)},
        get_policy(policy),
        predictor if predictor is not None else OracleRttfPredictor(),
        rngs,
        rttf_threshold_s=0.0,
    )
    return loop, vms


def run_for(loop, duration_s):
    """Run whole eras covering ``duration_s``; returns the time run."""
    n_eras = math.ceil(duration_s / loop.era_s)
    loop.run(n_eras)
    return n_eras * loop.era_s


def completed_and_mean_rt(loop):
    """Completions and their mean response time, from the era traces."""
    completed = loop.traces.series("completed/r").values
    mean_rt = loop.traces.series("response_time/r").values
    total = completed.sum()
    return total, float((completed * mean_rt).sum() / total)


def nan_predictor():
    """An oracle behind a corruptible predictor in its ``"nan"`` mode."""
    corruptible = CorruptiblePredictor(OracleRttfPredictor())
    corruptible.set_mode("nan")
    return corruptible

class TestFluidCrossValidation:
    def test_throughput_matches_closed_loop_law(self):
        loop, _ = make_loop(n_vms=6, clients=60)
        duration = run_for(loop, 800.0)
        completed, mean_rt = completed_and_mean_rt(loop)
        expected = closed_loop_rate(60, THINK_TIME_S, mean_rt)
        assert completed / duration == pytest.approx(expected, rel=0.1)

    def test_response_time_matches_mm1_prediction(self):
        # moderate load, degradation frozen: the DES mean response time
        # against the healthy VM's M/M/1 value at the fluid fixed point
        n_vms, clients = 6, 60
        loop, vms = make_loop(
            n_vms=n_vms, clients=clients, itype=M3_MEDIUM, seed=7,
            leak_probability=0.0, thread_probability=0.0,
        )
        run_for(loop, 3000.0)
        _, measured = completed_and_mean_rt(loop)
        rt = 0.05
        for _ in range(50):
            rate = closed_loop_rate(clients, THINK_TIME_S, rt) / n_vms
            rt = mm1_response_time_s(M3_MEDIUM.cpu_power, rate, 1.5)
        assert measured == pytest.approx(rt, rel=0.35)

    def test_stuck_thread_share_matches_injection_probability(self):
        loop, vms = make_loop(n_vms=6, clients=60, seed=3)
        run_for(loop, 800.0)
        completed, _ = completed_and_mean_rt(loop)
        threads = sum(vm.stuck_threads for vm in vms)
        # 5 % of completed requests leave a stuck thread
        assert threads / completed == pytest.approx(0.05, abs=0.015)

    def test_leak_accumulation_matches_mean_field(self):
        loop, vms = make_loop(n_vms=4, clients=40, seed=11)
        run_for(loop, 1500.0)
        completed, _ = completed_and_mean_rt(loop)
        # a VM that fails is swapped and starts clean, taking its leak
        # with it (once on this seed); the tolerance absorbs that
        measured = sum(vm.leaked_mb for vm in vms)
        per_request = vms[0].injector.expected_leak_rate_mb(1.0)
        assert measured == pytest.approx(completed * per_request, rel=0.1)

    def test_vms_fail_within_the_fluid_time_to_failure(self):
        loop, vms = make_loop(n_vms=2, clients=60, seed=13)
        # fluid TTF at the initial per-VM rate
        rate = closed_loop_rate(60, THINK_TIME_S, 0.1) / 2
        vm = vms[0]
        predicted = fresh_ttf_s(
            vm.itype, vm.failure_policy, vm.injector, rate, 1.5
        )
        run_for(loop, 3 * predicted)
        assert loop.total_failures > 0


class TestNonFiniteReports:
    """The DES leader drops non-finite reports, as the fluid leader does.

    A region whose VMs never degrade has an oracle RTTF of ``inf``, and a
    diverged model reports ``NaN``; either used to reach
    ``compute_fractions`` and raise ``fractions contain non-finite
    values``.
    """

    @staticmethod
    def _quiet_loop(predictor):
        return make_loop(
            n_vms=6, clients=60, itype=M3_MEDIUM,
            leak_probability=0.0, thread_probability=0.0,
            policy="available-resources", predictor=predictor,
        )[0]

    @pytest.mark.parametrize(
        "predictor",
        [
            OracleRttfPredictor(),
            nan_predictor(),
        ],
        ids=["oracle-inf", "corrupted-nan"],
    )
    def test_never_heard_region_is_planned_at_zero(self, predictor):
        loop = self._quiet_loop(predictor)
        assert loop.run(2) == {}
        assert np.isfinite(loop.leader.fractions).all()
        assert loop.leader.fractions.sum() == pytest.approx(1.0)
        rmttf = loop.traces.series("rmttf/r").values
        assert rmttf.tolist() == [0.0, 0.0]

    def test_a_non_finite_report_keeps_the_last_finite_state(self):
        predictor = CorruptiblePredictor(OracleRttfPredictor())
        loop, _ = make_loop(n_vms=6, clients=60, predictor=predictor,
                            policy="available-resources")
        loop.run(2)
        held = loop.leader.aggregator.snapshot()["r"]
        assert np.isfinite(held) and held > 0
        predictor.set_mode("nan")
        loop.run(2)
        assert loop.leader.aggregator.snapshot()["r"] == held
        assert loop.traces.series("rmttf/r").values[-1] == held
        assert np.isfinite(loop.leader.fractions).all()
