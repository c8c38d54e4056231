"""Tests for the local balancer and the Virtual Machine Controller."""

import math

import numpy as np
import pytest

from repro.pcam import (
    LocalBalancer,
    OracleRttfPredictor,
    VirtualMachineController,
    VmcConfig,
    VmState,
)
from repro.pcam.balancer import largest_remainder_split
from repro.pcam.state_table import VmStateTable
from repro.sim import M3_MEDIUM, PRIVATE_SMALL

from .conftest import set_load
from .reference_vmc import RecordingPredictor


class TestLargestRemainder:
    def test_conserves_total(self):
        out = largest_remainder_split(100, np.array([1.0, 2.0, 3.0]))
        assert out.sum() == 100

    def test_exact_proportions_when_divisible(self):
        out = largest_remainder_split(60, np.array([1.0, 2.0, 3.0]))
        assert list(out) == [10, 20, 30]

    def test_zero_total(self):
        out = largest_remainder_split(0, np.array([1.0, 1.0]))
        assert list(out) == [0, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            largest_remainder_split(-1, np.array([1.0]))
        with pytest.raises(ValueError):
            largest_remainder_split(1, np.array([]))
        with pytest.raises(ValueError):
            largest_remainder_split(1, np.array([-1.0, 1.0]))
        with pytest.raises(ValueError):
            largest_remainder_split(1, np.array([0.0]))

    @pytest.mark.parametrize(
        "weights",
        [[1.0, np.nan], [np.nan, 1.0], [1.0, np.inf], [np.inf, np.inf],
         [1e308, 1e308]],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_weights_refused(self, weights):
        # these once floored NaN shares into INT64_MIN counts
        with pytest.raises(ValueError):
            largest_remainder_split(10, np.array(weights))
        with pytest.raises(ValueError):
            LocalBalancer().split_counts(10, np.array(weights))

    def test_ties_go_to_the_lowest_index(self):
        assert list(largest_remainder_split(1, np.ones(3))) == [1, 0, 0]
        assert list(largest_remainder_split(2, np.ones(3))) == [1, 1, 0]
        assert list(
            largest_remainder_split(2, np.array([1.0, 0.0, 1.0, 1.0]))
        ) == [1, 0, 1, 0]

    def test_matches_pure_python_hamilton(self):
        rng = np.random.default_rng(17)
        for _ in range(400):
            n = int(rng.integers(1, 13))
            # small integers: many ties and zeros, and exact float sums
            weights = rng.integers(0, 4, size=n).astype(float)
            if weights.sum() == 0:
                weights[int(rng.integers(n))] = 1.0
            total = int(rng.integers(0, 200))
            counts, exact = _hamilton(total, weights.tolist())
            out = largest_remainder_split(total, weights)
            assert out.tolist() == counts
            assert sum(counts) == total
            assert all(abs(c - e) < 1 for c, e in zip(counts, exact))


def _hamilton(total, weights):
    """Hamilton's method on Python floats; a tie goes to the lower index."""
    s = sum(weights)
    exact = [total * w / s for w in weights]
    counts = [math.floor(e) for e in exact]
    by_remainder = sorted(
        range(len(weights)), key=lambda i: (counts[i] - exact[i], i)
    )
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts, exact


def split(balancer, n_requests, vms):
    """``balancer``'s name -> count split of ``n_requests`` over ``vms``
    (adopted here unless a test's table already holds them), read from
    their state table the way the VMC reads it."""
    table = vms[0].table or VmStateTable(vms)
    rows = np.array([vm.row for vm in vms])
    counts = balancer.split_counts(n_requests, balancer.weights_of(table, rows))
    return dict(zip((vm.name for vm in vms), counts.tolist()))


class TestLocalBalancer:
    def test_capacity_weights_favour_healthy_vm(self, make_vm):
        healthy = make_vm(state=VmState.ACTIVE)
        degraded = make_vm(state=VmState.ACTIVE)
        table = VmStateTable([healthy, degraded])
        set_load(
            degraded,
            leaked_mb=table.usable_memory_mb[1] + table.swap_mb[1] * 0.9,
        )
        counts = split(LocalBalancer("capacity"), 1000, [healthy, degraded])
        assert counts[healthy.name] > counts[degraded.name]

    def test_uniform_splits_evenly(self, make_vm):
        vms = [make_vm(state=VmState.ACTIVE) for _ in range(4)]
        counts = split(LocalBalancer("uniform"), 1000, vms)
        assert all(c == 250 for c in counts.values())

    def test_only_active_vms_receive_load(self, make_vm):
        vmc = make_vmc(make_vm, n_vms=2, target=1)
        active, standby = vmc.vms
        assert standby.state is VmState.STANDBY
        assert vmc.process_era(100, 30.0, now=0.0).requests_served == 100
        assert (active.total_requests, standby.total_requests) == (100, 0)

    def test_no_active_vm_serves_nothing(self, make_vm):
        vmc = make_vmc(make_vm, n_vms=1, target=1)
        vmc.vms[0].fail()
        report = vmc.process_era(10, 30.0, now=0.0)
        assert report.requests_served == 0
        assert vmc.vms[0].total_requests == 0

    def test_no_active_zero_requests_ok(self, make_vm):
        vmc = make_vmc(make_vm, n_vms=1, target=1)
        vmc.vms[0].fail()
        assert vmc.process_era(0, 30.0, now=0.0).n_active == 0

    def test_multinomial_mode_conserves_total(self, make_vm):
        vms = [make_vm(state=VmState.ACTIVE) for _ in range(3)]
        bal = LocalBalancer("capacity", rng=np.random.default_rng(0))
        counts = split(bal, 500, vms)
        assert sum(counts.values()) == 500

    def test_unknown_discipline(self):
        with pytest.raises(ValueError):
            LocalBalancer("fastest")  # type: ignore[arg-type]


def make_vmc(make_vm, n_vms=6, target=4, itype=PRIVATE_SMALL, **cfg_kw):
    vms = [make_vm(itype=itype) for _ in range(n_vms)]
    cfg = VmcConfig(target_active=target, **cfg_kw)
    predictor = RecordingPredictor(OracleRttfPredictor())
    return VirtualMachineController("r", vms, predictor, cfg)


class TestVmcConstruction:
    def test_activates_target_pool_on_init(self, make_vm):
        vmc = make_vmc(make_vm)
        assert len(vmc.vms_in(VmState.ACTIVE)) == 4
        assert len(vmc.vms_in(VmState.STANDBY)) == 2

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            VirtualMachineController("r", [], OracleRttfPredictor())

    def test_duplicate_names_rejected(self, make_vm):
        vm = make_vm(name="dup")
        vm2 = make_vm(name="dup")
        with pytest.raises(ValueError, match="duplicate"):
            VirtualMachineController("r", [vm, vm2], OracleRttfPredictor())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VmcConfig(rttf_threshold_s=-1.0)
        with pytest.raises(ValueError):
            VmcConfig(target_active=0)
        with pytest.raises(ValueError):
            VmcConfig(mean_demand=0.0)

    @pytest.mark.parametrize("demand", [math.nan, math.inf, -math.inf])
    def test_non_finite_mean_demand_rejected(self, demand):
        # NaN or inf made every service rate NaN or 0: each DES request
        # then fell back to a flat 1.0 s service time without a word
        with pytest.raises(ValueError, match="mean_demand"):
            VmcConfig(mean_demand=demand)

    def test_nan_rttf_threshold_rejected(self):
        # `rttf < nan` never holds: proactive rejuvenation was silently off
        with pytest.raises(ValueError, match="rttf_threshold_s"):
            VmcConfig(rttf_threshold_s=math.nan)

    def test_infinite_rttf_threshold_accepted(self):
        assert VmcConfig(rttf_threshold_s=math.inf).rttf_threshold_s == math.inf


class TestVmcEraProcessing:
    def test_report_fields_consistent(self, make_vm):
        vmc = make_vmc(make_vm)
        rep = vmc.process_era(600, 30.0, now=0.0)
        assert rep.region == "r"
        assert rep.requests_served == 600
        assert rep.n_active == 4
        assert rep.last_rmttf > 0
        assert rep.response_time_s > 0
        assert set(vmc.predictor.rttf_by_name()) == {
            vm.name for vm in vmc.vms_in(VmState.ACTIVE)
        }

    def test_sustained_operation_no_failures(self, make_vm):
        """The proactive swap keeps the pool alive at moderate load."""
        vmc = make_vmc(make_vm)
        for era in range(100):
            vmc.process_era(600, 30.0, now=era * 30.0)
        assert vmc.total_failures == 0
        assert vmc.total_rejuvenations > 0
        assert len(vmc.vms_in(VmState.ACTIVE)) == 4

    def test_rmttf_lower_under_higher_load(self, make_vm):
        slow = make_vmc(make_vm)
        fast = make_vmc(make_vm)
        r_slow = [
            slow.process_era(300, 30.0, e * 30.0).last_rmttf
            for e in range(60)
        ]
        r_fast = [
            fast.process_era(1200, 30.0, e * 30.0).last_rmttf
            for e in range(60)
        ]
        assert np.mean(r_fast[20:]) < np.mean(r_slow[20:])

    def test_stronger_region_shows_higher_rmttf(self, make_vm):
        weak = make_vmc(make_vm, itype=PRIVATE_SMALL)
        strong = make_vmc(make_vm, itype=M3_MEDIUM)
        r_weak = [
            weak.process_era(600, 30.0, e * 30.0).last_rmttf
            for e in range(60)
        ]
        r_strong = [
            strong.process_era(600, 30.0, e * 30.0).last_rmttf
            for e in range(60)
        ]
        assert np.mean(r_strong[20:]) > np.mean(r_weak[20:]) * 1.5

    def test_rejuvenation_paired_with_standby(self, make_vm):
        """Proactive swaps never drop the ACTIVE pool below target while
        standbys exist."""
        vmc = make_vmc(make_vm)
        min_active = min(
            vmc.process_era(800, 30.0, e * 30.0).n_active
            for e in range(80)
        )
        assert min_active >= 3  # transient dip of at most one VM

    def test_close_era_takes_the_load_as_the_host_measured_it(self, make_vm):
        """A host that put the load on the table itself (the DES loop)
        closes the era directly: same swaps, its own counts reported."""
        vmc = make_vmc(make_vm)
        active = vmc.vms_in(VmState.ACTIVE)
        victim, doomed = active[:2]
        victim.fail()  # hit its failure point under the host's requests
        budget = vmc.table.anomaly_budget_mb[doomed.row]
        set_load(doomed, leaked_mb=budget * 0.999)  # at risk
        rep = vmc.close_era(30.0, 0.0, served=90, response_time_s=0.25,
                            failures=1)
        assert (rep.requests_served, rep.response_time_s) == (90, 0.25)
        assert rep.failures == vmc.total_failures == 1
        assert rep.rejuvenations_triggered == vmc.total_rejuvenations == 2
        assert victim.state is doomed.state is VmState.REJUVENATING
        assert rep.n_active == 4  # both backfilled from STANDBY
        # monitored once: what was still ACTIVE when the era closed
        assert len(vmc.predictor.calls) == 1
        assert vmc.predictor.calls[0].names == [vm.name for vm in active[1:]]

    def test_era_validation(self, make_vm):
        vmc = make_vmc(make_vm)
        with pytest.raises(ValueError):
            vmc.process_era(-1, 30.0, 0.0)
        with pytest.raises(ValueError):
            vmc.process_era(1, 0.0, 0.0)


class TestVmcPoolOps:
    def test_set_target_active_grows(self, make_vm):
        vmc = make_vmc(make_vm, n_vms=6, target=2)
        vmc.set_target_active(5)
        assert len(vmc.vms_in(VmState.ACTIVE)) == 5

    def test_set_target_active_shrinks_most_degraded_first(self, make_vm):
        vmc = make_vmc(make_vm, n_vms=4, target=4)
        worst = vmc.vms_in(VmState.ACTIVE)[1]
        set_load(worst, leaked_mb=500.0)
        vmc.set_target_active(3)
        assert worst.state is VmState.REJUVENATING
        assert len(vmc.vms_in(VmState.ACTIVE)) == 3

    def test_set_target_validation(self, make_vm):
        with pytest.raises(ValueError):
            make_vmc(make_vm).set_target_active(0)

    def test_capacity_accounting(self, make_vm):
        vmc = make_vmc(make_vm)
        assert vmc.healthy_capacity() == pytest.approx(
            4 * PRIVATE_SMALL.cpu_power
        )
        assert (
            vmc.stats()["effective_capacity"]
            <= vmc.healthy_capacity() + 1e-9
        )


class TestVmcStats:
    def test_stats_keys_and_consistency(self, make_vm):
        vmc = make_vmc(make_vm)
        for era in range(10):
            vmc.process_era(400, 30.0, era * 30.0)
        stats = vmc.stats()
        assert stats["n_vms"] == 6.0
        assert (
            stats["n_active"]
            + stats["n_standby"]
            + stats["n_rejuvenating"]
            + stats["n_failed"]
            == stats["n_vms"]
        )
        assert stats["total_requests"] == 4000.0
        assert stats["total_rejuvenations"] == vmc.total_rejuvenations
        assert stats["mean_active_uptime_s"] > 0
        assert stats["effective_capacity"] <= stats["healthy_capacity"]

    def test_stats_on_fresh_pool(self, make_vm):
        vmc = make_vmc(make_vm)
        stats = vmc.stats()
        assert stats["total_requests"] == 0.0
        assert stats["mean_leak_mb"] == 0.0
