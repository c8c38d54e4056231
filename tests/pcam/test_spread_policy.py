"""Anti-affinity spread cap and domain-aware placement.

The tentpole invariant: with ``spread_k`` set, the proactive
rejuvenation path never holds more than ``k`` VMs of one rack in
REJUVENATING concurrently -- and that restraint demonstrably improves
availability when a whole rack's pool goes at-risk at once.
"""

import numpy as np
import pytest

from repro.obs.telemetry import Telemetry
from repro.pcam import (
    VirtualMachineController,
    VmcConfig,
    VmState,
)
from repro.pcam.balancer import DomainAwareBalancer, LocalBalancer
from repro.pcam.predictor import RttfPredictor
from repro.pcam.state_table import VmStateTable
from repro.sim import RngRegistry
from repro.topology import DomainHealthTracker, FailureDomainTree

from .conftest import build_vm


class FixedRttf(RttfPredictor):
    """Every VM is predicted to fail in exactly ``rttf_s`` seconds."""

    def __init__(self, rttf_s: float) -> None:
        self.rttf_s = rttf_s

    def predict_rttf_rows(self, features, vms, table, rows) -> np.ndarray:
        return np.full(len(vms), self.rttf_s)


def make_vmc(
    seed=3,
    n_vms=4,
    target=4,
    spread_k=0,
    rack_ids=None,
    telemetry=None,
    rttf_s=5.0,
):
    rngs = RngRegistry(seed=seed)
    vms = [
        build_vm(
            rngs,
            name=f"sp/vm{i}",
            rack_id=rack_ids[i] if rack_ids is not None else 0,
        )
        for i in range(n_vms)
    ]
    return VirtualMachineController(
        "sp",
        vms,
        FixedRttf(rttf_s),
        VmcConfig(
            target_active=target,
            rttf_threshold_s=240.0,
            spread_k=spread_k,
        ),
        telemetry=telemetry,
    )


class TestSpreadCap:
    """One rack, every ACTIVE VM at-risk, no standby replacements."""

    def test_flat_policy_rejuvenates_the_whole_rack(self):
        vmc = make_vmc(spread_k=0)
        report = vmc.process_era(40, 30.0, 0.0)
        # imminent failure (rttf 5s < era 30s): all 4 swap at once
        assert report.rejuvenations_triggered == 4
        assert report.n_active == 0
        assert vmc.spread_deferrals == 0

    def test_spread_cap_keeps_the_rack_serving(self):
        vmc = make_vmc(spread_k=1)
        report = vmc.process_era(40, 30.0, 0.0)
        # the cap lets exactly one swap through; 3 stay ACTIVE
        assert report.rejuvenations_triggered == 1
        assert report.n_active == 3
        assert vmc.spread_deferrals == 3

    def test_cap_is_per_rack_not_global(self):
        vmc = make_vmc(spread_k=1, rack_ids=[0, 0, 1, 1])
        report = vmc.process_era(40, 30.0, 0.0)
        # one swap per rack proceeds
        assert report.rejuvenations_triggered == 2
        assert report.n_active == 2
        assert vmc.spread_deferrals == 2

    def test_deferred_swaps_happen_on_later_eras(self):
        vmc = make_vmc(spread_k=1)
        vmc.process_era(40, 30.0, 0.0)
        total = vmc.total_rejuvenations
        # keep running: as each rejuvenation completes, the next at-risk
        # VM gets its turn -- the cap postpones, never cancels
        for era in range(1, 20):
            vmc.process_era(40, 30.0, era * 30.0)
        assert vmc.total_rejuvenations >= 4
        assert vmc.total_rejuvenations > total

    def test_reactive_path_is_exempt(self):
        vmc = make_vmc(spread_k=1, rttf_s=1e9)
        for vm in vmc.vms_in(VmState.ACTIVE):
            vm.fail()
        report = vmc.process_era(0, 30.0, 0.0)
        # all 4 failed VMs enter rejuvenation despite the cap
        assert report.rejuvenations_triggered == 4
        assert vmc.spread_deferrals == 0

    def test_deferrals_counted_in_telemetry(self):
        telemetry = Telemetry(enabled=True)
        vmc = make_vmc(spread_k=1, telemetry=telemetry)
        vmc.process_era(40, 30.0, 0.0)
        counters = {
            c.name: c.value for c in telemetry.registry.counters()
        }
        assert counters["fd_antiaffinity_deferrals_total"] == 3

    def test_spread_improves_availability_vs_flat(self):
        """The acceptance-criterion comparison, in miniature: identical
        pools, identical at-risk storm -- the spread policy keeps the
        rack serving while the flat policy blacks it out."""
        flat_active = []
        spread_active = []
        for spread_k, sink in ((0, flat_active), (1, spread_active)):
            vmc = make_vmc(spread_k=spread_k)
            for era in range(6):
                sink.append(vmc.process_era(40, 30.0, era * 30.0).n_active)
        assert min(flat_active) == 0
        assert min(spread_active) >= 3


class TestRackIdColumnarRoundTrip:
    def test_adopt_view_preserves_rack_id(self):
        rngs = RngRegistry(seed=5)
        vm = build_vm(rngs, name="rt/vm0", rack_id=7)
        table = VmStateTable([vm])
        assert table.rack_id[vm.row] == 7
        assert vm.rack_id == 7  # the spec, fixed for the VM's lifetime


class TestDomainAwareBalancer:
    def _vms(self, rack_ids):
        rngs = RngRegistry(seed=11)
        vms = []
        for i, rack in enumerate(rack_ids):
            vm = build_vm(
                rngs, name=f"b/vm{i}", rack_id=rack, state=VmState.ACTIVE
            )
            vms.append(vm)
        return vms

    def test_routes_away_from_degraded_racks(self):
        tree = FailureDomainTree({"r": (2, 1)})
        health = DomainHealthTracker(tree)
        table = VmStateTable(self._vms([0, 1]))
        rows = np.arange(2)

        def split(balancer):
            weights = balancer.weights_of(table, rows)
            return balancer.split_counts(100, weights).tolist()

        plain = split(LocalBalancer())
        bal = DomainAwareBalancer(health, degraded_penalty=0.25)
        assert split(bal) == plain  # nothing degraded yet
        health.record_fault("r/az1", "rack_power_loss")
        shifted = split(bal)
        assert shifted[0] > plain[0]
        assert shifted[1] < plain[1]
        assert sum(shifted) == 100

    def test_penalty_validation(self):
        tree = FailureDomainTree({"r": (1, 1)})
        health = DomainHealthTracker(tree)
        with pytest.raises(ValueError):
            DomainAwareBalancer(health, degraded_penalty=0.0)
        with pytest.raises(ValueError):
            DomainAwareBalancer(health, degraded_penalty=1.5)
