"""Failure-injection integration tests: the loop under regional disasters.

The availability story of Sec. I: geographic distribution protects against
"a failure of an entire data center in a region".  These tests inject
region-scale failures mid-run and assert the control loop degrades and
recovers the way the architecture promises.
"""

import numpy as np
import pytest

from repro.core import AcmManager, RegionSpec
from repro.pcam import VmState


def make_manager(seed=31):
    return AcmManager(
        regions=[
            RegionSpec("region1", "m3.medium", 8, 5, 160,
                       rejuvenation_time_s=60.0),
            RegionSpec("region3", "private.small", 6, 4, 96,
                       rejuvenation_time_s=60.0),
        ],
        policy="available-resources",
        seed=seed,
    )


class TestRegionDisaster:
    def test_mass_vm_failure_recovers(self):
        """All of region3's ACTIVE VMs crash at once; rejuvenation and the
        policy bring the region back within a few eras."""
        mgr = make_manager()
        loop = mgr.loop
        loop.run(30)
        vmc3 = loop.vmcs["region3"]
        for vm in vmc3.vms_in(VmState.ACTIVE):
            vm.fail()
        # next eras: reactive rejuvenation kicks in
        summaries = loop.run(20)
        # by the end the region is serving again with a full pool
        assert summaries[-1].active_vms["region3"] >= 3
        # and the policy redistributed load back toward region3
        assert summaries[-1].fractions["region3"] > 0.1

    def test_fractions_shift_away_during_outage(self):
        """While region3 is down, the policy starves it of traffic."""
        mgr = make_manager()
        loop = mgr.loop
        loop.run(30)
        f_before = loop.summaries[-1].fractions["region3"]
        vmc3 = loop.vmcs["region3"]
        # sustained disaster: keep killing region3's VMs every era
        for _ in range(12):
            for vm in vmc3.vms_in(VmState.ACTIVE):
                vm.fail()
            loop.run_era()
        f_during = loop.summaries[-1].fractions["region3"]
        # RMTTF of a crashing region collapses -> its fraction drops
        assert f_during < f_before * 0.7

    def test_total_requests_keep_flowing_during_outage(self):
        mgr = make_manager()
        loop = mgr.loop
        loop.run(10)
        vmc3 = loop.vmcs["region3"]
        for vm in vmc3.vms_in(VmState.ACTIVE):
            vm.fail()
        summaries = loop.run(5)
        # region1 absorbs the load; the system never stops serving
        assert all(s.total_requests > 0 for s in summaries)

    def test_rejuvenation_counters_reflect_disaster(self):
        mgr = make_manager()
        loop = mgr.loop
        loop.run(10)
        vmc3 = loop.vmcs["region3"]
        failures_before = vmc3.total_failures
        n_killed = len(vmc3.vms_in(VmState.ACTIVE))
        for vm in vmc3.vms_in(VmState.ACTIVE):
            vm.fail()
        loop.run(3)
        assert vmc3.total_failures >= failures_before
        # every killed VM went through rejuvenation
        assert vmc3.total_rejuvenations >= n_killed


class TestControllerPartitionDuringRun:
    def test_leader_loss_and_reelection_preserves_service(self):
        mgr = make_manager()
        loop = mgr.loop
        loop.run(10)
        assert loop.summaries[-1].leader == "region1"
        loop.overlay.fail_node("region1")
        summaries = loop.run(10)
        assert summaries[-1].leader == "region3"
        assert all(s.total_requests > 0 for s in summaries)
        # recovery restores the original leader
        loop.overlay.restore_node("region1")
        (s,) = loop.run(1)
        assert s.leader == "region1"

    def test_partition_freezes_remote_fraction_updates(self):
        """A slave cut off from the leader keeps its last fraction."""
        mgr = make_manager()
        loop = mgr.loop
        loop.run(30)
        loop.overlay.fail_link("region1", "region3")
        f_at_cut = loop.summaries[-1].fractions
        summaries = loop.run(10)
        # the leader plans with stale RMTTF for region3; fractions stay
        # near the pre-partition plan rather than collapsing
        for s in summaries:
            assert s.fractions["region3"] == pytest.approx(
                f_at_cut["region3"], abs=0.15
            )
