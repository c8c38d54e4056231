"""Parity of the group step: one pass over a deployment's regions.

:class:`~repro.pcam.vmc.RegionGroup` steps several regions of one
deployment table at once -- each table kernel runs once over all their
rows, each distinct predictor is called once -- while everything per
region by definition (balancer split, at-risk loop, report sums) stays per
region.  These tests hold it to stepping each region alone: three regions
of different shapes take one group step an era, and each is compared with
the one-object-at-a-time reference
(:class:`~tests.pcam.reference_vmc.ReferenceVmc`) of that region, stepped
on its own, **exactly** (``==`` on floats): every per-VM field, every
:class:`~repro.pcam.vmc.EraReport`, ``stats()``.  Every era also checks
that each region's table is still a view of the deployment table.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos.predictor import CorruptiblePredictor
from repro.pcam import (
    OracleRttfPredictor,
    VirtualMachine,
    VirtualMachineController,
    VmcConfig,
    VmState,
)
from repro.pcam.state_table import (
    DERIVED_COLUMNS,
    MUTABLE_COLUMNS,
    STATIC_COLUMNS,
)
from repro.pcam.vm import CODE_REJUVENATING
from repro.pcam.vmc import RegionGroup, process_eras
from repro.sim import M3_MEDIUM, PRIVATE_SMALL, RngRegistry
from repro.workload import AnomalyInjector

from .reference_vmc import (
    RecordingPredictor,
    ReferenceOracle,
    ReferenceVm,
    ReferenceVmc,
)
from .test_columnar_parity import _fail_by_name, _load, _snapshot

COLUMNS = ["state_code"] + [
    name for name, _ in MUTABLE_COLUMNS + STATIC_COLUMNS + DERIVED_COLUMNS
]

#: region -> (VMs, every how many an m3.medium, target ACTIVE, VmcConfig
#: extras, rejuvenation time, peak load); shapes differ in size, mix,
#: target, spread cap and rejuvenation time
REGIONS = {
    "ra": (8, 2, 4, {}, 0.0, 4000),
    "rb": (5, 3, 3, {"rttf_threshold_s": 400.0}, 60.0, 2500),
    "rc": (11, 1, 6, {"rttf_threshold_s": 400.0, "spread_k": 1}, 90.0, 5000),
}


def _pool(cls, region: str, rngs: RngRegistry) -> list:
    n, every, _, _, rejuvenation_time_s, _ = REGIONS[region]
    vm_cls = ReferenceVm if cls is ReferenceVmc else VirtualMachine
    return [
        vm_cls(
            f"{region}/vm{i:02d}",
            M3_MEDIUM if i % every == 0 else PRIVATE_SMALL,
            AnomalyInjector(rngs.child(f"{region}{i}").stream("a")),
            rejuvenation_time_s=rejuvenation_time_s,
            rack_id=i % 3,
        )
        for i in range(n)
    ]


def _build(cls, seed: int, shared, own) -> dict:
    """One controller per region of ``cls``; ``rb`` predicts with ``own``,
    the others share ``shared``."""
    rngs = RngRegistry(seed=seed)
    out = {}
    for region, (_, _, target, extra, _, _) in REGIONS.items():
        out[region] = cls(
            region,
            _pool(cls, region, rngs),
            own if region == "rb" else shared,
            VmcConfig(target_active=target, **extra),
        )
    return out


def _assert_views(group: RegionGroup) -> None:
    """Every region's table is a view of the deployment table: its columns
    are the slices of its row range, and its VMs read through it."""
    deployment = group.table
    at = 0
    for vmc in group.vmcs:
        view = vmc.table
        assert view.base is deployment and view.offset == at
        for name in COLUMNS:
            column, full = getattr(view, name), getattr(deployment, name)
            assert column.base is full, f"{vmc.region_name}.{name} detached"
            assert (
                column.__array_interface__["data"][0]
                == full[at:].__array_interface__["data"][0]
            ), f"{vmc.region_name}.{name} points at the wrong rows"
            assert len(column) == len(vmc.vms)
        assert all(vm.table is view for vm in vmc.vms)
        at += len(vmc.vms)
    assert at == len(deployment)


def _assert_region_equal(ref: ReferenceVmc, vmc, era: int) -> None:
    assert [vm.name for vm in ref.vms] == [vm.name for vm in vmc.vms]
    for r_vm, t_vm in zip(ref.vms, vmc.vms):
        assert _snapshot(r_vm) == _snapshot(t_vm), (
            f"era {era}: VM {r_vm.name} diverged"
        )
    assert ref.healthy_capacity() == vmc.healthy_capacity()
    assert ref.stats() == vmc.stats(), f"era {era}: {vmc.region_name} stats"
    assert ref.spread_deferrals == vmc.spread_deferrals
    assert ref.total_rejuvenations == vmc.total_rejuvenations
    assert ref.total_failures == vmc.total_failures


def _left_out(era: int) -> set[str]:
    """Regions a step leaves out, as serve leaves out a dark one: the
    middle region (two one-region runs) or the first (a run of two)."""
    if era % 7 == 3:
        return {"rb"}
    if era % 11 == 5:
        return {"ra"}
    return set()


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_group_step_equals_each_region_stepped_alone(seed):
    ref_own = CorruptiblePredictor(ReferenceOracle(OracleRttfPredictor()))
    refs = _build(
        ReferenceVmc, seed, ReferenceOracle(OracleRttfPredictor()), ref_own
    )
    shared = RecordingPredictor(OracleRttfPredictor())
    own = CorruptiblePredictor(OracleRttfPredictor())
    vmcs = _build(VirtualMachineController, seed, shared, own)
    group = RegionGroup.join(list(vmcs.values()))
    _assert_views(group)

    storm_rng = np.random.default_rng(seed)
    left_out = set()
    for era in range(60):
        if era % 9 == 4:  # crash storm in rc: about half its ACTIVE pool
            active = sorted(vm.name for vm in refs["rc"].vms_in(VmState.ACTIVE))
            picks = storm_rng.choice(
                len(active), size=max(1, len(active) // 2), replace=False
            )
            victims = [active[i] for i in sorted(int(i) for i in picks)]
            _fail_by_name(refs["rc"], victims)
            _fail_by_name(vmcs["rc"], victims)
        if era % 13 == 6:  # autoscale ra up or down
            target = 3 if refs["ra"].target_active == 4 else 4
            refs["ra"].set_target_active(target)
            vmcs["ra"].set_target_active(target)
        if era in (20, 40):  # rb's own predictor goes stale, then heals
            mode = "stale" if era == 20 else "off"
            ref_own.set_mode(mode)
            own.set_mode(mode)

        out = _left_out(era)
        names = [r for r in REGIONS if r not in out]
        loads = [_load(era, REGIONS[r][5]) for r in names]
        shared.calls.clear()
        if out:
            reports = process_eras(
                [vmcs[r] for r in names], loads, 30.0, era * 30.0
            )
            left_out |= out
        else:
            reports = group.process_era(loads, 30.0, era * 30.0)
        # the shared predictor is asked once a run of regions, about all
        # of its regions in the run: once, unless rb splits ra from rc
        assert len(shared.calls) == (2 if out == {"rb"} else 1)
        asked = {n.split("/")[0] for call in shared.calls for n in call.names}
        assert asked <= {"ra", "rc"} - out
        for region, load, report in zip(names, loads, reports):
            want = refs[region].process_era(load, 30.0, era * 30.0)
            assert report == want, f"era {era}: {region} {report} != {want}"
        for region in REGIONS:
            _assert_region_equal(refs[region], vmcs[region], era)
        _assert_views(group)

    # the scenario exercised what the step must keep per region
    assert left_out == {"ra", "rb"}
    assert refs["rc"].spread_deferrals > 0
    for ref in refs.values():
        assert ref.total_rejuvenations > ref.total_failures > 0


def test_a_left_out_region_is_untouched():
    """A region outside the step keeps its rows as they were, rejuvenation
    clocks included: serve's dark region."""
    vmcs = _build(
        VirtualMachineController,
        3,
        OracleRttfPredictor(),
        OracleRttfPredictor(),
    )
    group = RegionGroup.join(list(vmcs.values()))
    for era in range(12):
        group.process_era([3000, 3000, 3000], 30.0, era * 30.0)
    rejuvenating = vmcs["rb"].table.state_code == CODE_REJUVENATING
    before = {name: getattr(vmcs["rb"].table, name).copy() for name in COLUMNS}
    process_eras([vmcs["ra"], vmcs["rc"]], [3000, 3000], 30.0, 360.0)
    for name in COLUMNS:
        assert np.array_equal(getattr(vmcs["rb"].table, name), before[name])
    assert rejuvenating.any(), "the scenario left no clock to advance"


def test_a_group_refuses_what_one_pass_cannot_step():
    vmcs = list(
        _build(
            VirtualMachineController,
            3,
            OracleRttfPredictor(),
            OracleRttfPredictor(),
        ).values()
    )
    with pytest.raises(ValueError, match="consecutive"):
        RegionGroup(vmcs)  # three tables, not one deployment's
    RegionGroup.join(vmcs)
    with pytest.raises(ValueError, match="consecutive"):
        RegionGroup([vmcs[0], vmcs[2]])
    with pytest.raises(ValueError, match="consecutive"):
        RegionGroup([vmcs[1], vmcs[0]])
    # joining them again in another order detaches them from the old table
    stale = RegionGroup([vmcs[0]])
    RegionGroup.join([vmcs[2], vmcs[1], vmcs[0]])
    with pytest.raises(ValueError, match="left the group's table"):
        stale.process_era([100], 30.0, 0.0)


def test_a_group_reads_one_mean_demand():
    rngs = RngRegistry(seed=3)
    vmcs = [
        VirtualMachineController(
            region,
            _pool(VirtualMachineController, region, rngs),
            OracleRttfPredictor(),
            VmcConfig(target_active=2, mean_demand=demand),
        )
        for region, demand in (("ra", 1.5), ("rb", 2.0))
    ]
    group = RegionGroup.join(vmcs)
    with pytest.raises(ValueError, match="mean_demand"):
        group.process_era([100, 100], 30.0, 0.0)


def test_joining_keeps_a_pool_that_already_ran():
    """Joining copies each region's rows as they stand."""
    vmcs = _build(
        VirtualMachineController,
        4,
        OracleRttfPredictor(),
        OracleRttfPredictor(),
    )
    for era in range(5):
        for vmc in vmcs.values():
            vmc.process_era(2000, 30.0, era * 30.0)
    before = [
        [_snapshot(vm) for vm in vmc.vms] for vmc in vmcs.values()
    ]
    group = RegionGroup.join(list(vmcs.values()))
    _assert_views(group)
    assert [[_snapshot(vm) for vm in vmc.vms] for vmc in vmcs.values()] == before
    # joining the same regions in the same order again changes nothing
    table = group.table
    assert RegionGroup.join(list(vmcs.values())).table is table
