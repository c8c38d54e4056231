"""Unit and edge-case tests for :class:`repro.pcam.state_table.VmStateTable`.

The columnar table owns all mutable per-VM state while the adopted
:class:`~repro.pcam.state_table.TableBackedVM` views keep the object API
alive.  These tests pin the slot-lifecycle invariants the controllers
rely on:

* adopt/release round-trips every field exactly and detaches cleanly;
* growth preserves existing rows and never invalidates live views;
* released slots are scrubbed, so slot reuse cannot resurrect a dead
  VM's anomaly level, counters, or predictor history (the classic
  stale-index bug the parity fuzzer guards against);
* ``compact()`` repacks live rows and remaps views in place;
* the kernels behave on the degenerate shapes (empty index, single VM)
  and at fleet scale (10k-VM smoke).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.chaos.engine import ChaosEngine
from repro.pcam import (
    FailurePolicy,
    OracleRttfPredictor,
    TrainedRttfPredictor,
    TrendAwareRttfPredictor,
    VirtualMachine,
    VirtualMachineController,
    VmcConfig,
    VmState,
)
from repro.pcam.state_table import (
    CODE_ACTIVE,
    CODE_FAILED,
    FREED,
    TableBackedVM,
    VmStateTable,
)
from repro.sim import M3_MEDIUM, PRIVATE_SMALL, RngRegistry, Simulator
from repro.workload import AnomalyInjector

from .conftest import vm_at


def _vm(name, itype=PRIVATE_SMALL, seed=0, **kw):
    return VirtualMachine(
        name,
        itype,
        AnomalyInjector(np.random.default_rng(seed)),
        **kw,
    )


class TestAdoptRelease:
    def test_adopt_swaps_class_and_preserves_fields(self):
        vm = _vm("a", M3_MEDIUM, rejuvenation_time_s=60.0)
        vm.activate()
        vm.leaked_mb = 12.5
        vm.stuck_threads = 3
        vm.total_requests = 41
        table = VmStateTable()
        row = table.adopt(vm)
        assert isinstance(vm, TableBackedVM)
        assert vm.row == row and vm.table is table
        assert vm.state is VmState.ACTIVE
        assert vm.leaked_mb == 12.5
        assert vm.stuck_threads == 3
        assert vm.total_requests == 41
        assert vm.rejuvenation_time_s == 60.0
        assert vm.effective_capacity == pytest.approx(
            table.effective_capacity_of(np.array([row]))[0]
        )

    def test_double_adopt_rejected(self):
        vm = _vm("a")
        table = VmStateTable()
        table.adopt(vm)
        with pytest.raises(ValueError):
            VmStateTable().adopt(vm)

    def test_release_roundtrip_restores_plain_vm(self):
        vm = _vm("a", rejuvenation_time_s=30.0)
        vm.activate()
        table = VmStateTable()
        table.adopt(vm)
        vm.leaked_mb = 99.0
        vm.start_rejuvenation()
        remaining = vm._rejuvenation_remaining_s
        table.release(vm)
        assert type(vm) is VirtualMachine
        assert vm.state is VmState.REJUVENATING
        assert vm._rejuvenation_remaining_s == remaining
        assert vm.rejuvenation_count == 1
        assert vm.rejuvenation_time_s == 30.0
        # the freed row is scrubbed: nothing of the VM survives in it
        assert len(table) == 0
        assert table.n_free == 1

    def test_view_raises_on_dead_row(self):
        vm = _vm("a")
        table = VmStateTable()
        row = table.adopt(vm)
        table.release(vm)
        with pytest.raises(LookupError):
            vm_at(table, row)


class TestGrowthAndCompaction:
    def test_empty_table(self):
        table = VmStateTable()
        assert len(table) == 0
        assert table.compact() == {}
        empty = np.empty(0, dtype=np.intp)
        assert table.feature_matrix(empty).shape == (0, 15)
        assert table.counts_by_state(empty) == (0, 0, 0, 0)
        rt, failed, _ = table.era_load_update(
            empty, np.empty(0, dtype=np.int64), 30.0, 1.5,
            np.empty(0), np.empty(0, dtype=np.int64),
        )
        assert rt.size == 0 and failed.size == 0

    def test_single_vm_pool(self):
        vm = _vm("solo")
        table = VmStateTable(1)
        row = table.adopt(vm)
        table.activate(np.array([row]))
        assert vm.state is VmState.ACTIVE
        table.fail(np.array([row]))
        assert vm.state is VmState.FAILED
        assert vm.failure_count == 1
        table.start_rejuvenation(np.array([row]))
        table.idle_tick(np.array([row]), vm.rejuvenation_time_s)
        assert vm.state is VmState.STANDBY
        assert vm.leaked_mb == 0.0

    def test_growth_preserves_rows_and_views(self):
        table = VmStateTable(2)
        vms = []
        for i in range(40):  # forces several doublings
            vm = _vm(f"g{i}", seed=i)
            vm.leaked_mb = float(i)
            table.adopt(vm)
            vms.append(vm)
            # every earlier view must still read its own row
            for j, earlier in enumerate(vms):
                assert earlier.leaked_mb == float(j)
        assert len(table) == 40
        assert table.capacity >= 40

    def test_compact_remaps_views_in_place(self):
        table = VmStateTable()
        vms = [_vm(f"c{i}", seed=i) for i in range(8)]
        for i, vm in enumerate(vms):
            table.adopt(vm)
            vm.leaked_mb = 10.0 * i
        for vm in vms[1::2]:  # free every other row
            table.release(vm)
        survivors = vms[0::2]
        mapping = table.compact()
        assert sorted(mapping.values()) == list(range(len(survivors)))
        assert len(table) == len(survivors)
        for i, vm in enumerate(survivors):
            assert vm.leaked_mb == 10.0 * (2 * i)  # reads the moved row
            assert vm_at(table, vm.row) is vm
        # the tail beyond the live rows is scrubbed
        assert np.all(table.state_code[len(survivors):] == FREED)


class TestSlotReuse:
    """Slot reuse must never resurrect dead VM state (stale-index audit)."""

    def test_released_slot_is_scrubbed_before_reuse(self):
        table = VmStateTable(1)
        doomed = _vm("doomed")
        row = table.adopt(doomed)
        doomed.activate()
        doomed.leaked_mb = 500.0
        doomed.stuck_threads = 9
        doomed.total_requests = 1234
        doomed.failure_count = 3
        table.release(doomed)
        fresh = _vm("fresh", M3_MEDIUM, seed=1)
        assert table.adopt(fresh) == row  # same slot reused
        assert fresh.leaked_mb == 0.0
        assert fresh.stuck_threads == 0
        assert fresh.total_requests == 0
        assert fresh.failure_count == 0
        assert fresh.state is VmState.STANDBY
        # static columns were re-synced for the new instance type
        assert fresh.effective_capacity == M3_MEDIUM.cpu_power

    def test_vmc_churn_keeps_rows_aligned_and_history_clean(self):
        """Heavy add/remove churn through the controller API.

        After every operation, each pool VM's view must resolve to its own
        table row, and a VM added into a reused slot must start with a
        clean predictor history (``remove_vm`` evicts it).
        """
        rngs = RngRegistry(seed=5)

        class _Model:
            def predict(self, rows):
                rows = np.atleast_2d(np.asarray(rows, dtype=float))
                return np.full(rows.shape[0], 300.0)

            def predict_one(self, row):
                return 300.0

        predictor = TrendAwareRttfPredictor(_Model(), window=4)
        vms = [
            VirtualMachine(
                f"vm{i}",
                PRIVATE_SMALL,
                AnomalyInjector(rngs.child(f"vm{i}").stream("a")),
            )
            for i in range(6)
        ]
        vmc = VirtualMachineController(
            "r1", vms, predictor,
            VmcConfig(target_active=3),
        )
        for cycle in range(30):
            vmc.process_era(2000, 30.0, cycle * 30.0)
            victim = next(
                (vm for vm in vmc.vms if vm.state is not VmState.ACTIVE),
                None,
            )
            if victim is not None:
                name = victim.name
                vmc.remove_vm(name)
                assert name not in predictor._history
                replacement = VirtualMachine(
                    name,  # same name, same (now reused) slot
                    PRIVATE_SMALL,
                    AnomalyInjector(np.random.default_rng(cycle)),
                )
                vmc.add_vm(replacement)
                # whatever the victim had leaked must be gone from the slot
                assert replacement.leaked_mb == 0.0
                assert replacement.uptime_s == 0.0
            if cycle % 7 == 3:
                vmc.compact_table()
            # row-map alignment invariant
            for i, vm in enumerate(vmc.vms):
                assert vm_at(vmc.table, vmc._rows[i]) is vm
                assert vm.row == vmc._rows[i]


class TestAddVmRefusedAdoption:
    def test_foreign_table_vm_leaves_the_pool_untouched(self):
        """``add_vm`` of a VM another controller still owns must raise
        *before* the pool is mutated.

        It used to append to ``vms`` first: the ``ValueError`` from
        ``adopt`` then left ``len(vms) == 5`` against 4 rows, and
        ``stats()``/``vms_in()`` counted the foreign region's VM.
        """

        def make(region):
            rngs = RngRegistry(seed=5)
            vms = [
                VirtualMachine(
                    f"{region}/vm{i}",
                    PRIVATE_SMALL,
                    AnomalyInjector(rngs.child(f"vm{i}").stream("a")),
                )
                for i in range(4)
            ]
            return VirtualMachineController(
                region, vms, OracleRttfPredictor(),
                VmcConfig(target_active=2),
            )

        vmc, twin, other = make("r1"), make("r1"), make("r2")
        foreign = other.vms_in(VmState.STANDBY)[0]
        with pytest.raises(ValueError, match="already table-backed"):
            vmc.add_vm(foreign)
        assert len(vmc.vms) == len(vmc._rows) == len(vmc._names) == 4
        assert foreign not in vmc.vms
        assert vmc.stats() == twin.stats()
        assert vmc.process_era(2000, 30.0, 0.0) == twin.process_era(
            2000, 30.0, 0.0
        )
        # the foreign VM still belongs, intact, to its own controller
        assert foreign.table is other.table


class TestCrashStormMidEra:
    def test_chaos_storm_shrinks_pool_and_eras_continue(self):
        """A chaos crash-storm against table-backed views mid-campaign."""
        rngs = RngRegistry(seed=8)
        vms = [
            VirtualMachine(
                f"vm{i}",
                M3_MEDIUM,
                AnomalyInjector(rngs.child(f"vm{i}").stream("a")),
            )
            for i in range(8)
        ]
        vmc = VirtualMachineController(
            "r1", vms, OracleRttfPredictor(),
            VmcConfig(target_active=5),
        )
        sim = Simulator()
        engine = ChaosEngine(
            sim, rngs.child("chaos").stream("c"), vmcs={"r1": vmc}
        )
        for era in range(12):
            if era in (3, 7):
                victims = engine.vm_crash_storm("r1", 0.5)
                assert victims
                for name in victims:
                    vm = next(v for v in vmc.vms if v.name == name)
                    assert vm.state is VmState.FAILED
            report = vmc.process_era(3000, 30.0, era * 30.0)
            # the reactive path rejuvenates every crashed VM same-era
            assert report.n_failed == 0
        assert vmc.total_failures >= 1
        assert vmc.total_rejuvenations >= 8  # storms forced swaps


#: the catalog's two pool shapes and one with no swap (the other branch
#: of the swap-pressure clause)
_NO_SWAP = dataclasses.replace(PRIVATE_SMALL, name="noswap", swap_mb=0.0)
_ITYPES = (M3_MEDIUM, PRIVATE_SMALL, _NO_SWAP)


def _assert_derived_coherent(table: VmStateTable) -> None:
    """Every live row's derived columns equal a fresh derivation."""
    live = table.live_rows()
    pressures = table.pressures_of(live)
    assert np.array_equal(table.service_capacity[live], pressures.capacity)
    hard = (
        table.swap_exhaustion[live]
        & (table.leaked_mb[live] >= table.anomaly_budget_mb[live])
    ) | (table.thread_exhaustion[live] & (pressures.thread_pressure >= 1.0))
    assert np.array_equal(table.exhausted[live], hard)


class TestDerivedColumns:
    """``service_capacity`` / ``exhausted`` follow every writer of their
    inputs: a seeded random walk over every operation that writes the
    load state or the static columns, checked after each step."""

    def test_random_operation_sequence_keeps_columns_coherent(self):
        rng = np.random.default_rng(31)
        table = VmStateTable(2)
        views: list[TableBackedVM] = []
        detached: list[VirtualMachine] = []
        made = iter(range(10**6))

        def loaded_vm():
            itype = _ITYPES[rng.integers(len(_ITYPES))]
            vm = _vm(
                f"v{next(made)}",
                itype,
                seed=int(rng.integers(1 << 30)),
                rejuvenation_time_s=float(rng.choice([0.0, 60.0])),
            )
            vm.leaked_mb = float(rng.uniform(0.0, 1.3 * vm.anomaly_budget_mb))
            vm.stuck_threads = int(rng.integers(0, vm.thread_free_slots + 8))
            if rng.random() < 0.5:
                vm.activate()
            return vm

        def pick(codes=None):
            pool = [
                vm for vm in views
                if codes is None or table.state_code[vm.row] in codes
            ]
            return pool[rng.integers(len(pool))] if pool else None

        def rows_of(vms):
            return np.array([vm.row for vm in vms], dtype=np.intp)

        def adopt():
            vm = loaded_vm()
            table.adopt(vm)
            views.append(vm)

        def adopt_all():
            vms = [loaded_vm() for _ in range(rng.integers(1, 4))]
            table.adopt_all(vms)
            views.extend(vms)

        def set_load():
            vm = pick()
            if vm is None:
                return
            if rng.random() < 0.5:
                vm.leaked_mb = float(rng.uniform(0.0, 1.3 * vm.anomaly_budget_mb))
            else:
                vm.stuck_threads = int(rng.integers(0, vm.thread_free_slots + 8))

        def apply_load():
            vm = pick((CODE_ACTIVE,))
            if vm is not None:
                vm.apply_load(int(rng.integers(0, 5000)), 30.0)

        def set_itype():
            vm = pick()
            if vm is not None:
                vm.itype = _ITYPES[rng.integers(len(_ITYPES))]

        def set_policy():
            vm = pick()
            if vm is not None:
                vm.failure_policy = FailurePolicy(
                    sla_response_time_s=float(rng.uniform(0.2, 2.0)),
                    swap_exhaustion=bool(rng.random() < 0.5),
                    thread_exhaustion=bool(rng.random() < 0.5),
                )

        def era():
            idx = rows_of(v for v in views if v.state is VmState.ACTIVE)
            table.era_load_update(
                idx,
                rng.integers(0, 3000, size=idx.size),
                30.0,
                1.5,
                rng.uniform(0.0, 400.0, size=idx.size),
                rng.integers(0, 20, size=idx.size),
            )

        def rejuvenate():
            vm = pick((CODE_ACTIVE, CODE_FAILED))
            if vm is not None:
                table.start_rejuvenation(rows_of([vm]))
            table.idle_tick(rows_of(views), float(rng.choice([30.0, 90.0])))

        def fail():
            vm = pick()
            if vm is not None:
                table.fail(rows_of([vm]))

        def activate():
            table.activate_standby(rows_of(views), int(rng.integers(1, 6)))

        def release():
            vm = pick()
            if vm is not None:
                views.remove(vm)
                table.release(vm)
                detached.append(vm)

        def readopt():
            # into the row the last release freed (adopt reuses it first)
            if detached:
                vm = detached.pop()
                table.adopt(vm)
                views.append(vm)

        def compact():
            table.compact()

        def grow():
            # each call doubles the allocation: a few are enough
            if table.capacity < 256:
                table._grow(table.capacity + 1)

        def complete():
            vm = pick((CODE_ACTIVE,))
            if vm is None:
                return
            zero = rng.random() < 0.5
            table.complete_request(
                vm.row,
                float(rng.uniform(0.0, 2.0)),
                0.0 if zero else float(rng.uniform(0.0, 300.0)),
                0 if zero else int(rng.integers(0, 10)),
            )

        ops = [
            adopt, adopt_all, set_load, apply_load, set_itype, set_policy,
            era, rejuvenate, fail, activate, release, readopt, compact,
            grow, complete,
        ]
        for _ in range(6):
            adopt()
        _assert_derived_coherent(table)
        for _ in range(1500):
            ops[rng.integers(len(ops))]()
            _assert_derived_coherent(table)
        # the walk reached both values of the flag on live rows
        live = table.live_rows()
        assert table.exhausted[live].any() and not table.exhausted[live].all()

    def test_complete_request_returns_the_failure_point(self):
        table = VmStateTable()
        vm = _vm("solo", PRIVATE_SMALL)
        vm.activate()
        row = table.adopt(vm)
        assert not table.complete_request(row, 0.5, 0.0, 0)
        assert vm.total_requests == 1 and vm.last_response_time_s == 0.5
        # the SLA clause reads the request's own response time
        assert table.complete_request(row, 1.5, 0.0, 0)
        # a hard clause: the draw exhausts RAM + swap
        assert table.complete_request(row, 0.1, vm.anomaly_budget_mb, 0)
        assert vm.failure_point_reached()
        assert vm.total_requests == 3


class TestFleetScaleSmoke:
    def test_10k_vm_era_smoke(self):
        """10k-VM region: one era end-to-end."""
        n = 10_000
        rng = np.random.default_rng(0)
        vms = [
            VirtualMachine(
                f"vm{i:05d}",
                M3_MEDIUM if i % 2 else PRIVATE_SMALL,
                AnomalyInjector(np.random.default_rng(i)),
            )
            for i in range(n)
        ]

        class _Flat:
            def predict(self, rows):
                rows = np.atleast_2d(np.asarray(rows, dtype=float))
                return np.full(rows.shape[0], 600.0)

            def predict_one(self, row):
                return 600.0

        vmc = VirtualMachineController(
            "fleet", vms, TrainedRttfPredictor(_Flat()),
            VmcConfig(target_active=9000),
        )
        report = vmc.process_era(500_000, 30.0, 0.0)
        assert report.n_active + report.n_standby + report.n_rejuvenating == n
        assert report.requests_served == 500_000
        assert vmc.table.capacity >= n
        # spot-check view/table coherence at scale
        idx = rng.integers(0, n, size=50)
        for i in idx:
            vm = vmc.vms[int(i)]
            assert vm_at(vmc.table, vm.row) is vm
