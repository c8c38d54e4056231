"""Unit and edge-case tests for :class:`repro.pcam.state_table.VmStateTable`.

The columnar table owns all mutable per-VM state; an adopted
:class:`~repro.pcam.vm.VirtualMachine` is a view of its row.  These tests
pin what the controllers rely on:

* adoption copies every spec field exactly, once: a VM another table owns
  is refused before any VM of the new pool is touched;
* row ``i`` is ``vms[i]`` (the fixed-pool contract), and a view reads and
  fails its own row;
* a profiling block steps one VM as a step-by-step walk does;
* the derived columns follow every writer of their inputs;
* the kernels behave on the degenerate shapes (empty pool, single VM)
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
    VirtualMachine,
    VirtualMachineController,
    VmcConfig,
    VmState,
)
from repro.pcam.state_table import MUTABLE_COLUMNS, VmStateTable
from repro.pcam.vm import CODE_ACTIVE, CODE_FAILED
from repro.sim import M3_MEDIUM, PRIVATE_SMALL, RngRegistry, Simulator
from repro.topology import FailureDomainTree
from repro.workload import AnomalyInjector
from repro.workload.anomalies import draw_pool

from .conftest import vm_at
from .reference_vmc import ReferenceVm


def _vm(name, itype=PRIVATE_SMALL, seed=0, **kw):
    return VirtualMachine(
        name,
        itype,
        AnomalyInjector(np.random.default_rng(seed)),
        **kw,
    )


class TestAdoptRelease:
    """Adoption is one-way: the table keeps the row for good."""

    def test_adopt_copies_the_spec(self):
        policy = FailurePolicy(sla_response_time_s=0.5)
        vm = _vm(
            "a", M3_MEDIUM, rejuvenation_time_s=60.0, state=VmState.ACTIVE,
            rack_id=2, failure_policy=policy,
        )
        table = VmStateTable([vm])
        assert vm.row == 0 and vm.table is table
        assert vm.state is VmState.ACTIVE
        assert (vm.leaked_mb, vm.stuck_threads, vm.uptime_s) == (0.0, 0, 0.0)
        assert table.rejuvenation_time_s[0] == 60.0
        assert table.rack_id[0] == 2
        assert table.cpu_power[0] == M3_MEDIUM.cpu_power
        assert table.swap_mb[0] == M3_MEDIUM.swap_mb
        assert table.sla_response_time_s[0] == 0.5
        assert table.service_capacity[0] == M3_MEDIUM.cpu_power

    def test_double_adopt_rejected(self):
        vm = _vm("a")
        VmStateTable([vm])
        fresh = _vm("b")
        with pytest.raises(ValueError, match="already has a table row"):
            VmStateTable([fresh, vm])
        # refused before any VM of the new pool was adopted
        assert fresh.table is None

    def test_row_is_the_pool_position(self):
        vms = [_vm(f"p{i}", seed=i, rack_id=i) for i in range(5)]
        table = VmStateTable(vms)
        assert len(table) == 5
        assert [vm.row for vm in vms] == list(range(5))
        assert table.rack_id.tolist() == list(range(5))


class TestView:
    """A ``VirtualMachine`` keeps no state: it reads and fails its row."""

    def test_holds_no_load_state(self):
        load_state = {name for name, _ in MUTABLE_COLUMNS}
        assert not load_state & set(VirtualMachine.__slots__)
        vm = _vm("loose")
        with pytest.raises(AttributeError):
            vm.leaked_mb  # no table, no state

    def test_reads_and_fails_its_row(self):
        other, vm = _vm("z"), _vm("a", M3_MEDIUM, state=VmState.ACTIVE)
        table = VmStateTable([other, vm])
        row = np.array([1])
        table.era_load_update(
            row, np.array([600]), 30.0, 1.5, np.array([12.5]), np.array([3])
        )
        assert vm.leaked_mb == 12.5 and vm.stuck_threads == 3
        assert vm.uptime_s == 30.0 and vm.total_requests == 600
        assert vm.last_request_rate == 20.0
        assert vm.last_response_time_s == table.last_response_time_s[1]
        assert (
            vm.sample_features().to_array().tolist()
            == table.feature_matrix(row)[0].tolist()
        )
        vm.fail()
        vm.fail()
        assert vm.state is VmState.FAILED and vm.failure_count == 1
        assert other.state is VmState.STANDBY and other.failure_count == 0


class TestLoadBlock:
    """A profiling block is one VM at consecutive steps: row ``k`` after
    load ``k`` equals a scalar VM after its ``k``-th ``apply_load``."""

    @pytest.mark.parametrize("itype", [M3_MEDIUM, PRIVATE_SMALL])
    def test_rows_equal_a_step_by_step_walk(self, itype):
        ref = ReferenceVm("walk", itype, AnomalyInjector(np.random.default_rng(3)))
        ref.activate()
        vm = _vm("block", itype, seed=3)
        table = VmStateTable.block(vm, 16)
        rows = np.arange(16)
        table.activate(rows)
        counts = np.random.default_rng(4)
        injectors = [vm.injector] * 16
        walked = failures = 0
        for _ in range(4):  # blocks continue where the last one ended
            n = counts.poisson(60.0 * 30.0 / 16, size=16)
            leaked, threads = draw_pool(injectors, n.tolist())
            rt, failed, pressures = table.load_block(
                n, 30.0, 1.5, leaked, threads
            )
            after = table.feature_matrix(rows, pressures)
            for k in range(16):
                ref.state = VmState.ACTIVE  # step on past a failure
                assert ref.apply_load(int(n[k]), 30.0) == rt[k]
                failures += ref.state is VmState.FAILED
                assert (ref.state is VmState.FAILED) == failed[k]
                assert (
                    ref.leaked_mb, ref.stuck_threads, ref.uptime_s,
                    ref.total_requests, ref.last_request_rate,
                ) == (
                    table.leaked_mb[k], table.stuck_threads[k],
                    table.uptime_s[k], table.total_requests[k],
                    table.last_request_rate[k],
                )
                assert (
                    ref.sample_features().to_array().tolist()
                    == after[k].tolist()
                )
                walked += 1
            _assert_derived_coherent(table)
        assert walked == 64 and 0 < failures < 64


class TestDegenerateShapes:
    def test_empty_table(self):
        table = VmStateTable([])
        assert len(table) == 0
        empty = np.empty(0, dtype=np.intp)
        assert table.feature_matrix(empty).shape == (0, 15)
        assert table.counts_by_state() == (0, 0, 0, 0)
        rt, failed, _ = table.era_load_update(
            empty, np.empty(0, dtype=np.int64), 30.0, 1.5,
            np.empty(0), np.empty(0, dtype=np.int64),
        )
        assert rt.size == 0 and failed.size == 0

    def test_single_vm_pool(self):
        vm = _vm("solo")
        table = VmStateTable([vm])
        table.activate(np.array([0]))
        assert vm.state is VmState.ACTIVE
        table.fail(np.array([0]))
        assert vm.state is VmState.FAILED
        assert vm.failure_count == 1
        table.start_rejuvenation(np.array([0]))
        table.idle_tick(vm.rejuvenation_time_s)
        assert vm.state is VmState.STANDBY
        assert vm.leaked_mb == 0.0


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
            sim,
            rngs.child("chaos").stream("c"),
            vmcs={"r1": vmc},
            domains=FailureDomainTree.flat(["r1"]),
        )
        for era in range(12):
            if era in (3, 7):
                victims = engine.crash_vms("r1", 0.5)
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
    """Every row's derived columns equal a fresh derivation."""
    rows = np.arange(len(table))
    pressures = table.pressures_of(rows)
    assert np.array_equal(table.service_capacity, pressures.capacity)
    hard = (table.leaked_mb >= table.anomaly_budget_mb) | (
        pressures.thread_pressure >= 1.0
    )
    assert np.array_equal(table.exhausted, hard)


class TestDerivedColumns:
    """``service_capacity`` / ``exhausted`` follow every writer of their
    inputs: a seeded random walk over every operation that writes the
    load state, checked after each step (adoption and
    :meth:`VmStateTable.load_block` are checked in their own tests)."""

    def test_random_operation_sequence_keeps_columns_coherent(self):
        rng = np.random.default_rng(31)

        def fresh_vm(i):
            return _vm(
                f"v{i}",
                _ITYPES[rng.integers(len(_ITYPES))],
                seed=int(rng.integers(1 << 30)),
                rejuvenation_time_s=float(rng.choice([0.0, 60.0])),
                state=VmState.ACTIVE if rng.random() < 0.5 else VmState.STANDBY,
                failure_policy=FailurePolicy(
                    sla_response_time_s=float(rng.uniform(0.2, 2.0)),
                ),
            )

        views = [fresh_vm(i) for i in range(12)]
        table = VmStateTable(views)

        def pick(codes=None):
            pool = [
                vm for vm in views
                if codes is None or table.state_code[vm.row] in codes
            ]
            return pool[rng.integers(len(pool))] if pool else None

        def rows_of(vms):
            return np.array([vm.row for vm in vms], dtype=np.intp)

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
            table.idle_tick(float(rng.choice([30.0, 90.0])))

        def fail():
            vm = pick()
            if vm is not None:
                table.fail(rows_of([vm]))

        def activate():
            table.activate_standby(
                np.zeros(len(table), dtype=np.intp),
                np.array([int(rng.integers(1, 6))]),
            )

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

        ops = [era, rejuvenate, fail, activate, complete]
        _assert_derived_coherent(table)
        seen = set(table.exhausted.tolist())
        for _ in range(1500):
            ops[rng.integers(len(ops))]()
            _assert_derived_coherent(table)
            seen.update(table.exhausted.tolist())
        # the walk reached both values of the flag
        assert seen == {False, True}

    def test_complete_request_returns_the_failure_point(self):
        vm = _vm("solo", PRIVATE_SMALL, state=VmState.ACTIVE)
        table = VmStateTable([vm])
        row = vm.row
        assert not table.complete_request(row, 0.5, 0.0, 0)
        assert vm.total_requests == 1 and vm.last_response_time_s == 0.5
        # the SLA clause reads the request's own response time
        assert table.complete_request(row, 1.5, 0.0, 0)
        # a hard clause: the draw exhausts RAM + swap
        budget = float(table.anomaly_budget_mb[row])
        assert table.complete_request(row, 0.1, budget, 0)
        assert table.exhausted[row]
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
        assert len(vmc.table) == n
        # spot-check view/table coherence at scale
        idx = rng.integers(0, n, size=50)
        for i in idx:
            assert vm_at(vmc, int(i)) is vmc.vms[int(i)]
