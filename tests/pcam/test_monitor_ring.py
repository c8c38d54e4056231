"""The VMC's pool-wide monitor ring against one ``FeatureMonitor`` per VM.

The controller records an era's monitoring as one array write into a
history-major :class:`~repro.pcam.monitor.MonitorRing` indexed by table
row.  The one-VM semantics it must keep are those of
:class:`~repro.pcam.monitor.FeatureMonitor` (a ``deque(maxlen=history)``):
this module drives a VMC through random eras and pool operations while
feeding per-VM ``FeatureMonitor``s the very rows the controller computed,
and requires every VM's ``vmc.monitors[name]`` to read the same as its
``FeatureMonitor`` after every step.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.features import FEATURE_NAMES
from repro.pcam import OracleRttfPredictor, VirtualMachineController, VmcConfig
from repro.pcam.monitor import FeatureMonitor, MonitorRing
from repro.pcam.vm import VirtualMachine, VmState
from repro.sim import PRIVATE_SMALL, RngRegistry
from repro.workload import AnomalyInjector

ERA_S = 30.0


class _Shadowed:
    """A VMC plus the per-VM ``FeatureMonitor``s it must stay equal to."""

    def __init__(self, n_vms: int, target: int, history: int) -> None:
        self.rngs = RngRegistry(seed=99)
        self.history = history
        self.n_made = 0
        self.now = 0.0
        vms = [self._new_vm() for _ in range(n_vms)]
        # a threshold no VM ever clears: every era swaps as many ACTIVE
        # VMs as there are standbys, so VMs keep skipping eras
        self.vmc = VirtualMachineController(
            "ring",
            vms,
            OracleRttfPredictor(),
            VmcConfig(
                target_active=target,
                rttf_threshold_s=1e12,
                monitor_history=history,
            ),
        )
        self.shadow = {vm.name: FeatureMonitor(vm, history) for vm in vms}
        # tap the rows on their way into the ring
        table = self.vmc.table
        feature_matrix = table.feature_matrix

        def tapped(idx, pressures=None):
            out = feature_matrix(idx, pressures)
            for k, row in enumerate(idx.tolist()):
                self.shadow[table.view(row).name].record(self.now, out[k])
            return out

        table.feature_matrix = tapped

    def _new_vm(self) -> VirtualMachine:
        self.n_made += 1
        name = f"vm{self.n_made}"
        return VirtualMachine(
            name,
            PRIVATE_SMALL,
            AnomalyInjector(self.rngs.child(name).stream("a")),
            rejuvenation_time_s=2 * ERA_S,
        )

    # ---------------- operations ---------------- #

    def era(self, requests: int) -> None:
        self.vmc.process_era(requests, ERA_S, self.now)
        self.now += ERA_S

    def retarget(self, n: int) -> None:
        self.vmc.set_target_active(min(n, len(self.vmc.vms)))

    def add(self) -> None:
        vm = self._new_vm()
        self.vmc.add_vm(vm)
        self.shadow[vm.name] = FeatureMonitor(vm, self.history)

    def remove(self) -> None:
        idle = [
            vm for vm in self.vmc.vms if vm.state is not VmState.ACTIVE
        ]
        if idle and len(self.vmc.vms) > 1:
            self.vmc.remove_vm(idle[-1].name)
            del self.shadow[idle[-1].name]

    def replace(self) -> None:
        """Remove, then add: the newcomer takes over the freed row."""
        free_before = self.vmc.table.n_free
        self.remove()
        reuses = self.vmc.table.n_free > free_before
        self.add()
        if reuses:
            assert self.vmc.table.n_free == free_before
            assert len(self.vmc.monitors[self.vmc.vms[-1].name]) == 0

    def compact(self) -> None:
        self.vmc.compact_table()

    # ---------------- the comparison ---------------- #

    def check(self) -> None:
        monitors = self.vmc.monitors
        assert set(monitors) == set(self.shadow)
        assert len(monitors) == len(self.shadow)
        for name, expected in self.shadow.items():
            got = monitors[name]
            assert len(got) == len(expected), name
            if len(expected):
                assert got.latest.time == expected.latest.time
                assert (
                    got.latest.features.tolist()
                    == expected.latest.features.tolist()
                )
            else:
                with pytest.raises(LookupError):
                    got.latest
            for n in (0, 1, self.history, self.history + 3):
                assert [
                    (s.time, s.features.tolist()) for s in got.window(n)
                ] == [
                    (s.time, s.features.tolist()) for s in expected.window(n)
                ], (name, n)


OPS = st.one_of(
    st.tuples(st.just("era"), st.integers(0, 1500)),
    st.tuples(st.just("retarget"), st.integers(1, 6)),
    st.tuples(st.just("add")),
    st.tuples(st.just("remove")),
    st.tuples(st.just("replace")),
    st.tuples(st.just("compact")),
)


@settings(max_examples=60, deadline=None)
@given(
    n_vms=st.integers(2, 6),
    target=st.integers(1, 4),
    history=st.integers(1, 4),
    ops=st.lists(OPS, min_size=1, max_size=30),
)
def test_ring_reads_like_per_vm_feature_monitors(n_vms, target, history, ops):
    pool = _Shadowed(n_vms, min(target, n_vms), history)
    pool.check()
    for name, *args in ops:
        getattr(pool, name)(*args)
        pool.check()


def test_scripted_wrap_skip_grow_reuse_compact():
    """Each lifecycle case of the ring at least once, deterministically."""
    pool = _Shadowed(n_vms=4, target=2, history=3)
    capacity = pool.vmc.table.capacity
    for _ in range(5):  # wraps past history=3; swapped VMs skip eras
        pool.era(800)
        pool.check()
    lengths = {len(pool.vmc.monitors[vm.name]) for vm in pool.vmc.vms}
    assert 3 in lengths and len(lengths) > 1
    while pool.vmc.table.capacity == capacity:  # beyond the first allocation
        pool.add()
        pool.check()
    pool.era(800)
    pool.replace()
    pool.check()
    pool.remove()
    pool.remove()
    assert pool.vmc.table.n_free > 0
    pool.compact()
    assert pool.vmc.table.n_free == 0
    pool.check()
    for _ in range(4):
        pool.era(800)
        pool.check()


def test_reader_follows_its_vm_across_compaction():
    pool = _Shadowed(n_vms=4, target=4, history=2)
    pool.era(500)
    last = pool.vmc.vms[-1]
    reader = pool.vmc.monitors[last.name]
    before = reader.latest.features.tolist()
    pool.vmc.set_target_active(1)
    row = last.row
    pool.vmc.remove_vm(
        next(
            vm.name
            for vm in pool.vmc.vms[:-1]
            if vm.state is not VmState.ACTIVE
        )
    )
    pool.compact()
    assert last.row < row
    assert reader.latest.features.tolist() == before


class TestMonitorRing:
    def test_validation(self):
        with pytest.raises(ValueError):
            MonitorRing(0, 4)
        with pytest.raises(ValueError):
            VmcConfig(monitor_history=0)

    def test_samples_are_copies(self):
        """A sample handed out keeps its values when its slot is reused."""
        ring = MonitorRing(history=1, capacity=1)
        row = np.array([0])
        width = len(FEATURE_NAMES)
        ring.record(row, 0.0, np.full((1, width), 1.0))
        kept = ring.window(0, 1)[0]
        ring.record(row, 30.0, np.full((1, width), 2.0))
        assert kept.time == 0.0 and (kept.features == 1.0).all()
        assert (ring.window(0, 1)[0].features == 2.0).all()

    def test_history_major_layout_is_touched_lazily(self):
        """An era writes one slab: rows at the same position share a slot."""
        ring = MonitorRing(history=8, capacity=5)
        rows = np.array([0, 2, 4])
        width = len(FEATURE_NAMES)
        for era in range(3):
            ring.record(rows, float(era), np.full((3, width), float(era)))
        assert ring._features.shape == (8, 5, width)
        assert (ring._features[3:] == 0.0).all()
        assert (ring._features[:3, [1, 3]] == 0.0).all()
        assert [s.time for s in ring.window(2, 8)] == [0.0, 1.0, 2.0]
        assert ring.n_samples(1) == 0 and ring.window(1, 8) == []
