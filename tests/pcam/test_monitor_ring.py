"""The VMC's per-era monitoring against each VM's own ``sample_features()``.

The controller keeps no feature history of its own: each era it builds
one monitoring row per ACTIVE VM with
:meth:`~repro.pcam.state_table.VmStateTable.feature_matrix` over the
table rows, and hands that matrix straight to the predictor.  The one-VM
semantics those rows must keep are those of
:meth:`~repro.pcam.vm.VirtualMachine.sample_features`: this module drives
a VMC through random eras and pool operations (growth, shrinkage, row
reuse, table compaction) and requires

* every prediction call to receive exactly the ACTIVE VMs, in pool
  order, each with its own ``sample_features()`` row;
* every VM's table row to read as its ``sample_features()`` after every
  step, so a VM moved to another row by compaction or reuse keeps
  reading its own state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pcam import OracleRttfPredictor, VirtualMachineController, VmcConfig
from repro.pcam.vm import VirtualMachine, VmState
from repro.sim import PRIVATE_SMALL, RngRegistry
from repro.workload import AnomalyInjector

from .reference_vmc import RecordingPredictor, feature_rows

ERA_S = 30.0


class _PoolCheckingPredictor(RecordingPredictor):
    """Checks each call against the pool of :attr:`vmc`: the VMs still
    ACTIVE once the era's load is applied, in pool order, each with its
    own ``sample_features()`` row read at prediction time."""

    vmc: VirtualMachineController

    def predict_rttf_rows(
        self, rows: np.ndarray, vms: list[VirtualMachine]
    ) -> np.ndarray:
        active = self.vmc.vms_in(VmState.ACTIVE)
        assert [vm.name for vm in vms] == [vm.name for vm in active]
        assert np.asarray(rows).tolist() == feature_rows(active).tolist()
        return super().predict_rttf_rows(rows, vms)


class _Checked:
    """A VMC whose every prediction call is checked against the pool."""

    def __init__(self, n_vms: int, target: int) -> None:
        self.rngs = RngRegistry(seed=99)
        self.n_made = 0
        self.now = 0.0
        vms = [self._new_vm() for _ in range(n_vms)]
        # a threshold no VM ever clears: every era swaps as many ACTIVE
        # VMs as there are standbys, so VMs keep skipping eras
        self.vmc = VirtualMachineController(
            "ring",
            vms,
            _PoolCheckingPredictor(OracleRttfPredictor()),
            VmcConfig(target_active=target, rttf_threshold_s=1e12),
        )
        self.vmc.predictor.vmc = self.vmc
        self.expected_calls = 0

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
        self.expected_calls += 1
        assert len(self.vmc.predictor.calls) == self.expected_calls

    def retarget(self, n: int) -> None:
        self.vmc.set_target_active(min(n, len(self.vmc.vms)))

    def add(self) -> None:
        self.vmc.add_vm(self._new_vm())

    def remove(self) -> None:
        idle = [
            vm for vm in self.vmc.vms if vm.state is not VmState.ACTIVE
        ]
        if idle and len(self.vmc.vms) > 1:
            self.vmc.remove_vm(idle[-1].name)

    def replace(self) -> None:
        """Remove, then add: the newcomer takes over the freed row."""
        free_before = self.vmc.table.n_free
        self.remove()
        reuses = self.vmc.table.n_free > free_before
        self.add()
        if reuses:
            assert self.vmc.table.n_free == free_before
            newcomer = self.vmc.vms[-1]
            assert newcomer.uptime_s == 0.0
            assert newcomer.total_requests == 0

    def compact(self) -> None:
        self.vmc.compact_table()

    # ---------------- the comparison ---------------- #

    def check(self) -> None:
        vms = self.vmc.vms
        rows = np.array([vm.row for vm in vms], dtype=np.intp)
        assert len(set(rows.tolist())) == len(vms)
        assert (
            self.vmc.table.feature_matrix(rows).tolist()
            == feature_rows(vms).tolist()
        )


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
    ops=st.lists(OPS, min_size=1, max_size=30),
)
def test_ring_reads_like_per_vm_feature_monitors(n_vms, target, ops):
    pool = _Checked(n_vms, min(target, n_vms))
    pool.check()
    for name, *args in ops:
        getattr(pool, name)(*args)
        pool.check()


def test_reader_follows_its_vm_across_compaction():
    pool = _Checked(n_vms=4, target=4)
    pool.era(500)
    pool.vmc.set_target_active(1)
    last = pool.vmc.vms[-1]
    pool.vmc.remove_vm(
        next(
            vm.name
            for vm in pool.vmc.vms[:-1]
            if vm.state is not VmState.ACTIVE
        )
    )
    row = last.row
    before = last.sample_features().to_array().tolist()
    pool.compact()
    assert last.row < row
    assert last.sample_features().to_array().tolist() == before
    assert pool.vmc.table.feature_matrix(
        np.array([last.row], dtype=np.intp)
    ).tolist() == [before]
    pool.check()
    pool.era(500)
    pool.check()
