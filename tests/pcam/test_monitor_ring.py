"""The VMC's per-era monitoring against each VM's own ``sample_features()``.

The controller keeps no feature history of its own: each era it builds
one monitoring row per ACTIVE VM with
:meth:`~repro.pcam.state_table.VmStateTable.feature_matrix` over the
table rows, and hands that matrix straight to the predictor.  The one-VM
semantics those rows must keep are those of
:meth:`~repro.pcam.vm.VirtualMachine.sample_features`: this module drives
a VMC through random eras and target changes and requires

* every prediction call to receive exactly the ACTIVE VMs, in pool
  order, each with its own ``sample_features()`` row;
* every VM's table row to read as its ``sample_features()`` after every
  step.
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
        self, features: np.ndarray, vms: list[VirtualMachine], table, rows
    ) -> np.ndarray:
        active = self.vmc.vms_in(VmState.ACTIVE)
        assert [vm.name for vm in vms] == [vm.name for vm in active]
        assert np.asarray(features).tolist() == feature_rows(active).tolist()
        assert rows.tolist() == [vm.row for vm in active]
        return super().predict_rttf_rows(features, vms, table, rows)


class _Checked:
    """A VMC whose every prediction call is checked against the pool."""

    def __init__(self, n_vms: int, target: int) -> None:
        self.rngs = RngRegistry(seed=99)
        self.now = 0.0
        vms = [
            VirtualMachine(
                f"vm{i}",
                PRIVATE_SMALL,
                AnomalyInjector(self.rngs.child(f"vm{i}").stream("a")),
                rejuvenation_time_s=2 * ERA_S,
            )
            for i in range(1, n_vms + 1)
        ]
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

    # ---------------- operations ---------------- #

    def era(self, requests: int) -> None:
        self.vmc.process_era(requests, ERA_S, self.now)
        self.now += ERA_S
        self.expected_calls += 1
        assert len(self.vmc.predictor.calls) == self.expected_calls

    def retarget(self, n: int) -> None:
        self.vmc.set_target_active(min(n, len(self.vmc.vms)))

    # ---------------- the comparison ---------------- #

    def check(self) -> None:
        vms = self.vmc.vms
        assert [vm.row for vm in vms] == list(range(len(vms)))
        rows = np.arange(len(vms))
        assert (
            self.vmc.table.feature_matrix(rows).tolist()
            == feature_rows(vms).tolist()
        )


OPS = st.one_of(
    st.tuples(st.just("era"), st.integers(0, 1500)),
    st.tuples(st.just("retarget"), st.integers(1, 6)),
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

