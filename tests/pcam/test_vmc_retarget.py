"""``set_target_active`` shrink: one stable argsort vs the old repeated max.

The controller used to retire excess ACTIVE VMs one ``max(active,
key=leaked_mb)`` + ``list.remove`` at a time (O(excess x active) property
reads).  It now takes the first ``excess`` rows of one stable argsort of
``-leaked_mb``.  ``max`` returns the *first* maximum, so both orders are
"most leaked first, ties in pool order"; the old loop is kept here as the
reference and every prefix of its victim order is compared.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pcam import OracleRttfPredictor, VirtualMachineController, VmcConfig
from repro.pcam.vm import VirtualMachine, VmState
from repro.sim import PRIVATE_SMALL, RngRegistry
from repro.workload import AnomalyInjector


def _old_shrink_order(vms: list[VirtualMachine], target: int) -> list[str]:
    active = [vm for vm in vms if vm.state is VmState.ACTIVE]
    victims = []
    while len(active) > target:
        worst = max(active, key=lambda vm: vm.leaked_mb)
        victims.append(worst.name)
        active.remove(worst)
    return victims


def _pool(leaks: list[float], n_standby: int) -> VirtualMachineController:
    rngs = RngRegistry(seed=3)
    vms = [
        VirtualMachine(
            f"vm{i}",
            PRIVATE_SMALL,
            AnomalyInjector(rngs.child(f"vm{i}").stream("a")),
            rejuvenation_time_s=60.0,
        )
        for i in range(len(leaks) + n_standby)
    ]
    vmc = VirtualMachineController(
        "r", vms, OracleRttfPredictor(), VmcConfig(target_active=len(leaks))
    )
    for vm, leaked in zip(vmc.vms_in(VmState.ACTIVE), leaks):
        vm.leaked_mb = leaked
    return vmc


@settings(max_examples=60, deadline=None)
@given(
    # few distinct values: most pools have ties, some are all-equal
    leaks=st.lists(
        st.sampled_from([0.0, 5.0, 17.5, 400.0]), min_size=2, max_size=9
    ),
    n_standby=st.integers(0, 2),
)
def test_shrink_retires_the_old_loops_victims(leaks, n_standby):
    order = _old_shrink_order(_pool(leaks, n_standby).vms, 1)
    assert len(order) == len(leaks) - 1
    for target in range(1, len(leaks)):
        vmc = _pool(leaks, n_standby)
        assert _old_shrink_order(vmc.vms, target) == order[: len(leaks) - target]
        vmc.set_target_active(target)
        retired = {
            vm.name for vm in vmc.vms if vm.state is VmState.REJUVENATING
        }
        assert retired == set(order[: len(leaks) - target])
        assert all(
            vm.rejuvenation_count == (vm.name in retired) for vm in vmc.vms
        )
        assert len(vmc.vms_in(VmState.ACTIVE)) == target
