"""Stateful property test: the VMC against its one-VM reference.

A hypothesis rule-based machine drives a real
:class:`~repro.pcam.vmc.VirtualMachineController` and the tests-only
:class:`~tests.pcam.reference_vmc.ReferenceVmc` side by side, over pools
built from identically-seeded streams, with a random interleaving of
eras, target changes, crashes (``vm.fail()`` on an ACTIVE VM, as
``ChaosEngine`` does) and operator rejuvenations.  After every step the
two must agree exactly:

* every per-VM field, VM by VM in pool order;
* ``stats()``;
* each era's :class:`~repro.pcam.vmc.EraReport`, and the feature rows,
  VM names and RTTFs of its one prediction call.

The pool invariants hold on the real side too:

* every VM is in exactly one lifecycle state, and names are unique;
* the ACTIVE pool never exceeds the target;
* counters only grow, and anomaly state never goes negative.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.pcam import (
    OracleRttfPredictor,
    VirtualMachineController,
    VmcConfig,
    VmState,
)
from repro.pcam.vm import VirtualMachine
from repro.sim import M3_MEDIUM, PRIVATE_SMALL, RngRegistry
from repro.workload import AnomalyInjector

from .reference_vmc import RecordingPredictor, ReferenceVmc

ERA_S = 30.0

#: Every per-VM field the two sides must hold equal.
VM_FIELDS = (
    "name",
    "state",
    "leaked_mb",
    "stuck_threads",
    "uptime_s",
    "_rejuvenation_remaining_s",
    "last_request_rate",
    "last_response_time_s",
    "total_requests",
    "rejuvenation_count",
    "failure_count",
    "rack_id",
    "rejuvenation_time_s",
    "effective_capacity",
)


def _fields(vm: VirtualMachine) -> dict:
    return {name: getattr(vm, name) for name in VM_FIELDS}


class VmcMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        # one registry a side: the same names draw the same streams
        self.rngs = (RngRegistry(seed=1234), RngRegistry(seed=1234))
        self.counter = 0
        self.now = 0.0
        self.prev_rejuvenations = 0
        self.prev_failures = 0

    def _new_pair(self) -> tuple[VirtualMachine, VirtualMachine]:
        self.counter += 1
        name = f"sm/vm{self.counter}"
        itype = M3_MEDIUM if self.counter % 3 == 0 else PRIVATE_SMALL
        return tuple(
            VirtualMachine(
                name,
                itype,
                AnomalyInjector(rngs.child(name).stream("a")),
                rejuvenation_time_s=60.0,
            )
            for rngs in self.rngs
        )

    def _both(self, name: str) -> tuple[VirtualMachine, VirtualMachine]:
        """The VM called ``name`` on each side."""
        return tuple(
            next(vm for vm in side.vms if vm.name == name)
            for side in (self.ref, self.vmc)
        )

    @initialize(n_vms=st.integers(2, 8), tgt=st.integers(1, 4))
    def setup(self, n_vms, tgt):
        tgt = min(tgt, n_vms)
        pairs = [self._new_pair() for _ in range(n_vms)]
        self.ref, self.vmc = (
            cls(
                "sm",
                [pair[k] for pair in pairs],
                RecordingPredictor(OracleRttfPredictor()),
                VmcConfig(target_active=tgt, rttf_threshold_s=120.0),
            )
            for k, cls in enumerate((ReferenceVmc, VirtualMachineController))
        )

    # ---------------- rules ---------------- #

    @rule(requests=st.integers(0, 2000))
    def era(self, requests):
        rep_r = self.ref.process_era(requests, ERA_S, self.now)
        rep_t = self.vmc.process_era(requests, ERA_S, self.now)
        self.now += ERA_S
        assert rep_r == rep_t
        (r_call,), (t_call,) = self.ref.predictor.calls, self.vmc.predictor.calls
        assert r_call == t_call
        self.ref.predictor.calls.clear()
        self.vmc.predictor.calls.clear()

    @rule(tgt=st.integers(1, 6))
    def retarget(self, tgt):
        for side in (self.ref, self.vmc):
            side.set_target_active(min(tgt, len(side.vms)))

    @rule(pick=st.integers(0, 63))
    def crash(self, pick):
        active = self.vmc.vms_in(VmState.ACTIVE)
        if active:
            for vm in self._both(active[pick % len(active)].name):
                vm.fail()

    @rule(pick=st.integers(0, 63))
    def rejuvenate(self, pick):
        running = [
            vm
            for vm in self.vmc.vms
            if vm.state in (VmState.ACTIVE, VmState.FAILED)
        ]
        if running:
            for vm in self._both(running[pick % len(running)].name):
                vm.start_rejuvenation()

    # ---------------- the comparison ---------------- #

    @invariant()
    def matches_the_reference(self):
        assert [_fields(vm) for vm in self.ref.vms] == [
            _fields(vm) for vm in self.vmc.vms
        ]
        assert self.ref.stats() == self.vmc.stats()
        assert self.ref.target_active == self.vmc.target_active

    # ---------------- invariants ---------------- #

    @invariant()
    def states_partition_pool(self):
        total = sum(
            len(self.vmc.vms_in(s)) for s in VmState
        )
        assert total == len(self.vmc.vms)

    @invariant()
    def names_unique(self):
        names = [vm.name for vm in self.vmc.vms]
        assert len(set(names)) == len(names)

    @invariant()
    def active_pool_bounded_by_target(self):
        assert len(self.vmc.vms_in(VmState.ACTIVE)) <= self.vmc.target_active

    @invariant()
    def counters_monotone(self):
        assert self.vmc.total_rejuvenations >= self.prev_rejuvenations
        assert self.vmc.total_failures >= self.prev_failures
        self.prev_rejuvenations = self.vmc.total_rejuvenations
        self.prev_failures = self.vmc.total_failures

    @invariant()
    def anomaly_state_nonnegative(self):
        for vm in self.vmc.vms:
            assert vm.leaked_mb >= 0
            assert vm.stuck_threads >= 0
            assert vm.uptime_s >= 0


VmcStatefulTest = VmcMachine.TestCase
VmcStatefulTest.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
