"""Shared fixtures for PCAM tests."""

import numpy as np
import pytest

from repro.sim import M3_MEDIUM, PRIVATE_SMALL, RngRegistry
from repro.workload import AnomalyInjector
from repro.pcam import VirtualMachine, VmState


@pytest.fixture
def rngs():
    return RngRegistry(seed=42)


def vm_at(vmc, row):
    """The VM at table ``row`` of ``vmc``'s pool: the table adopts the
    pool in order, so it is ``vmc.vms[row]``.  ``LookupError`` if there
    is no such row or that VM's view reads another row or table."""
    vm = vmc.vms[row] if 0 <= row < len(vmc.table) else None
    if vm is None or vm.table is not vmc.table or vm.row != row:
        raise LookupError(f"row {row} holds no VM of this pool")
    return vm


def build_vm(rngs, name="vm0", itype=PRIVATE_SMALL, state=VmState.STANDBY, **kw):
    return VirtualMachine(
        name,
        itype,
        AnomalyInjector(rngs.child(name).stream("anomalies")),
        state=state,
        **kw,
    )


@pytest.fixture
def standby_vm(rngs):
    return build_vm(rngs)


@pytest.fixture
def active_vm(rngs):
    vm = build_vm(rngs, name="active0", state=VmState.STANDBY)
    vm.activate()
    return vm


@pytest.fixture
def make_vm(rngs):
    counter = {"n": 0}

    def _make(name=None, itype=PRIVATE_SMALL, **kw):
        if name is None:
            counter["n"] += 1
            name = f"vm{counter['n']}"
        return build_vm(rngs, name=name, itype=itype, **kw)

    return _make
