"""Shared fixtures for PCAM tests."""

import numpy as np
import pytest

from repro.sim import M3_MEDIUM, PRIVATE_SMALL, RngRegistry
from repro.workload import AnomalyInjector
from repro.pcam import VirtualMachine, VmState


@pytest.fixture
def rngs():
    return RngRegistry(seed=42)


def vm_at(table, row):
    """The adopted VM object at a table ``row``; ``LookupError`` if the
    row was never adopted or has been released."""
    vm = table._vms[row] if 0 <= row < table.capacity else None
    if vm is None:
        raise LookupError(f"row {row} holds no live VM")
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
