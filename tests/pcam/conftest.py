"""Shared fixtures for PCAM tests."""

import numpy as np
import pytest

from repro.sim import M3_MEDIUM, PRIVATE_SMALL, RngRegistry
from repro.workload import AnomalyInjector
from repro.workload.anomalies import draw_pool
from repro.pcam import VirtualMachine, VmState, VmStateTable

from .reference_vmc import ReferenceVm


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


def set_load(vm, **cells):
    """Write ``vm``'s load-state cells (``leaked_mb=...``) in its table
    row and re-derive the row's derived columns, as a table writer does."""
    for name, value in cells.items():
        getattr(vm.table, name)[vm.row] = value
    vm.table._refresh(vm.row)


def apply_load(vm, n_requests, dt, mean_demand=1.5):
    """One era of ``n_requests`` on a pooled ``vm``: its own anomaly draw,
    then the table's era kernel on its row (a VMC era on one ACTIVE VM)."""
    leaked, threads = draw_pool([vm.injector], [n_requests])
    vm.table.era_load_update(
        np.array([vm.row]), np.array([n_requests]), dt, mean_demand,
        leaked, threads,
    )


def pooled_vm(rngs, name="vm0", **kw):
    """An ACTIVE VM view, adopted into a one-row table of its own."""
    vm = build_vm(rngs, name=name, state=VmState.ACTIVE, **kw)
    VmStateTable([vm])
    return vm


def build_vm(
    rngs,
    name="vm0",
    itype=PRIVATE_SMALL,
    state=VmState.STANDBY,
    cls=VirtualMachine,
    **kw,
):
    """A ``cls`` VM (a table view, or a scalar ``ReferenceVm``) with its
    own anomaly stream."""
    return cls(
        name,
        itype,
        AnomalyInjector(rngs.child(name).stream("anomalies")),
        state=state,
        **kw,
    )


@pytest.fixture
def standby_vm(rngs):
    return build_vm(rngs, cls=ReferenceVm)


@pytest.fixture
def active_vm(rngs):
    vm = build_vm(rngs, name="active0", cls=ReferenceVm)
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
