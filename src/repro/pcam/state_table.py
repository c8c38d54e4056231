"""The VM-state store: one struct-of-arrays table per region pool.

:class:`VmStateTable` holds the mutable per-VM state of one region pool
as parallel NumPy columns (one row per VM) plus per-VM static columns
derived from the instance type and failure policy at adoption time.
:class:`~repro.pcam.vmc.VirtualMachineController` builds one over its
pool and does its era work (anomaly accumulation, failure checks,
rejuvenation-threshold scans, feature extraction) as array passes over
it; :class:`~repro.core.des_loop.DesControlLoop` builds a VMC per region
and its per-request path reads and writes single cells of that table.

The table *adopts* ``VirtualMachine`` objects in place: their state is
copied into a row and the object itself is re-classed into
:class:`TableBackedVM`, a thin view whose attributes are properties over
the row.  Every reference the control plane, the chaos engine, or a test
already holds keeps working -- ``vm.fail()``, ``vm.leaked_mb``,
``vm.state is VmState.ACTIVE`` all read and write the columns.

A standalone :class:`~repro.pcam.vm.VirtualMachine` (scalar attributes,
never adopted) stays what it always was: the definition of the one-VM
semantics, used as-is by profiling, by predictor unit tests, and by the
tests-only reference controller (``tests/pcam/reference_vmc.py``).

Bit-parity contract
-------------------
Every vectorised kernel in this module replicates the scalar arithmetic
of :class:`~repro.pcam.vm.VirtualMachine` expression-for-expression in
float64, so an era over the table is *bit-identical* to walking plain VM
objects one at a time (pinned by ``tests/pcam/test_columnar_parity.py``
against that reference controller).  Anything stochastic (anomaly
injection) stays per-VM in the caller, consuming each VM's own RNG
stream in the same order the scalar loop would.

Derived columns
---------------
``service_capacity`` and ``exhausted`` (:data:`DERIVED_COLUMNS`) are
functions of a row's load state and static columns, kept beside them so
the DES request path and the balancer read a cell instead of
recomputing the physics.  They are refreshed wherever an input is
written, all in this module: adoption, the ``itype`` /
``failure_policy`` setters, :meth:`VmStateTable.era_load_update`, the
end of a rejuvenation, the view's ``leaked_mb`` / ``stuck_threads``
setters and :meth:`VmStateTable.complete_request`.  Nothing outside
this module writes a ``leaked_mb`` / ``stuck_threads`` cell (CI gate 13).

Slot lifecycle invariants
-------------------------
* a freed row is scrubbed to poison values (``state_code == FREED``) so a
  stale index read fails loudly instead of resurrecting the dead VM;
* :meth:`VmStateTable.adopt` overwrites **every** column of a reused
  slot -- the new tenant can never observe its predecessor's anomaly
  level, counters, or rejuvenation clock;
* :meth:`VmStateTable.compact` repacks live rows (updating each view's
  row index) so a churn-heavy pool does not fragment forever.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.ml.features import FEATURE_NAMES
from repro.pcam.vm import (
    BASELINE_MEMORY_MB,
    BASELINE_THREADS,
    SWAP_CAPACITY_PENALTY,
    FailurePolicy,
    VirtualMachine,
    VmState,
    effective_capacity,
    thread_free_slots,
    usable_memory_mb,
)
from repro.sim.instances import InstanceType

#: Row state codes.  ``FREED`` poisons released slots.
CODE_ACTIVE = 0
CODE_STANDBY = 1
CODE_REJUVENATING = 2
CODE_FAILED = 3
FREED = -1

#: Code -> enum member (index by code).
CODE_TO_STATE: tuple[VmState, ...] = (
    VmState.ACTIVE,
    VmState.STANDBY,
    VmState.REJUVENATING,
    VmState.FAILED,
)

#: Enum member -> code.
STATE_TO_CODE: dict[VmState, int] = {
    state: code for code, state in enumerate(CODE_TO_STATE)
}

#: (column name, dtype) of every mutable column, in copy order.  Names
#: match the ``VirtualMachine`` attribute they mirror (the rejuvenation
#: clock drops the leading underscore).
MUTABLE_COLUMNS: tuple[tuple[str, type], ...] = (
    ("leaked_mb", np.float64),
    ("stuck_threads", np.int64),
    ("uptime_s", np.float64),
    ("rejuvenation_remaining_s", np.float64),
    ("last_request_rate", np.float64),
    ("last_response_time_s", np.float64),
    ("total_requests", np.int64),
    ("rejuvenation_count", np.int64),
    ("failure_count", np.int64),
    ("rack_id", np.int64),
)

#: Static per-VM columns frozen from ``itype``/``failure_policy`` at
#: adoption (re-synced if a view reassigns either object).
STATIC_COLUMNS: tuple[tuple[str, type], ...] = (
    ("cpu_power", np.float64),
    ("memory_mb", np.float64),
    ("swap_mb", np.float64),
    ("usable_memory_mb", np.float64),
    ("anomaly_budget_mb", np.float64),
    ("thread_free_slots", np.int64),
    ("rejuvenation_time_s", np.float64),
    ("sla_response_time_s", np.float64),
    ("swap_exhaustion", np.bool_),
    ("thread_exhaustion", np.bool_),
)

#: Columns derived from a row's load state (``leaked_mb``,
#: ``stuck_threads``) and its static columns: ``service_capacity`` is
#: :func:`~repro.pcam.vm.effective_capacity`, ``exhausted`` the
#: swap-exhaustion or thread-exhaustion clause of the failure point.
#: Every writer of an input refreshes them (:meth:`VmStateTable._refresh`
#: for one row, :meth:`VmStateTable._refresh_rows` for many), so readers
#: gather a cell instead of recomputing the physics.
DERIVED_COLUMNS: tuple[tuple[str, type], ...] = (
    ("service_capacity", np.float64),
    ("exhausted", np.bool_),
)

_ALL_COLUMNS = (
    (("state_code", np.int8),)
    + MUTABLE_COLUMNS
    + STATIC_COLUMNS
    + DERIVED_COLUMNS
)


class Pressures(NamedTuple):
    """What :meth:`VmStateTable.pressures_of` derives, one entry per row."""

    swap_used_mb: np.ndarray
    swap_pressure: np.ndarray
    thread_pressure: np.ndarray
    capacity: np.ndarray

    def take(self, keep: np.ndarray) -> Pressures:
        """The entries selected by the mask or index array ``keep``."""
        return Pressures(*(column[keep] for column in self))


class VmStateTable:
    """Struct-of-arrays store of one VM pool's state.

    Parameters
    ----------
    capacity:
        Initial row capacity (grows by doubling; 0 is fine).
    """

    def __init__(self, capacity: int = 0) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self._capacity = int(capacity)
        self._n_rows = 0  # high-water mark (rows ever allocated)
        self._free: list[int] = []  # released rows available for reuse
        self._vms: list[TableBackedVM | None] = [None] * self._capacity
        for name, dtype in _ALL_COLUMNS:
            setattr(self, name, np.zeros(self._capacity, dtype=dtype))
        self.state_code[:] = FREED

    # ------------------------------------------------------------------ #
    # capacity management
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        """Number of live (adopted, not released) rows."""
        return self._n_rows - len(self._free)

    @property
    def capacity(self) -> int:
        """Allocated row capacity (live rows + free + never-used)."""
        return self._capacity

    @property
    def n_free(self) -> int:
        """Released rows awaiting reuse (fragmentation measure)."""
        return len(self._free)

    def live_rows(self) -> np.ndarray:
        """Indices of live rows, ascending."""
        return (self.state_code[: self._n_rows] != FREED).nonzero()[0]

    def _grow(self, minimum: int) -> None:
        new_cap = max(self._capacity * 2, minimum, 4)
        for name, dtype in _ALL_COLUMNS:
            old = getattr(self, name)
            fresh = np.zeros(new_cap, dtype=dtype)
            fresh[: self._capacity] = old
            if name == "state_code":
                fresh[self._capacity :] = FREED
            setattr(self, name, fresh)
        self._vms.extend([None] * (new_cap - self._capacity))
        self._capacity = new_cap

    def _alloc_row(self) -> int:
        if self._free:
            return self._free.pop()
        if self._n_rows >= self._capacity:
            self._grow(self._n_rows + 1)
        row = self._n_rows
        self._n_rows += 1
        return row

    # ------------------------------------------------------------------ #
    # adoption / release / compaction
    # ------------------------------------------------------------------ #

    def adopt(self, vm: VirtualMachine) -> int:
        """Move ``vm``'s state into the table; re-class it as a view.

        The object identity is preserved: every existing reference to
        ``vm`` now reads and writes the table row.  Returns the row
        index.  A reused (previously released) slot is overwritten in
        **every** column, so no state of the previous tenant survives.
        """
        row = self._adopt_row(vm)
        self._refresh(row)
        return row

    def _adopt_row(self, vm: VirtualMachine) -> int:
        """:meth:`adopt` up to, not including, the derived columns."""
        if isinstance(vm, TableBackedVM):
            raise ValueError(f"{vm.name!r} is already table-backed")
        row = self._alloc_row()
        # mutable state, straight from the scalar attributes
        self.state_code[row] = STATE_TO_CODE[vm.state]
        self.leaked_mb[row] = vm.leaked_mb
        self.stuck_threads[row] = vm.stuck_threads
        self.uptime_s[row] = vm.uptime_s
        self.rejuvenation_remaining_s[row] = vm._rejuvenation_remaining_s
        self.last_request_rate[row] = vm.last_request_rate
        self.last_response_time_s[row] = vm.last_response_time_s
        self.total_requests[row] = vm.total_requests
        self.rejuvenation_count[row] = vm.rejuvenation_count
        self.failure_count[row] = vm.failure_count
        self.rack_id[row] = vm.rack_id
        # rebind: drop the scalar attribute storage, install the view
        d = vm.__dict__
        d["_itype"] = d.pop("itype")
        d["_failure_policy"] = d.pop("failure_policy")
        rejuvenation_time_s = float(d.pop("rejuvenation_time_s"))
        for name, _ in MUTABLE_COLUMNS:
            d.pop(name, None)
        d.pop("state", None)
        d.pop("_rejuvenation_remaining_s", None)
        d["_table"] = self
        d["_row"] = row
        vm.__class__ = TableBackedVM
        self._vms[row] = vm
        self._sync_static(
            row, vm._itype, vm._failure_policy, rejuvenation_time_s
        )
        return row

    def _sync_static(
        self,
        row: int,
        itype: InstanceType,
        policy: FailurePolicy,
        rejuvenation_time_s: float | None = None,
    ) -> None:
        """Freeze ``row``'s static columns (the caller refreshes the
        derived ones)."""
        self.cpu_power[row] = itype.cpu_power
        self.memory_mb[row] = itype.memory_mb
        self.swap_mb[row] = itype.swap_mb
        usable = usable_memory_mb(itype.memory_mb)
        self.usable_memory_mb[row] = usable
        self.anomaly_budget_mb[row] = usable + itype.swap_mb
        self.thread_free_slots[row] = thread_free_slots(itype.thread_slots)
        if rejuvenation_time_s is not None:
            self.rejuvenation_time_s[row] = rejuvenation_time_s
        self.sla_response_time_s[row] = policy.sla_response_time_s
        self.swap_exhaustion[row] = policy.swap_exhaustion
        self.thread_exhaustion[row] = policy.thread_exhaustion

    def _refresh(self, row: int) -> None:
        """Re-derive ``row``'s :data:`DERIVED_COLUMNS` from its cells.

        :func:`~repro.pcam.vm.effective_capacity` on pure-Python floats
        (bit-equal to :meth:`pressures_of`, pinned by
        ``tests/pcam/test_columnar_parity.py``), and
        :meth:`VirtualMachine.failure_point_reached`'s two hard clauses.
        """
        leaked = float(self.leaked_mb[row])
        stuck = int(self.stuck_threads[row])
        free_slots = int(self.thread_free_slots[row])
        self.service_capacity[row] = effective_capacity(
            float(self.cpu_power[row]),
            leaked,
            float(self.usable_memory_mb[row]),
            float(self.swap_mb[row]),
            stuck,
            free_slots,
        )
        self.exhausted[row] = (
            bool(self.swap_exhaustion[row])
            and leaked >= float(self.anomaly_budget_mb[row])
        ) or (bool(self.thread_exhaustion[row]) and stuck / free_slots >= 1.0)

    def _refresh_rows(
        self, idx: np.ndarray, pressures: Pressures | None = None
    ) -> np.ndarray:
        """Vectorised :meth:`_refresh`; returns the new ``exhausted`` cells.

        ``pressures`` is :meth:`pressures_of` of ``idx`` in its current
        state, when the caller already holds it.
        """
        if pressures is None:
            pressures = self.pressures_of(idx)
        self.service_capacity[idx] = pressures.capacity
        exhausted = (
            self.swap_exhaustion[idx]
            & (self.leaked_mb[idx] >= self.anomaly_budget_mb[idx])
        ) | (self.thread_exhaustion[idx] & (pressures.thread_pressure >= 1.0))
        self.exhausted[idx] = exhausted
        return exhausted

    def adopt_all(self, vms: list[VirtualMachine]) -> np.ndarray:
        """Adopt a whole pool; returns the row indices in ``vms`` order.

        The derived columns are refreshed in one vectorised pass.
        """
        rows = np.array([self._adopt_row(vm) for vm in vms], dtype=np.intp)
        self._refresh_rows(rows)
        return rows

    def release(self, vm: "TableBackedVM") -> None:
        """Detach a view: state moves back to scalar attributes.

        The freed row is scrubbed to poison values and queued for reuse;
        the object reverts to a plain :class:`VirtualMachine` carrying
        its final state (callers of ``remove_vm`` may still inspect it).
        """
        if not isinstance(vm, TableBackedVM) or vm._table is not self:
            raise ValueError(f"{vm.name!r} is not backed by this table")
        row = vm._row
        d = vm.__dict__
        # materialise the final state back into the instance dict
        state = vm.state
        snapshot = {
            name: getattr(self, name)[row].item()
            for name, _ in MUTABLE_COLUMNS
        }
        d["itype"] = d.pop("_itype")
        d["failure_policy"] = d.pop("_failure_policy")
        d["rejuvenation_time_s"] = float(self.rejuvenation_time_s[row])
        d.pop("_table", None)
        d.pop("_row", None)
        vm.__class__ = VirtualMachine
        vm.state = state
        vm._rejuvenation_remaining_s = snapshot.pop(
            "rejuvenation_remaining_s"
        )
        for name, value in snapshot.items():
            setattr(vm, name, value)
        # scrub the row so stale indices cannot resurrect this VM
        self._scrub(row)
        self._vms[row] = None
        self._free.append(row)

    def _scrub(self, row: int) -> None:
        for name, _ in _ALL_COLUMNS:
            getattr(self, name)[row] = 0
        self.state_code[row] = FREED

    def compact(self) -> dict[int, int]:
        """Repack live rows to the front; returns {old_row: new_row}.

        Views are updated in place, so holders of ``TableBackedVM``
        objects are unaffected.  Callers holding *raw row indices*
        (e.g. a controller's row map) must remap them with the returned
        mapping.
        """
        live = self.live_rows()
        mapping: dict[int, int] = {}
        for new, old in enumerate(live.tolist()):
            mapping[old] = new
            if new == old:
                continue
            for name, _ in _ALL_COLUMNS:
                col = getattr(self, name)
                col[new] = col[old]
            vm = self._vms[old]
            assert vm is not None
            vm.__dict__["_row"] = new
            self._vms[new] = vm
            self._vms[old] = None
        n_live = int(live.size)
        for row in range(n_live, self._n_rows):
            self._scrub(row)
            self._vms[row] = None
        self._n_rows = n_live
        self._free = []
        return mapping

    def view(self, row: int) -> "TableBackedVM":
        """The adopted VM object at ``row``.

        Raises
        ------
        LookupError
            If the row was never adopted or has been released.
        """
        vm = self._vms[row] if 0 <= row < self._capacity else None
        if vm is None:
            raise LookupError(f"row {row} holds no live VM")
        return vm

    # ------------------------------------------------------------------ #
    # vectorised kernels (bit-identical to the scalar VirtualMachine)
    # ------------------------------------------------------------------ #

    def pressures_of(self, idx: np.ndarray) -> Pressures:
        """Swap use, both pressures and effective capacity of ``idx``.

        Vectorised :attr:`VirtualMachine.swap_used_mb`,
        :attr:`~VirtualMachine.swap_pressure`,
        :attr:`~VirtualMachine.thread_pressure` and
        :attr:`~VirtualMachine.effective_capacity`, each derived once
        from the current ``leaked_mb`` / ``stuck_threads`` cells: every
        quantity an era reads off a load state (response time, failure
        point, feature rows) is a function of these four.
        """
        leaked = self.leaked_mb[idx]
        usable = self.usable_memory_mb[idx]
        swap = self.swap_mb[idx]
        swap_used = np.minimum(np.maximum(leaked - usable, 0.0), swap)
        zero = swap == 0.0
        swap_pressure = np.empty(len(idx), dtype=np.float64)
        np.divide(swap_used, swap, out=swap_pressure, where=~zero)
        if zero.any():
            swap_pressure[zero] = np.where(
                leaked[zero] >= usable[zero], 1.0, 0.0
            )
        thread_pressure = np.minimum(
            self.stuck_threads[idx] / self.thread_free_slots[idx], 1.0
        )
        factor = (1.0 - SWAP_CAPACITY_PENALTY * swap_pressure) * (
            1.0 - thread_pressure
        )
        capacity = self.cpu_power[idx] * np.maximum(factor, 0.02)
        return Pressures(swap_used, swap_pressure, thread_pressure, capacity)

    def effective_capacity_of(self, idx: np.ndarray) -> np.ndarray:
        """Vectorised :attr:`VirtualMachine.effective_capacity`."""
        return self.service_capacity[idx]

    def capacity_at(self, row: int) -> float:
        """Scalar effective capacity of one row (the DES request path)."""
        return float(self.service_capacity[row])

    def complete_request(
        self,
        row: int,
        response_time_s: float,
        leaked_mb: float,
        stuck_threads: int,
    ) -> bool:
        """One served request's writes to ``row`` (the DES completion).

        Adds the request's anomaly draw, counts the request, stamps its
        response time, and returns whether the row reached its failure
        point (:meth:`VirtualMachine.failure_point_reached`).  Most draws
        are zero and leave the load state as it was, so the derived
        columns are refreshed only when the draw was non-zero.
        """
        self.total_requests[row] += 1
        self.last_response_time_s[row] = response_time_s
        if leaked_mb or stuck_threads:
            self.leaked_mb[row] += leaked_mb
            self.stuck_threads[row] += stuck_threads
            self._refresh(row)
        return bool(self.exhausted[row]) or response_time_s > float(
            self.sla_response_time_s[row]
        )

    def feature_matrix(
        self, idx: np.ndarray, pressures: Pressures | None = None
    ) -> np.ndarray:
        """One F2PM monitoring row per VM in ``idx`` order, as a matrix.

        Bit-identical to stacking
        ``vm.sample_features().to_array()`` per VM, without constructing
        a single :class:`~repro.ml.features.FeatureVector`.  A caller
        that already holds :meth:`pressures_of` for exactly these rows
        in their current state passes it in; otherwise it is derived
        here.
        """
        if pressures is None:
            pressures = self.pressures_of(idx)
        swap_used, swap_pressure, _, capacity = pressures
        n = len(idx)
        out = np.empty((n, len(FEATURE_NAMES)), dtype=np.float64)
        rate = self.last_request_rate[idx]
        mem_used = BASELINE_MEMORY_MB + np.minimum(
            self.leaked_mb[idx], self.usable_memory_mb[idx]
        )
        mu = capacity / 1.5
        rho = np.where(mu > 0, np.minimum(rate / mu, 0.99), 0.99)
        cpu_user = 70.0 * rho
        cpu_system = 10.0 * rho + 20.0 * swap_pressure
        out[:, 0] = mem_used
        out[:, 1] = np.maximum(self.memory_mb[idx] - mem_used, 0.0)
        out[:, 2] = swap_used
        out[:, 3] = cpu_user
        out[:, 4] = cpu_system
        out[:, 5] = np.maximum(100.0 - cpu_user - cpu_system, 0.0)
        out[:, 6] = BASELINE_THREADS + self.stuck_threads[idx]
        out[:, 7] = 60.0
        out[:, 8] = 0.5 + 4.0 * swap_pressure
        out[:, 9] = 0.3 + 6.0 * swap_pressure
        out[:, 10] = 0.02 * rate
        out[:, 11] = 0.12 * rate
        out[:, 12] = rate
        out[:, 13] = self.last_response_time_s[idx] * 1000.0
        out[:, 14] = self.uptime_s[idx]
        return out

    # ------------------------------------------------------------------ #
    # vectorised lifecycle transitions
    # ------------------------------------------------------------------ #

    def activate(self, idx: np.ndarray) -> None:
        """STANDBY -> ACTIVE for every row in ``idx`` (uptime resets)."""
        self.state_code[idx] = CODE_ACTIVE
        self.uptime_s[idx] = 0.0

    def activate_standby(self, rows: np.ndarray, target_active: int) -> None:
        """Top the pool ``rows`` up to ``target_active`` ACTIVE VMs.

        Activates STANDBY rows in ``rows`` order (the ACTIVATE command)
        until the target is met or no standby is left.
        """
        codes = self.state_code[rows]
        need = target_active - int(np.count_nonzero(codes == CODE_ACTIVE))
        if need > 0:
            standby = (codes == CODE_STANDBY).nonzero()[0][:need]
            if standby.size:
                self.activate(rows[standby])

    def fail(self, idx: np.ndarray) -> None:
        """-> FAILED for rows not already failed (counter increments)."""
        fresh = idx[self.state_code[idx] != CODE_FAILED]
        self.state_code[fresh] = CODE_FAILED
        self.failure_count[fresh] += 1

    def start_rejuvenation(self, idx: np.ndarray) -> None:
        """ACTIVE/FAILED -> REJUVENATING; zero-delay ones finish at once."""
        self.state_code[idx] = CODE_REJUVENATING
        delay = self.rejuvenation_time_s[idx]
        self.rejuvenation_remaining_s[idx] = delay
        self.rejuvenation_count[idx] += 1
        instant = idx[delay == 0.0]
        if instant.size:
            self._finish_rejuvenation(instant)

    def _finish_rejuvenation(self, idx: np.ndarray) -> None:
        self.state_code[idx] = CODE_STANDBY
        self.leaked_mb[idx] = 0.0
        self.stuck_threads[idx] = 0
        self.uptime_s[idx] = 0.0
        self.last_response_time_s[idx] = 0.0
        self.last_request_rate[idx] = 0.0
        self.rejuvenation_remaining_s[idx] = 0.0
        self._refresh_rows(idx)

    def idle_tick(self, idx: np.ndarray, dt: float) -> None:
        """Advance rejuvenation clocks; finish the ones that ran out.

        Mirrors per-VM ``idle(dt)`` on REJUVENATING rows.  (STANDBY rows
        need no work, exactly like the scalar method.)
        """
        rejuv = idx[self.state_code[idx] == CODE_REJUVENATING]
        if not rejuv.size:
            return
        self.rejuvenation_remaining_s[rejuv] -= dt
        done = rejuv[self.rejuvenation_remaining_s[rejuv] <= 0.0]
        if done.size:
            self._finish_rejuvenation(done)

    def era_load_update(
        self,
        idx: np.ndarray,
        n_requests: np.ndarray,
        dt: float,
        mean_demand: float,
        leaked_delta: np.ndarray,
        threads_delta: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, Pressures]:
        """The deterministic tail of :meth:`VirtualMachine.apply_load`.

        The caller has already drawn each VM's anomaly effect from its
        own stream (in ``idx`` order); this applies the accumulation,
        uptime, telemetry, response-time and failure-point arithmetic in
        one vectorised pass.  Returns ``(response_times, failed_mask,
        pressures)``; the pressures are those of the post-load state, the
        ones :meth:`feature_matrix` needs for the rows that did not fail.
        """
        self.leaked_mb[idx] += leaked_delta
        self.stuck_threads[idx] += threads_delta
        self.uptime_s[idx] += dt
        self.total_requests[idx] += n_requests
        rate = n_requests / dt
        self.last_request_rate[idx] = rate
        pressures = self.pressures_of(idx)
        exhausted = self._refresh_rows(idx, pressures)
        # vectorised mm1_response_time_s
        mu = pressures.capacity / mean_demand
        service_time = 1.0 / mu
        rho = np.minimum(rate / mu, 0.99)
        rt = service_time / (1.0 - rho)
        self.last_response_time_s[idx] = rt
        failed = exhausted | (rt > self.sla_response_time_s[idx])
        if failed.any():
            self.fail(idx[failed])
        return rt, failed, pressures

    def counts_by_state(self, idx: np.ndarray) -> tuple[int, int, int, int]:
        """(n_active, n_standby, n_rejuvenating, n_failed) over ``idx``."""
        codes = self.state_code[idx]
        counts = np.bincount(codes[codes >= 0], minlength=4)
        return (
            int(counts[CODE_ACTIVE]),
            int(counts[CODE_STANDBY]),
            int(counts[CODE_REJUVENATING]),
            int(counts[CODE_FAILED]),
        )


# ---------------------------------------------------------------------- #
# the thin object view
# ---------------------------------------------------------------------- #


def _column_property(col: str, cast, derives: bool = False) -> property:
    """A view attribute over one column; ``derives`` marks an input of
    :data:`DERIVED_COLUMNS`, whose writes refresh the row."""

    def _get(self):
        return cast(getattr(self._table, col)[self._row])

    def _set(self, value):
        getattr(self._table, col)[self._row] = value

    def _set_and_refresh(self, value):
        getattr(self._table, col)[self._row] = value
        self._table._refresh(self._row)

    return property(_get, _set_and_refresh if derives else _set)


class TableBackedVM(VirtualMachine):
    """A :class:`VirtualMachine` whose state lives in a `VmStateTable` row.

    Never constructed directly -- :meth:`VmStateTable.adopt` re-classes an
    existing ``VirtualMachine`` into this type in place (and
    :meth:`VmStateTable.release` reverses it).  All behaviour is
    inherited; only attribute storage is redirected, so the scalar
    methods (``apply_load``, ``idle``, ``activate`` ...) stay the single
    source of truth for one-VM semantics.
    """

    leaked_mb = _column_property("leaked_mb", float, derives=True)
    uptime_s = _column_property("uptime_s", float)
    stuck_threads = _column_property("stuck_threads", int, derives=True)
    _rejuvenation_remaining_s = _column_property(
        "rejuvenation_remaining_s", float
    )
    last_request_rate = _column_property("last_request_rate", float)
    last_response_time_s = _column_property("last_response_time_s", float)
    total_requests = _column_property("total_requests", int)
    rejuvenation_count = _column_property("rejuvenation_count", int)
    failure_count = _column_property("failure_count", int)
    rack_id = _column_property("rack_id", int)
    rejuvenation_time_s = _column_property("rejuvenation_time_s", float)

    @property
    def table(self) -> VmStateTable:
        """The owning state table."""
        return self._table

    @property
    def row(self) -> int:
        """This VM's current row index (changes under compaction)."""
        return self._row

    @property
    def state(self) -> VmState:
        return CODE_TO_STATE[self._table.state_code[self._row]]

    @state.setter
    def state(self, value: VmState) -> None:
        self._table.state_code[self._row] = STATE_TO_CODE[value]

    @property
    def itype(self) -> InstanceType:
        return self._itype

    @itype.setter
    def itype(self, value: InstanceType) -> None:
        self._resync(value, self._failure_policy)

    @property
    def failure_policy(self) -> FailurePolicy:
        return self._failure_policy

    @failure_policy.setter
    def failure_policy(self, value: FailurePolicy) -> None:
        self._resync(self._itype, value)

    def _resync(self, itype: InstanceType, policy: FailurePolicy) -> None:
        """Adopt a new ``itype`` / ``failure_policy`` into the row."""
        self.__dict__["_itype"] = itype
        self.__dict__["_failure_policy"] = policy
        self._table._sync_static(self._row, itype, policy)
        self._table._refresh(self._row)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TableBackedVM({self.name!r}, row={self._row}, "
            f"{self.state.value}, leaked={self.leaked_mb:.0f}MB)"
        )
