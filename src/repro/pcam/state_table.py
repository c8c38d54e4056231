"""The VM-state store: one struct-of-arrays table per deployment.

:class:`VmStateTable` holds the mutable per-VM state of a deployment's
VM pools as parallel NumPy columns (one row per VM) plus per-VM static
columns derived from the instance type and failure policy at adoption
time.  :class:`~repro.pcam.vmc.VirtualMachineController` builds one over
its region's pool; the host of a deployment then joins its regions' tables
into one (:meth:`VmStateTable.deployment`), each region's pool a
contiguous range of its rows, and each region's table becomes a *view*
whose columns are basic slices of the deployment table's.  Region-local
row indices keep working unchanged, and a
:class:`~repro.pcam.vmc.RegionGroup` does the era work of several regions
(anomaly accumulation, failure checks, rejuvenation-threshold scans,
feature extraction) as one array pass over their rows.
:class:`~repro.core.des_loop.DesControlLoop`'s per-request path reads and
writes single cells of a region's view.

The table is the only place a VM's state lives.  It *adopts* its pool's
:class:`~repro.pcam.vm.VirtualMachine` objects: each one's spec (shape,
failure policy, rejuvenation time, rack, initial state) fills a row, and
the object keeps its ``table`` and ``row``, through which ``vm.state``,
``vm.leaked_mb`` or ``vm.fail()`` read and write that row.  The F2PM
profiling harness steps one VM outside any pool on a table too
(:meth:`VmStateTable.block`, :meth:`VmStateTable.load_block`).

Bit-parity contract
-------------------
Every vectorised kernel in this module replicates the scalar one-VM
semantics (kept as the tests-only ``ReferenceVm`` of
``tests/pcam/reference_vmc.py``) expression-for-expression in float64, so
an era over the table is *bit-identical* to walking scalar VM objects one
at a time (pinned by ``tests/pcam/test_columnar_parity.py``).  Anything
stochastic (anomaly injection) stays per-VM in the caller, consuming each
VM's own RNG stream in the same order the scalar loop would.

Derived columns
---------------
``service_capacity`` and ``exhausted`` (:data:`DERIVED_COLUMNS`) are
functions of a row's load state and static columns, kept beside them so
the DES request path and the balancer read a cell instead of
recomputing the physics.  They are refreshed wherever an input is
written, all in this module: adoption, :meth:`VmStateTable.era_load_update`
(and :meth:`VmStateTable.load_block` through it), the end of a
rejuvenation and :meth:`VmStateTable.complete_request`.  Nothing outside
this module writes a ``leaked_mb`` / ``stuck_threads`` cell (CI gate 13).

Fixed pool
----------
Row ``i`` is ``vms[i]`` for the pool's lifetime: :class:`VmStateTable`
adopts its whole pool at construction and never adds, drops or moves a
row, so a host indexes it by pool position (the VMC, the DES request
path).  Joining a deployment copies the rows and re-points the region's
columns, so the region view's row ``i`` is still ``vms[i]``.  Resizing
(Sec. V) only moves rows between STANDBY and ACTIVE.

Views
-----
A view's columns are slices of its ``base`` table's, from row ``offset``
on: a write through either is a write to both.  Only this module's
construction (``_fill``, ``block``, ``deployment``, ``_bind``) binds a
column attribute; rebinding one elsewhere would detach the view and its
writes would stop reaching the deployment table
(``tests/test_structure.py``'s ``shared-columns`` row).  A view holds its
base, never the reverse, so dropping a table frees it at once.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.ml.features import FEATURE_NAMES
from repro.pcam.vm import (
    BASELINE_MEMORY_MB,
    BASELINE_THREADS,
    CODE_ACTIVE,
    CODE_FAILED,
    CODE_REJUVENATING,
    CODE_STANDBY,
    STATE_TO_CODE,
    SWAP_CAPACITY_PENALTY,
    VirtualMachine,
    effective_capacity,
    thread_free_slots,
    usable_memory_mb,
)

#: (column name, dtype) of every mutable column.  A fresh row starts at
#: zero in each; the view reads the load state under the same names.
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
)

#: Static per-VM columns frozen from the VM's spec (``itype``,
#: ``failure_policy``, ``rejuvenation_time_s``, ``rack_id``) at adoption;
#: ``hourly_cost`` is what :class:`~repro.core.cost.CostTracker` bills.
STATIC_COLUMNS: tuple[tuple[str, type], ...] = (
    ("rack_id", np.int64),
    ("cpu_power", np.float64),
    ("memory_mb", np.float64),
    ("swap_mb", np.float64),
    ("usable_memory_mb", np.float64),
    ("anomaly_budget_mb", np.float64),
    ("thread_free_slots", np.int64),
    ("rejuvenation_time_s", np.float64),
    ("sla_response_time_s", np.float64),
    ("hourly_cost", np.float64),
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
    vms:
        The pool, adopted in order and for good: row ``i`` is ``vms[i]``
        for the table's lifetime (module docstring, "Fixed pool").
    """

    #: The table whose columns this one's are slices of (``None``: this
    #: one is no view), and the first of its rows there.
    _base: VmStateTable | None = None
    offset: int = 0

    def __init__(self, vms: list[VirtualMachine]) -> None:
        for vm in vms:
            if vm.table is not None:
                raise ValueError(f"{vm.name!r} already has a table row")
        self._fill(vms)
        for row, vm in enumerate(vms):
            vm.table = self
            vm.row = row

    @classmethod
    def block(cls, vm: VirtualMachine, n: int) -> VmStateTable:
        """``n`` rows of ``vm``'s spec, none adopted: one VM at ``n``
        consecutive steps, the rows :meth:`load_block` steps."""
        table = cls.__new__(cls)
        table._fill([vm])
        for name, _ in _ALL_COLUMNS:
            setattr(table, name, getattr(table, name).repeat(n))
        return table

    @property
    def base(self) -> VmStateTable:
        """The table whose columns this one's are slices of; itself when
        it is no view."""
        return self if self._base is None else self._base

    @classmethod
    def deployment(cls, tables: list[VmStateTable]) -> VmStateTable:
        """One table over ``tables``' rows, each a contiguous range in list
        order; every table in ``tables`` becomes a view of its range.

        The rows are copied as they stand, so a pool that already ran
        keeps its state.  Tables that already are the views of one
        deployment in this order, covering all of it, return that
        deployment unchanged.
        """
        if len({id(table) for table in tables}) != len(tables):
            raise ValueError("a table appears twice in one deployment")
        base = tables[0].base
        at = 0
        for table in tables:
            if table.base is not base or table.offset != at:
                break
            at += len(table)
        else:
            if at == len(base):
                return base
        joined = cls.__new__(cls)
        for name, _ in _ALL_COLUMNS:
            setattr(
                joined,
                name,
                np.concatenate([getattr(table, name) for table in tables]),
            )
        at = 0
        for table in tables:
            table._bind(joined, at, len(table))
            at += len(table)
        return joined

    def view(self, lo: int, hi: int) -> VmStateTable:
        """A table over this one's rows ``lo .. hi - 1``: its row ``k`` is
        row ``lo + k`` here, and writes through it land here."""
        out = VmStateTable.__new__(VmStateTable)
        out._bind(self.base, self.offset + lo, hi - lo)
        return out

    def _bind(self, base: VmStateTable, offset: int, n: int) -> None:
        """Point every column at ``base``'s rows ``offset .. offset+n-1``."""
        for name, _ in _ALL_COLUMNS:
            setattr(self, name, getattr(base, name)[offset:offset + n])
        self._base, self.offset = base, offset

    def _fill(self, vms: list[VirtualMachine]) -> None:
        """One fresh row per spec in ``vms``: zero load state, the VM's
        initial lifecycle state, its static columns and derived ones."""
        n = len(vms)
        for name, dtype in _ALL_COLUMNS:
            setattr(self, name, np.zeros(n, dtype=dtype))
        self.state_code[:] = [STATE_TO_CODE[vm.initial_state] for vm in vms]
        self.rack_id[:] = [vm.rack_id for vm in vms]
        self.rejuvenation_time_s[:] = [vm.rejuvenation_time_s for vm in vms]
        itypes = [vm.itype for vm in vms]
        self.cpu_power[:] = [itype.cpu_power for itype in itypes]
        self.memory_mb[:] = [itype.memory_mb for itype in itypes]
        self.swap_mb[:] = [itype.swap_mb for itype in itypes]
        self.usable_memory_mb[:] = [
            usable_memory_mb(itype.memory_mb) for itype in itypes
        ]
        self.anomaly_budget_mb[:] = self.usable_memory_mb + self.swap_mb
        self.thread_free_slots[:] = [
            thread_free_slots(itype.thread_slots) for itype in itypes
        ]
        self.sla_response_time_s[:] = [
            vm.failure_policy.sla_response_time_s for vm in vms
        ]
        self.hourly_cost[:] = [itype.hourly_cost for itype in itypes]
        self._refresh_rows(np.arange(n, dtype=np.intp))

    def __len__(self) -> int:
        """Number of rows: the pool's size."""
        return len(self.state_code)

    def _refresh(self, row: int) -> None:
        """Re-derive ``row``'s :data:`DERIVED_COLUMNS` from its cells.

        :func:`~repro.pcam.vm.effective_capacity` on pure-Python floats
        (bit-equal to :meth:`pressures_of`, pinned by
        ``tests/pcam/test_columnar_parity.py``), and the failure
        point's two hard clauses.
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
            leaked >= float(self.anomaly_budget_mb[row])
            or stuck / free_slots >= 1.0
        )

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
        exhausted = (self.leaked_mb[idx] >= self.anomaly_budget_mb[idx]) | (
            pressures.thread_pressure >= 1.0
        )
        self.exhausted[idx] = exhausted
        return exhausted

    # ------------------------------------------------------------------ #
    # vectorised kernels (bit-identical to the scalar one-VM model)
    # ------------------------------------------------------------------ #

    def pressures_of(self, idx: np.ndarray) -> Pressures:
        """Swap use, both pressures and effective capacity of ``idx``.

        Vectorised :func:`~repro.pcam.vm.swap_used_mb`,
        :func:`~repro.pcam.vm.swap_pressure`,
        :func:`~repro.pcam.vm.thread_pressure` and
        :func:`~repro.pcam.vm.effective_capacity`, each derived once
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
        """Effective capacity of ``idx``: its ``service_capacity`` cells."""
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
        point (a hard clause, or the SLA on this response).  Most draws
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

    def activate_standby(
        self, region_of: np.ndarray, targets: np.ndarray
    ) -> None:
        """Top each region up to its target count of ACTIVE VMs.

        ``region_of[i]`` is the region (``0 .. len(targets) - 1``) of row
        ``i``, non-decreasing over the rows.  Activates each region's
        STANDBY rows in row order (the ACTIVATE command) until its target
        is met or it has no standby left.
        """
        codes = self.state_code
        need = targets - np.bincount(
            region_of[codes == CODE_ACTIVE], minlength=len(targets)
        )
        if need.max() > 0:
            standby = (codes == CODE_STANDBY).nonzero()[0]
            region = region_of[standby]
            # a standby's rank among its region's standbys, in row order
            rank = np.arange(standby.size) - region.searchsorted(region)
            standby = standby[rank < need[region]]
            if standby.size:
                self.activate(standby)

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

    def idle_tick(self, dt: float) -> None:
        """Advance rejuvenation clocks; finish the ones that ran out.

        Each REJUVENATING row loses ``dt`` of its remaining rejuvenation
        time; a row at or below zero returns to STANDBY refreshed (the end
        of a rejuvenation).  Rows in any other state are
        untouched: the VMC calls this before the era's monitoring, after
        the load has aged its ACTIVE rows.
        """
        rejuv = (self.state_code == CODE_REJUVENATING).nonzero()[0]
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
        """Apply one load to each row of ``idx``: a VM's era under load.

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
        # the M/M/1 response time, utilisation capped at 0.99
        mu = pressures.capacity / mean_demand
        service_time = 1.0 / mu
        rho = np.minimum(rate / mu, 0.99)
        rt = service_time / (1.0 - rho)
        self.last_response_time_s[idx] = rt
        failed = exhausted | (rt > self.sla_response_time_s[idx])
        if failed.any():
            self.fail(idx[failed])
        return rt, failed, pressures

    def load_block(
        self,
        n_requests: np.ndarray,
        dt: float,
        mean_demand: float,
        leaked_delta: np.ndarray,
        threads_delta: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, Pressures]:
        """One VM through ``len(self)`` consecutive loads, a row a load.

        Row ``k`` first becomes the VM before load ``k``: the state the
        last row holds (where the previous block ended) plus loads
        ``0 .. k-1``, summed in order by prefix sums, so each cell is the
        running sum a step-by-step walk would hold.  Then
        :meth:`era_load_update` applies load ``k`` to row ``k``, all rows
        at once, and its result is returned: row ``k`` is the VM after
        load ``k``.  Rows after the VM's failure step go on as if it had
        not failed; the caller reads up to the first failed row.
        """
        k = len(self) - 1
        self.leaked_mb[:] = np.concatenate(
            (self.leaked_mb[k:], leaked_delta[:k])
        ).cumsum()
        self.stuck_threads[:] = np.concatenate(
            (self.stuck_threads[k:], threads_delta[:k])
        ).cumsum()
        self.uptime_s[:] = np.concatenate(
            (self.uptime_s[k:], np.full(k, dt))
        ).cumsum()
        self.total_requests[:] = np.concatenate(
            (self.total_requests[k:], n_requests[:k])
        ).cumsum()
        return self.era_load_update(
            np.arange(k + 1), n_requests, dt, mean_demand, leaked_delta,
            threads_delta,
        )

    def counts_by_state(self) -> tuple[int, int, int, int]:
        """(n_active, n_standby, n_rejuvenating, n_failed) of the pool:
        one count per state code, in code order."""
        return tuple(np.bincount(self.state_code, minlength=4).tolist())
