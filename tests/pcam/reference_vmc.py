"""Tests-only reference VMC: one plain ``VirtualMachine`` at a time.

Until PR 13 this era loop shipped in ``repro.pcam.vmc`` as
``_process_era_objects`` behind ``VmcConfig(columnar=False)``.  The
:class:`~repro.pcam.state_table.VmStateTable` is now the only store in
production; the object walk lives on here, moved verbatim, as the
comparator of ``tests/pcam/test_columnar_parity.py``: the same seeds
through :class:`ReferenceVmc` and the real
:class:`~repro.pcam.vmc.VirtualMachineController` must give ``==`` era
reports, per-VM state, capacities and ``stats()``, and
:class:`RecordingPredictor` wrapped around each side's predictor must
record the same feature rows, VM names and RTTFs, call by call.

The pool is never adopted into a table, so every quantity is a scalar
attribute mutated by the public ``VirtualMachine`` methods
(``apply_load``, ``activate``, ``start_rejuvenation``) and :func:`idle`
-- the one-VM semantics the array kernels replicate.  The plug points
keep their per-object rules here too: :func:`weights` is the balancer's
weight per VM, :func:`rejuvenation_rule` the discipline's verdict and
urgency per VM, and the predictor sees rows built by each VM's
``sample_features()`` (:func:`feature_rows`).  None of them calls the
row methods (``weights_of``, ``at_risk``) the real VMC calls.  Only the
controller's observers (telemetry, online lifecycle) are left out: no
parity test passes them and they never touch VM state.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.ml.features import FEATURE_NAMES
from repro.pcam.balancer import DomainAwareBalancer, LocalBalancer
from repro.pcam.predictor import RttfPredictor
from repro.pcam.rejuvenation import (
    NoRejuvenation,
    PeriodicRejuvenation,
    RejuvenationDiscipline,
    RttfThresholdRejuvenation,
)
from repro.pcam.vm import VirtualMachine, VmState
from repro.pcam.vmc import EraReport, VmcConfig


def idle(vm: VirtualMachine, dt: float) -> None:
    """Advance a plain VM's time without load: an ACTIVE VM ages idle, a
    REJUVENATING one progresses (and returns to STANDBY when done)."""
    if dt < 0:
        raise ValueError("dt must be >= 0")
    if vm.state is VmState.ACTIVE:
        vm.uptime_s += dt
        vm.last_request_rate = 0.0
    elif vm.state is VmState.REJUVENATING:
        vm._rejuvenation_remaining_s -= dt
        if vm._rejuvenation_remaining_s <= 0:
            vm._finish_rejuvenation()


def feature_rows(vms: list[VirtualMachine]) -> np.ndarray:
    """Each VM's ``sample_features()`` row, stacked in pool order."""
    rows = [vm.sample_features().to_array() for vm in vms]
    return np.array(rows, dtype=np.float64).reshape(len(vms), len(FEATURE_NAMES))


def predict_one(predictor: RttfPredictor, vm: VirtualMachine) -> float:
    """One one-row call: ``vm``'s predicted RTTF."""
    return float(predictor.predict_rttf_rows(feature_rows([vm]), [vm])[0])


class PredictCall(NamedTuple):
    """One ``predict_rttf_rows`` call, as plain lists."""

    rows: list[list[float]]
    names: list[str]
    rttf: list[float]


class RecordingPredictor(RttfPredictor):
    """Wraps a predictor and keeps every ``predict_rttf_rows`` call.

    What a controller monitored and predicted each era -- the feature
    rows it built, the VMs it asked about and the RTTFs it got back --
    is read from :attr:`calls` (oldest first) instead of from the
    controller.
    """

    def __init__(self, inner: RttfPredictor) -> None:
        self.inner = inner
        self.calls: list[PredictCall] = []

    def predict_rttf_rows(
        self, rows: np.ndarray, vms: list[VirtualMachine]
    ) -> np.ndarray:
        rttf = self.inner.predict_rttf_rows(rows, vms)
        self.calls.append(
            PredictCall(
                np.asarray(rows).tolist(),
                [vm.name for vm in vms],
                np.asarray(rttf, dtype=np.float64).tolist(),
            )
        )
        return rttf

    def rttf_by_name(self) -> dict[str, float]:
        """The last call's ``VM name -> RTTF``."""
        call = self.calls[-1]
        return dict(zip(call.names, call.rttf))


def weights(balancer: LocalBalancer, vms: list[VirtualMachine]) -> np.ndarray:
    """The balancer's routing weight of each VM, one object at a time."""
    if balancer.discipline == "uniform":
        w = np.ones(len(vms))
    else:
        w = np.array([vm.effective_capacity for vm in vms])
    if isinstance(balancer, DomainAwareBalancer):
        degraded = balancer.health.degraded_racks()
        if degraded:
            w = w * np.array(
                [
                    balancer.degraded_penalty if vm.rack_id in degraded else 1.0
                    for vm in vms
                ]
            )
    return w


def rejuvenation_rule(
    discipline: RejuvenationDiscipline, vm: VirtualMachine, rttf: float
) -> float | None:
    """``vm``'s urgency (lower = sooner) if ``discipline`` swaps it out
    this era, else ``None``."""
    if type(discipline) is RttfThresholdRejuvenation:
        return rttf if rttf < discipline.threshold_s else None
    if type(discipline) is PeriodicRejuvenation:
        # the longest-running VM goes first
        return -vm.uptime_s if vm.uptime_s >= discipline.period_s else None
    assert type(discipline) is NoRejuvenation, discipline
    return None


class ReferenceVmc:
    """Object-walking twin of ``VirtualMachineController``.

    Same constructor arguments (minus the observers) and the pool
    operations the scripted scenarios use: ``set_target_active``,
    ``vms_in``, the two capacities and ``stats``.
    """

    def __init__(
        self,
        region_name: str,
        vms: list[VirtualMachine],
        predictor: RttfPredictor,
        config: VmcConfig | None = None,
        balancer: LocalBalancer | None = None,
        discipline: RejuvenationDiscipline | None = None,
    ) -> None:
        self.region_name = region_name
        self.vms = list(vms)
        self.predictor = predictor
        self.config = config or VmcConfig()
        self.balancer = balancer or LocalBalancer()
        self.discipline = discipline or RttfThresholdRejuvenation(
            self.config.rttf_threshold_s
        )
        self._target_active = self.config.target_active
        self.total_rejuvenations = 0
        self.total_failures = 0
        self.spread_deferrals = 0
        self._ensure_active_pool()

    # ------------------------------------------------------------------ #
    # pool management
    # ------------------------------------------------------------------ #

    def vms_in(self, state: VmState) -> list[VirtualMachine]:
        return [vm for vm in self.vms if vm.state is state]

    @property
    def target_active(self) -> int:
        return self._target_active

    def set_target_active(self, n: int) -> None:
        self._target_active = n
        active = self.vms_in(VmState.ACTIVE)
        while len(active) > self._target_active:
            # Retire the most-degraded VM first.
            worst = max(active, key=lambda vm: vm.leaked_mb)
            worst.start_rejuvenation()
            active.remove(worst)
        self._ensure_active_pool()

    def _ensure_active_pool(self) -> None:
        active = self.vms_in(VmState.ACTIVE)
        standby = self.vms_in(VmState.STANDBY)
        while len(active) < self._target_active and standby:
            vm = standby.pop(0)
            vm.activate()
            active.append(vm)

    def total_capacity(self) -> float:
        return float(
            sum(vm.effective_capacity for vm in self.vms_in(VmState.ACTIVE))
        )

    def healthy_capacity(self) -> float:
        return float(
            sum(vm.itype.cpu_power for vm in self.vms_in(VmState.ACTIVE))
        )

    def _rack_rejuvenation_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for vm in self.vms:
            if vm.state is VmState.REJUVENATING:
                rack = vm.rack_id
                counts[rack] = counts.get(rack, 0) + 1
        return counts

    def _spread_defer(
        self, rack_busy: dict[int, int], vm: VirtualMachine
    ) -> bool:
        if rack_busy.get(vm.rack_id, 0) < self.config.spread_k:
            return False
        self.spread_deferrals += 1
        return True

    # ------------------------------------------------------------------ #
    # era processing
    # ------------------------------------------------------------------ #

    def process_era(self, n_requests: int, dt: float, now: float) -> EraReport:
        """Reference era implementation: one Python VM object at a time."""
        self._ensure_active_pool()
        active = self.vms_in(VmState.ACTIVE)
        era_failures = 0
        era_rejuvenations = 0

        # 1. split the batch over ACTIVE VMs and apply the load
        response_num = 0.0
        served = 0
        if active:
            counts = self.balancer.split_counts(
                n_requests, weights(self.balancer, active)
            )
            for vm, n_vm in zip(active, counts.tolist()):
                rt = vm.apply_load(n_vm, dt, self.config.mean_demand)
                response_num += rt * n_vm
                served += n_vm
                if vm.state is VmState.FAILED:
                    era_failures += 1

        # advance non-active VMs (rejuvenation progress)
        for vm in self.vms:
            if vm.state in (VmState.STANDBY, VmState.REJUVENATING):
                idle(vm, dt)

        # 2. monitor + predict + proactive rejuvenation (PCAM policy).
        # The swap is *paired*: REJUVENATE goes out together with an
        # ACTIVATE to a STANDBY VM.  Without a standby the swap is
        # postponed (taking a VM down with no replacement would cut
        # availability -- the exact thing PCAM exists to protect), unless
        # the VM is about to hard-fail within the next era anyway.
        mttf_values: list[float] = []
        at_risk: list[tuple[float, float, VirtualMachine]] = []
        monitored = self.vms_in(VmState.ACTIVE)
        # One prediction call for the whole ACTIVE pool; MTTF derives
        # from the RTTF already in hand (a second prediction per era
        # would double-append to trend-predictor histories).
        rttf_batch = self.predictor.predict_rttf_rows(
            feature_rows(monitored), monitored
        )
        for vm, rttf in zip(monitored, rttf_batch):
            rttf = float(rttf)
            mttf_values.append(vm.uptime_s + max(rttf, 0.0))
            urgency = rejuvenation_rule(self.discipline, vm, rttf)
            if urgency is not None:
                at_risk.append((urgency, rttf, vm))
        at_risk.sort(key=lambda triple: triple[0])
        n_standby = len(self.vms_in(VmState.STANDBY))
        rack_busy = (
            self._rack_rejuvenation_counts() if self.config.spread_k else None
        )
        for _, rttf, vm in at_risk:
            if rack_busy is not None and self._spread_defer(rack_busy, vm):
                continue
            if n_standby > 0:
                n_standby -= 1
            elif rttf >= dt:
                continue  # postpone: no replacement and not imminent
            vm.start_rejuvenation()
            if rack_busy is not None:
                rack_busy[vm.rack_id] = rack_busy.get(vm.rack_id, 0) + 1
            era_rejuvenations += 1

        # 3. reactive path: failed VMs go to rejuvenation too
        for vm in self.vms_in(VmState.FAILED):
            vm.start_rejuvenation()
            era_rejuvenations += 1

        # 4. backfill the ACTIVE pool from STANDBY (the ACTIVATE command)
        self._ensure_active_pool()

        self.total_rejuvenations += era_rejuvenations
        self.total_failures += era_failures

        mean_rt = response_num / served if served else 0.0
        last_rmttf = float(np.mean(mttf_values)) if mttf_values else 0.0
        return EraReport(
            region=self.region_name,
            time=now,
            last_rmttf=last_rmttf,
            response_time_s=mean_rt,
            n_active=len(self.vms_in(VmState.ACTIVE)),
            n_standby=len(self.vms_in(VmState.STANDBY)),
            n_rejuvenating=len(self.vms_in(VmState.REJUVENATING)),
            n_failed=len(self.vms_in(VmState.FAILED)),
            requests_served=served,
            rejuvenations_triggered=era_rejuvenations,
            failures=era_failures,
        )

    def stats(self) -> dict[str, float]:
        active = self.vms_in(VmState.ACTIVE)
        return {
            "n_vms": float(len(self.vms)),
            "n_active": float(len(active)),
            "n_standby": float(len(self.vms_in(VmState.STANDBY))),
            "n_rejuvenating": float(len(self.vms_in(VmState.REJUVENATING))),
            "n_failed": float(len(self.vms_in(VmState.FAILED))),
            "total_requests": float(
                sum(vm.total_requests for vm in self.vms)
            ),
            "total_rejuvenations": float(self.total_rejuvenations),
            "total_failures": float(self.total_failures),
            "mean_active_uptime_s": (
                float(np.mean([vm.uptime_s for vm in active]))
                if active
                else 0.0
            ),
            "mean_leak_mb": (
                float(np.mean([vm.leaked_mb for vm in active]))
                if active
                else 0.0
            ),
            "effective_capacity": self.total_capacity(),
            "healthy_capacity": self.healthy_capacity(),
        }
