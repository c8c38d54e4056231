"""Predictor-corruption fault primitive.

The paper's control plane trusts each region's lastRMTTF report; a
misbehaving predictor (model-serving outage, stuck feature pipeline,
numerical blow-up) is therefore a distinct fault class from network or VM
failures.  :class:`CorruptiblePredictor` wraps any
:class:`~repro.pcam.predictor.RttfPredictor` and lets a chaos campaign
switch it between corruption modes at runtime:

``off``
    Transparent pass-through (the default).
``nan``
    Every prediction is ``NaN`` -- models a numerically diverged model.
    The hardened control loop must sanitise these instead of crashing in
    :func:`repro.core.policy.normalize_fractions`.
``stale``
    Predictions freeze at the last value computed while healthy -- models
    a stuck feature pipeline that keeps re-serving an old answer.
``zero``
    Every prediction is ``0`` -- models a fail-closed model server, which
    pressures the rejuvenation discipline into swapping everything.
"""

from __future__ import annotations

import numpy as np

from repro.pcam.predictor import RttfPredictor
from repro.pcam.state_table import VmStateTable
from repro.pcam.vm import VirtualMachine

#: Valid corruption modes.
MODES = ("off", "nan", "stale", "zero")


class CorruptiblePredictor(RttfPredictor):
    """Wrap ``inner`` with switchable fault modes (see module docstring);
    it starts ``"off"``."""

    def __init__(self, inner: RttfPredictor) -> None:
        self.inner = inner
        self._last: dict[str, float] = {}
        self.mode = "off"

    def set_mode(self, mode: str) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.mode = mode

    def predict_rttf_rows(
        self,
        features: np.ndarray,
        vms: list[VirtualMachine],
        table: VmStateTable,
        rows: np.ndarray,
    ) -> np.ndarray:
        if self.mode == "nan":
            return np.full(len(vms), np.nan)
        if self.mode == "zero":
            return np.zeros(len(vms))
        if self.mode == "off":
            values = self.inner.predict_rttf_rows(features, vms, table, rows)
            self._last.update(zip((vm.name for vm in vms), values.tolist()))
            return values
        # stale: serve the last healthy answer; ask the inner predictor,
        # in pool order, only about the VMs never predicted while healthy
        last = self._last
        values = np.array([last.get(vm.name, np.nan) for vm in vms])
        fresh = [k for k, vm in enumerate(vms) if vm.name not in last]
        if fresh:
            values[fresh] = self.inner.predict_rttf_rows(
                features[fresh], [vms[k] for k in fresh], table, rows[fresh]
            )
        return values
