"""Online RTTF prediction: binding F2PM models to VMs.

Sec. III: "VMC maps a ML model to a given VM, and uses the system features
selected by Lasso regularization ... to predict, at runtime, the RTTF of
the VM."

Implementations share the :class:`RttfPredictor` interface:

* :class:`TrainedRttfPredictor` -- the real thing: a
  :class:`repro.ml.toolchain.TrainedModel` applied to the VM's latest
  monitoring sample;
* :class:`TrendAwareRttfPredictor` -- a trained model over the *derived*
  schema (levels + slopes): it keeps a short per-VM history and feeds the
  model both the latest sample and its finite-difference trends;
* :class:`ConservativeRttfPredictor` -- asymmetric-loss safety margin
  around any other predictor;
* :class:`OracleRttfPredictor` -- the mean-field ground truth, used by
  tests and by ablation benches to separate policy dynamics from ML error.
"""

from __future__ import annotations

import abc
import math
from collections import deque

import numpy as np

from repro.ml.derived import slope_features
from repro.ml.toolchain import TrainedModel
from repro.pcam.vm import (
    VirtualMachine,
    mean_field_ttf_s,
    thread_free_slots,
    usable_memory_mb,
)


class RttfPredictor(abc.ABC):
    """Interface: predict the Remaining Time To Failure of a VM."""

    @abc.abstractmethod
    def predict_rttf(self, vm: VirtualMachine) -> float:
        """Predicted seconds until the VM reaches its failure point."""

    def predict_rttf_batch(
        self, vms: "list[VirtualMachine]"
    ) -> np.ndarray:
        """Predicted RTTF for several VMs at once, in ``vms`` order.

        The base implementation loops :meth:`predict_rttf` (preserving
        any per-VM side effects such as RNG draws or history updates, in
        the same order a caller's own loop would).  Model-backed
        predictors override this to stack every VM's feature row into a
        single ``model.predict`` call -- the per-era inference hot path
        of the VMC and the DES loop.
        """
        return np.array([self.predict_rttf(vm) for vm in vms], dtype=float)

    def predict_rttf_rows(
        self, rows: np.ndarray, vms: "list[VirtualMachine]"
    ) -> np.ndarray:
        """Predict RTTF from pre-computed feature rows, in ``vms`` order.

        ``rows`` is the ``(len(vms), len(FEATURE_NAMES))`` matrix the VMC
        builds with
        :meth:`repro.pcam.state_table.VmStateTable.feature_matrix`; its
        values are bit-identical to each VM's
        ``sample_features().to_array()``.  The base implementation
        ignores the rows and defers to :meth:`predict_rttf_batch`, so
        oracle and wrapper predictors keep their exact semantics;
        model-backed predictors override it to feed the matrix straight
        into ``model.predict`` with no per-VM feature construction.
        """
        return self.predict_rttf_batch(vms)

    def evict(self, vm_name: str) -> None:
        """Forget any per-VM state held for ``vm_name``.

        Called by the VMC when a VM leaves the pool.  Stateless
        predictors need not override; stateful ones (trend windows,
        stale-value caches) must drop the entry so a future VM reusing
        the name starts clean.
        """


class TrainedRttfPredictor(RttfPredictor):
    """RTTF prediction through a trained F2PM model.

    Parameters
    ----------
    model:
        The deployed :class:`~repro.ml.toolchain.TrainedModel` (typically
        REP-Tree, per Sec. VI-A).
    floor_s:
        Predictions are clamped below at this value; regression models can
        output small negatives near the failure point.
    """

    def __init__(self, model: TrainedModel, floor_s: float = 0.0) -> None:
        if floor_s < 0:
            raise ValueError("floor_s must be >= 0")
        self.model = model
        self.floor_s = float(floor_s)

    def predict_rttf(self, vm: VirtualMachine) -> float:
        row = vm.sample_features().to_array()
        return max(float(self.model.predict_one(row)), self.floor_s)

    def predict_rttf_batch(
        self, vms: list[VirtualMachine]
    ) -> np.ndarray:
        if not vms:
            return np.empty(0, dtype=float)
        rows = np.vstack([vm.sample_features().to_array() for vm in vms])
        return self.predict_rttf_rows(rows, vms)

    def predict_rttf_rows(
        self, rows: np.ndarray, vms: list[VirtualMachine]
    ) -> np.ndarray:
        if not vms:
            return np.empty(0, dtype=float)
        return np.maximum(self.model.predict(rows), self.floor_s)


class TrendAwareRttfPredictor(RttfPredictor):
    """RTTF prediction over levels *and* trends.

    The wrapped :class:`~repro.ml.toolchain.TrainedModel` must have been
    trained on the derived schema of
    :func:`repro.ml.derived.augment_runs_with_slopes` (levels followed by
    per-feature slopes).  The predictor keeps a short per-VM window of
    ``(uptime, features)`` samples and computes the trailing slopes
    online; a freshly (re)started VM's window resets automatically when
    its uptime rewinds.

    Parameters
    ----------
    model:
        Trained on the derived schema (``2 * len(FEATURE_NAMES)`` source
        columns).
    window:
        Trailing samples used for the slope (matches the training-side
        ``window``).
    floor_s:
        Lower clamp on predictions.
    """

    def __init__(
        self, model: TrainedModel, window: int = 4, floor_s: float = 0.0
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if floor_s < 0:
            raise ValueError("floor_s must be >= 0")
        self.model = model
        self.window = int(window)
        self.floor_s = float(floor_s)
        self._history: dict[str, deque[tuple[float, np.ndarray]]] = {}

    def _derived_row(self, vm: VirtualMachine) -> np.ndarray:
        """Update ``vm``'s history window and build its derived row.

        Exactly one history append per call -- callers must sample each
        VM once per era (a second prediction double-appends).
        """
        return self._derived_from(vm, vm.sample_features().to_array())

    def _derived_from(self, vm: VirtualMachine, row: np.ndarray) -> np.ndarray:
        """Like :meth:`_derived_row` but from an already-sampled row."""
        hist = self._history.get(vm.name)
        if hist is None:
            hist = deque(maxlen=self.window + 1)
            self._history[vm.name] = hist
        # a rejuvenated VM restarts its life: drop the stale window
        if hist and vm.uptime_s < hist[-1][0]:
            hist.clear()
        hist.append((vm.uptime_s, row))
        times = np.array([t for t, _ in hist])
        feats = np.vstack([f for _, f in hist])
        slopes = slope_features(times, feats, window=self.window)
        return np.concatenate([row, slopes[-1]])

    def predict_rttf(self, vm: VirtualMachine) -> float:
        derived_row = self._derived_row(vm)
        return max(float(self.model.predict_one(derived_row)), self.floor_s)

    def predict_rttf_batch(
        self, vms: list[VirtualMachine]
    ) -> np.ndarray:
        if not vms:
            return np.empty(0, dtype=float)
        rows = np.vstack([self._derived_row(vm) for vm in vms])
        return np.maximum(self.model.predict(rows), self.floor_s)

    def predict_rttf_rows(
        self, rows: np.ndarray, vms: list[VirtualMachine]
    ) -> np.ndarray:
        if not vms:
            return np.empty(0, dtype=float)
        derived = np.vstack(
            [self._derived_from(vm, rows[k]) for k, vm in enumerate(vms)]
        )
        return np.maximum(self.model.predict(derived), self.floor_s)

    def evict(self, vm_name: str) -> None:
        self._history.pop(vm_name, None)


class ConservativeRttfPredictor(RttfPredictor):
    """Safety-margin wrapper around any RTTF predictor.

    Real prediction errors are two-sided, but the two directions cost
    differently: over-estimating RTTF risks a crash (missed rejuvenation),
    under-estimating only costs an early restart.  Scaling predictions by
    ``margin < 1`` biases PCAM toward the cheap error -- the standard
    asymmetric-loss trick for deployment.

    Parameters
    ----------
    inner:
        The wrapped predictor (trained model or oracle).
    margin:
        Multiplier in (0, 1]; e.g. 0.8 plans as if failures arrive 20 %
        earlier than predicted.
    """

    def __init__(self, inner: RttfPredictor, margin: float = 0.8) -> None:
        if not 0.0 < margin <= 1.0:
            raise ValueError(f"margin must be in (0, 1], got {margin}")
        self.inner = inner
        self.margin = float(margin)

    def predict_rttf(self, vm: VirtualMachine) -> float:
        return self.margin * self.inner.predict_rttf(vm)

    def predict_rttf_batch(
        self, vms: list[VirtualMachine]
    ) -> np.ndarray:
        return self.margin * self.inner.predict_rttf_batch(vms)

    def predict_rttf_rows(
        self, rows: np.ndarray, vms: list[VirtualMachine]
    ) -> np.ndarray:
        return self.margin * self.inner.predict_rttf_rows(rows, vms)

    def evict(self, vm_name: str) -> None:
        self.inner.evict(vm_name)


class OracleRttfPredictor(RttfPredictor):
    """Ground-truth mean-field RTTF (no ML error).

    Optionally corrupted with multiplicative noise to emulate prediction
    error in controlled amounts (ablation benches).
    """

    def __init__(
        self,
        mean_demand: float = 1.5,
        noise_std: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not 0 < mean_demand < math.inf:
            raise ValueError("mean_demand must be positive and finite")
        if noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if noise_std > 0 and rng is None:
            raise ValueError("rng required when noise_std > 0")
        self.mean_demand = float(mean_demand)
        self.noise_std = float(noise_std)
        self._rng = rng

    def predict_rttf(self, vm: VirtualMachine) -> float:
        return float(self.predict_rttf_batch([vm])[0])

    def predict_rttf_batch(
        self, vms: list[VirtualMachine]
    ) -> np.ndarray:
        """One :func:`~repro.pcam.vm.mean_field_ttf_s` call per VM.

        Reads each VM's anomaly level and last rate (one column gather
        when the pool shares a :class:`VmStateTable`), derives the
        instance-shape constants once per type, and writes nothing back;
        noise draws happen per finite value in ``vms`` order.
        """
        out = np.empty(len(vms), dtype=float)
        if not vms:
            return out
        leaked, stuck, rates = _anomaly_state(vms)
        mean_demand = self.mean_demand
        shapes: dict[int, tuple[float, float, float, int]] = {}
        for k, vm in enumerate(vms):
            itype = vm.itype
            shape = shapes.get(id(itype))
            if shape is None:
                shape = shapes[id(itype)] = (
                    itype.cpu_power,
                    usable_memory_mb(itype.memory_mb),
                    itype.swap_mb,
                    thread_free_slots(itype.thread_slots),
                )
            rate = rates[k]
            if rate <= 0:
                # An idle ACTIVE VM accumulates nothing; report its
                # remaining budget at a nominal 1 req/s to keep the
                # value finite.
                rate = 1.0
            policy = vm.failure_policy
            injector = vm.injector
            ttf = mean_field_ttf_s(
                leaked[k],
                stuck[k],
                rate,
                mean_demand,
                *shape,
                policy.sla_response_time_s,
                injector.expected_leak_rate_mb(rate),
                injector.expected_thread_rate(rate),
                policy.swap_exhaustion,
                policy.thread_exhaustion,
            )
            if self.noise_std > 0 and math.isfinite(ttf):
                assert self._rng is not None
                ttf *= max(1.0 + self._rng.normal(0.0, self.noise_std), 0.05)
            out[k] = ttf
        return out


def _anomaly_state(
    vms: list[VirtualMachine],
) -> tuple[list[float], list[int], list[float]]:
    """``(leaked_mb, stuck_threads, last_request_rate)`` lists in pool order."""
    table = getattr(vms[0], "table", None)
    if table is not None and all(
        getattr(vm, "table", None) is table for vm in vms
    ):
        rows = [vm.row for vm in vms]
        return (
            table.leaked_mb[rows].tolist(),
            table.stuck_threads[rows].tolist(),
            table.last_request_rate[rows].tolist(),
        )
    return (
        [vm.leaked_mb for vm in vms],
        [vm.stuck_threads for vm in vms],
        [vm.last_request_rate for vm in vms],
    )
