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
* :class:`OracleRttfPredictor` -- the mean-field ground truth: every
  figure's default predictor, and (with noise) the ablation benches'
  way to add prediction error in controlled amounts.

Each answers one question, :meth:`RttfPredictor.predict_rttf_rows`: the
RTTF of a pool's VMs from their feature rows, one call per era.
"""

from __future__ import annotations

import abc
import math
from collections import deque

import numpy as np

from repro.ml.derived import slope_features
from repro.ml.toolchain import TrainedModel
from repro.pcam.vm import VirtualMachine, mean_field_ttf_s


class RttfPredictor(abc.ABC):
    """Interface: predict the Remaining Time To Failure of a pool's VMs."""

    @abc.abstractmethod
    def predict_rttf_rows(
        self, rows: np.ndarray, vms: "list[VirtualMachine]"
    ) -> np.ndarray:
        """Predicted seconds until each VM fails, in ``vms`` order.

        ``rows`` is the ``(len(vms), len(FEATURE_NAMES))`` matrix the VMC
        builds with
        :meth:`repro.pcam.state_table.VmStateTable.feature_matrix`; its
        values are bit-identical to each VM's
        ``sample_features().to_array()``.  Model-backed predictors feed
        it straight into ``model.predict``; the oracle reads the VMs'
        table rows instead.  A predictor with per-VM side effects (RNG
        draws, history windows) applies them once per VM, in ``vms``
        order, so a pooled call equals one one-row call per VM.
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
        self.model = model
        self.floor_s = _finite_floor(floor_s)

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
        self.model = model
        self.window = int(window)
        self.floor_s = _finite_floor(floor_s)
        self._history: dict[str, deque[tuple[float, np.ndarray]]] = {}

    def predict_rttf_rows(
        self, rows: np.ndarray, vms: list[VirtualMachine]
    ) -> np.ndarray:
        """Append each VM's ``(uptime, row)`` to its window, then predict
        from the rows with their trailing slopes appended.

        Exactly one history append per VM a call -- callers must predict
        each VM once per era (a second prediction double-appends).
        """
        if not vms:
            return np.empty(0, dtype=float)
        derived = []
        for vm, row in zip(vms, rows):
            hist = self._history.get(vm.name)
            if hist is None:
                hist = self._history[vm.name] = deque(maxlen=self.window + 1)
            # a rejuvenated VM restarts its life: drop the stale window
            if hist and vm.uptime_s < hist[-1][0]:
                hist.clear()
            hist.append((vm.uptime_s, row))
            times = np.array([t for t, _ in hist])
            feats = np.vstack([f for _, f in hist])
            slopes = slope_features(times, feats, window=self.window)
            derived.append(np.concatenate([row, slopes[-1]]))
        return np.maximum(self.model.predict(np.vstack(derived)), self.floor_s)


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
        if not 0 <= noise_std < math.inf:
            raise ValueError("noise_std must be >= 0 and finite")
        if noise_std > 0 and rng is None:
            raise ValueError("rng required when noise_std > 0")
        self.mean_demand = float(mean_demand)
        self.noise_std = float(noise_std)
        self._rng = rng

    def predict_rttf_rows(
        self, rows: np.ndarray, vms: list[VirtualMachine]
    ) -> np.ndarray:
        """One :func:`~repro.pcam.vm.mean_field_ttf_s` call per VM.

        Ignores ``rows``: gathers each VM's anomaly level, last rate and
        shape constants from the pool's
        :class:`~repro.pcam.state_table.VmStateTable` in one pass, and
        writes nothing back; noise draws happen per finite value in
        ``vms`` order.
        """
        out = np.empty(len(vms), dtype=float)
        if not vms:
            return out
        table = vms[0].table
        idx = np.array([vm.row for vm in vms])
        columns = zip(
            *(
                getattr(table, name)[idx].tolist()
                for name in (
                    "leaked_mb",
                    "stuck_threads",
                    "last_request_rate",
                    "cpu_power",
                    "usable_memory_mb",
                    "swap_mb",
                    "thread_free_slots",
                    "sla_response_time_s",
                    "swap_exhaustion",
                    "thread_exhaustion",
                )
            )
        )
        mean_demand = self.mean_demand
        for k, (
            leaked, stuck, rate, cpu_power, usable, swap, free_slots, sla,
            swap_exhaustion, thread_exhaustion,
        ) in enumerate(columns):
            if rate <= 0:
                # An idle ACTIVE VM accumulates nothing; report its
                # remaining budget at a nominal 1 req/s to keep the
                # value finite.
                rate = 1.0
            injector = vms[k].injector
            ttf = mean_field_ttf_s(
                leaked,
                stuck,
                rate,
                mean_demand,
                cpu_power,
                usable,
                swap,
                free_slots,
                sla,
                injector.expected_leak_rate_mb(rate),
                injector.expected_thread_rate(rate),
                swap_exhaustion,
                thread_exhaustion,
            )
            if self.noise_std > 0 and math.isfinite(ttf):
                assert self._rng is not None
                ttf *= max(1.0 + self._rng.normal(0.0, self.noise_std), 0.05)
            out[k] = ttf
        return out


def _finite_floor(floor_s: float) -> float:
    """``floor_s`` as a float; NaN would make every prediction NaN."""
    if not 0 <= floor_s < math.inf:
        raise ValueError("floor_s must be >= 0 and finite")
    return float(floor_s)
