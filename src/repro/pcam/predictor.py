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
RTTF of VMs from their feature rows and table rows, one call per era over
every region the predictor serves.
"""

from __future__ import annotations

import abc
import math
from collections import deque

import numpy as np

from repro.ml.derived import slope_features
from repro.ml.toolchain import TrainedModel
from repro.pcam.state_table import VmStateTable
from repro.pcam.vm import VirtualMachine, mean_field_ttf_s

#: The trained predictors' lower clamp, read at each prediction: regression
#: models can output small negatives near the failure point.
FLOOR_S = 0.0


class RttfPredictor(abc.ABC):
    """Interface: predict the Remaining Time To Failure of a pool's VMs."""

    @abc.abstractmethod
    def predict_rttf_rows(
        self,
        features: np.ndarray,
        vms: "list[VirtualMachine]",
        table: VmStateTable,
        rows: np.ndarray,
    ) -> np.ndarray:
        """Predicted seconds until each VM fails, in ``vms`` order.

        ``vms[k]`` sits in row ``rows[k]`` of ``table`` (rows of several
        regions when a :class:`~repro.pcam.vmc.RegionGroup` steps them
        together), and ``features`` is the ``(len(vms),
        len(FEATURE_NAMES))`` matrix
        :meth:`repro.pcam.state_table.VmStateTable.feature_matrix` builds
        over those rows; its values are bit-identical to each VM's
        ``sample_features().to_array()``.  Model-backed predictors feed
        it straight into ``model.predict``; the oracle reads the table
        rows instead.  A predictor with per-VM side effects (RNG draws,
        history windows) applies them once per VM, in ``vms`` order, so
        a pooled call equals one one-row call per VM.
        """


class TrainedRttfPredictor(RttfPredictor):
    """RTTF prediction through a trained F2PM model.

    Parameters
    ----------
    model:
        The deployed :class:`~repro.ml.toolchain.TrainedModel` (typically
        REP-Tree, per Sec. VI-A).

    Predictions are clamped below at :data:`FLOOR_S`.
    """

    def __init__(self, model: TrainedModel) -> None:
        _check_floor()
        self.model = model

    def predict_rttf_rows(
        self,
        features: np.ndarray,
        vms: list[VirtualMachine],
        table: VmStateTable,
        rows: np.ndarray,
    ) -> np.ndarray:
        if not vms:
            return np.empty(0, dtype=float)
        return np.maximum(self.model.predict(features), FLOOR_S)


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

    Predictions are clamped below at :data:`FLOOR_S`.
    """

    def __init__(self, model: TrainedModel, window: int = 4) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        _check_floor()
        self.model = model
        self.window = int(window)
        self._history: dict[str, deque[tuple[float, np.ndarray]]] = {}

    def predict_rttf_rows(
        self,
        features: np.ndarray,
        vms: list[VirtualMachine],
        table: VmStateTable,
        rows: np.ndarray,
    ) -> np.ndarray:
        """Append each VM's ``(uptime, row)`` to its window, then predict
        from the rows with their trailing slopes appended.

        Exactly one history append per VM a call -- callers must predict
        each VM once per era (a second prediction double-appends).
        """
        if not vms:
            return np.empty(0, dtype=float)
        derived = []
        for vm, row in zip(vms, features):
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
        return np.maximum(self.model.predict(np.vstack(derived)), FLOOR_S)


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
        self,
        features: np.ndarray,
        vms: list[VirtualMachine],
        table: VmStateTable,
        rows: np.ndarray,
    ) -> np.ndarray:
        """One :func:`~repro.pcam.vm.mean_field_ttf_s` call per VM.

        Ignores ``features``: gathers each VM's anomaly level, last rate
        and shape constants from ``table``'s ``rows`` in one pass, and
        writes nothing back; noise draws happen per finite value in
        ``vms`` order.
        """
        out = np.empty(len(vms), dtype=float)
        if not vms:
            return out
        columns = zip(
            *(
                getattr(table, name)[rows].tolist()
                for name in (
                    "leaked_mb",
                    "stuck_threads",
                    "last_request_rate",
                    "cpu_power",
                    "usable_memory_mb",
                    "swap_mb",
                    "thread_free_slots",
                    "sla_response_time_s",
                )
            )
        )
        mean_demand = self.mean_demand
        for k, (
            leaked, stuck, rate, cpu_power, usable, swap, free_slots, sla,
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
            )
            if self.noise_std > 0 and math.isfinite(ttf):
                assert self._rng is not None
                ttf *= max(1.0 + self._rng.normal(0.0, self.noise_std), 0.05)
            out[k] = ttf
        return out


def _check_floor() -> None:
    """Refuse a :data:`FLOOR_S` that is negative or not finite (NaN would
    make every prediction NaN); a predictor checks it when built."""
    if not 0 <= FLOOR_S < math.inf:
        raise ValueError("FLOOR_S must be >= 0 and finite")
