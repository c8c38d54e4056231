"""Rejuvenation disciplines: when to restart a degrading VM.

The paper builds on the software-rejuvenation literature (refs. [2], [3]):
classic systems rejuvenate *periodically* (restart every T regardless of
state), while PCAM's contribution is *predictive* rejuvenation driven by
the ML-estimated RTTF.  Making the discipline pluggable lets the ablation
bench quantify the gap the paper takes as motivation:

* :class:`RttfThresholdRejuvenation` -- PCAM's discipline (Sec. III):
  rejuvenate when the predicted RTTF drops below a user threshold;
* :class:`PeriodicRejuvenation` -- the classic time-based baseline:
  rejuvenate every ``period_s`` of uptime;
* :class:`NoRejuvenation` -- the do-nothing control: VMs run to failure
  and recover reactively.

All disciplines answer one question per era over the ACTIVE pool: "which
of these VMs should be swapped out now, most urgent first?".  The VMC
still pairs every swap with a standby ACTIVATE.
"""

from __future__ import annotations

import abc
import math

import numpy as np


class RejuvenationDiscipline(abc.ABC):
    """Decides, per era, which ACTIVE VMs to rejuvenate proactively."""

    @abc.abstractmethod
    def at_risk(
        self, rttf: np.ndarray, uptime: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The VMs to swap out this era and how urgently.

        Parameters
        ----------
        rttf:
            Predicted remaining time to failure (seconds) of each ACTIVE
            VM, in pool order.
        uptime:
            Each VM's uptime (seconds), aligned with ``rttf``.

        Returns
        -------
        ``(positions, urgency)``: the candidates as increasing positions
        into ``rttf``, and one ordering key each (lower = more urgent).
        """


class RttfThresholdRejuvenation(RejuvenationDiscipline):
    """PCAM's predictive discipline: swap when RTTF < threshold (Sec. III).

    Parameters
    ----------
    threshold_s:
        "Whenever the estimated RTTF of an ACTIVE VM is less than a
        threshold (established by the user), VMC sends an ACTIVATE command
        to a VM in the STANDBY state and a REJUVENATE command to the
        about-to-fail VM."
    """

    def __init__(self, threshold_s: float = 240.0) -> None:
        # written so that NaN fails: `rttf < nan` never triggers a swap
        if not threshold_s >= 0:
            raise ValueError("threshold_s must be >= 0")
        self.threshold_s = float(threshold_s)

    def at_risk(
        self, rttf: np.ndarray, uptime: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        pos = (rttf < self.threshold_s).nonzero()[0]
        return pos, rttf[pos]


class PeriodicRejuvenation(RejuvenationDiscipline):
    """Classic time-based rejuvenation: restart every ``period_s`` uptime.

    Ignores the ML prediction entirely -- the baseline from the software
    rejuvenation literature the paper improves on.  A period too long
    lets VMs crash; too short wastes capacity on restarts; PCAM's
    prediction adapts per-VM instead.
    """

    def __init__(self, period_s: float) -> None:
        if not 0 < period_s < math.inf:
            raise ValueError("period_s must be positive and finite")
        self.period_s = float(period_s)

    def at_risk(
        self, rttf: np.ndarray, uptime: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        pos = (uptime >= self.period_s).nonzero()[0]
        # the longest-running VM goes first
        return pos, -uptime[pos]


class NoRejuvenation(RejuvenationDiscipline):
    """Control discipline: never rejuvenate proactively.

    VMs run until they hit their failure point; the VMC's reactive path
    (FAILED -> REJUVENATING) is the only recovery.  Quantifies the
    availability loss the paper's whole mechanism exists to avoid.
    """

    def at_risk(
        self, rttf: np.ndarray, uptime: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        return np.empty(0, dtype=np.intp), np.empty(0)
