"""Time-varying client-population profiles.

The paper's experiments run fixed client counts; production workloads
breathe.  :class:`DiurnalProfile` models the standard day-cycle shape --
a sinusoid between a trough and a peak, optional noise -- and is used by
the autoscaling examples and benches to show ACM's pool tracking a moving
load (Sec. V: "when the global workload increases, the failure rate of
VMs ... may increase").
"""

from __future__ import annotations

import numpy as np


class DiurnalProfile:
    """Sinusoidal daily client-count profile.

    ``clients(t) = mid + amp * sin(2 pi (t - phase)/period)`` clipped to
    ``[trough, peak]``, plus optional multiplicative noise.

    Parameters
    ----------
    trough_clients, peak_clients:
        Daily minimum / maximum populations.
    period_s:
        Cycle length (86 400 for a real day; compress for simulation).
    phase_s:
        Time of the ascending zero crossing.
    noise_std:
        Relative noise on the count (0 disables; needs ``rng``).
    """

    def __init__(
        self,
        trough_clients: int,
        peak_clients: int,
        period_s: float = 86_400.0,
        phase_s: float = 0.0,
        noise_std: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        if trough_clients < 1:
            raise ValueError("trough_clients must be >= 1")
        if peak_clients < trough_clients:
            raise ValueError("peak_clients must be >= trough_clients")
        if not 0 < period_s < np.inf:
            raise ValueError("period_s must be positive and finite")
        if not np.isfinite(phase_s):
            raise ValueError("phase_s must be finite")
        if not 0 <= noise_std < np.inf:
            raise ValueError("noise_std must be finite and >= 0")
        if noise_std > 0 and rng is None:
            raise ValueError("rng required when noise_std > 0")
        self.trough = int(trough_clients)
        self.peak = int(peak_clients)
        self.period_s = float(period_s)
        self.phase_s = float(phase_s)
        self.noise_std = float(noise_std)
        self._rng = rng

    def clients_at(self, t: float) -> int:
        """Client count at simulated time ``t`` (>= 1 always)."""
        mid = 0.5 * (self.peak + self.trough)
        amp = 0.5 * (self.peak - self.trough)
        value = mid + amp * np.sin(
            2.0 * np.pi * (t - self.phase_s) / self.period_s
        )
        if self.noise_std > 0:
            assert self._rng is not None
            value *= 1.0 + self._rng.normal(0.0, self.noise_std)
        return max(1, int(round(min(max(value, self.trough * 0.5), self.peak * 1.5))))

    def mean_clients(self) -> float:
        """Time-average of the noiseless profile."""
        return 0.5 * (self.peak + self.trough)

    def peak_time(self) -> float:
        """First time after phase at which the profile peaks."""
        return self.phase_s + self.period_s / 4.0
