"""Open arrival processes.

Complementing the closed-loop browsers, the experiment harness sometimes
needs an *open* request stream (e.g. for stressing a single VM during F2PM
profiling, or for the autoscaling demo where the global rate ramps):
:class:`PoissonArrivals` -- homogeneous Poisson with optional rate ramps.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class PoissonArrivals:
    """Homogeneous (or piecewise-varying) Poisson arrival sampler.

    Parameters
    ----------
    rate:
        Either a constant rate (requests/second) or a callable
        ``rate(t) -> float`` for time-varying workloads; the time-varying
        case is sampled by thinning against ``rate_max``.
    rng:
        Dedicated random stream.
    rate_max:
        Upper bound of a callable rate (required in that case).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        rate: float | Callable[[float], float],
        rate_max: float | None = None,
    ) -> None:
        self._rng = rng
        if callable(rate):
            if rate_max is None or rate_max <= 0:
                raise ValueError(
                    "rate_max (positive) is required for a callable rate"
                )
            self._rate_fn = rate
            self._rate_max = float(rate_max)
        else:
            if rate < 0:
                raise ValueError("rate must be >= 0")
            self._rate_fn = None
            self._rate_const = float(rate)

    def next_interarrival(self, now: float = 0.0) -> float:
        """Sample the time until the next arrival after ``now``.

        Constant-rate path draws one exponential; the time-varying path uses
        Lewis-Shedler thinning.  Returns ``inf`` for zero rate.
        """
        if self._rate_fn is None:
            if self._rate_const == 0.0:
                return float("inf")
            return float(self._rng.exponential(1.0 / self._rate_const))
        t = now
        while True:
            t += float(self._rng.exponential(1.0 / self._rate_max))
            if self._rng.random() <= self._rate_fn(t) / self._rate_max:
                return t - now

    def sample_window(self, t_start: float, t_end: float) -> np.ndarray:
        """All arrival instants in ``[t_start, t_end)`` (sorted array)."""
        if t_end < t_start:
            raise ValueError("t_end must be >= t_start")
        out = []
        t = t_start
        while True:
            dt = self.next_interarrival(t)
            t += dt
            if t >= t_end:
                break
            out.append(t)
        return np.asarray(out, dtype=float)
