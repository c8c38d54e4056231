"""Closed-loop emulated-browser populations.

TPC-W drives the system with *emulated browsers* (EBs): each EB issues a
request, waits for the response, thinks for an exponentially distributed
time (spec mean 7 s), and repeats.  The offered load of ``N`` EBs facing
mean response time ``R`` is the classic closed-loop rate ``N / (Z + R)``
with think time ``Z`` -- the form the fluid simulation uses.  The DES path
samples individual think times.

The paper varies "the number of active clients (towards each cloud region)
in the interval [16, 512], ensuring that the clients connected to each
cloud region ... were significantly different in number" (Sec. VI-A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: TPC-W specification mean think time (seconds), read at each call.
THINK_TIME_S = 7.0

#: Paper's client-count interval per region.
CLIENT_RANGE = (16, 512)


def closed_loop_rate(
    n_clients: int, think_time_s: float, response_time_s: float
) -> float:
    """Steady-state request rate of a closed-loop population.

    ``lambda = N / (Z + R)`` -- interactive response time law rearranged.
    """
    if n_clients < 0:
        raise ValueError("n_clients must be >= 0")
    # written as ``not <range>`` so that NaN fails too
    if not 0 < think_time_s < math.inf:
        raise ValueError("think_time_s must be positive and finite")
    if response_time_s < 0:
        raise ValueError("response_time_s must be >= 0")
    return n_clients / (think_time_s + response_time_s)


@dataclass
class BrowserPopulation:
    """A population of emulated browsers attached to one cloud region.

    Parameters
    ----------
    n_clients:
        Number of EBs, each running the TPC-W shopping mix and thinking
        :data:`THINK_TIME_S` on average; the paper uses values in
        [16, 512].
    name:
        Label used in traces ("clients@region1").
    """

    n_clients: int
    name: str = "clients"

    def __post_init__(self) -> None:
        if self.n_clients < 0:
            raise ValueError("n_clients must be >= 0")

    def offered_rate(self, response_time_s: float = 0.0) -> float:
        """Closed-loop request rate given the current mean response time."""
        return closed_loop_rate(self.n_clients, THINK_TIME_S, response_time_s)

    def sample_think_times(
        self, rng: np.random.Generator, size: int
    ) -> np.ndarray:
        """Draw ``size`` exponential think times (DES path)."""
        if size < 0:
            raise ValueError("size must be >= 0")
        return rng.exponential(THINK_TIME_S, size=size)

