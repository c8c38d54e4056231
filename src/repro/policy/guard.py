"""Reward-collapse guard: a circuit breaker for a learned policy head.

:class:`RewardGuard` keeps a rolling window of per-era rewards and
compares it against a baseline formed during warm-up.  When the rolling mean collapses below
``collapse_factor x baseline``, the guard engages -- *sticky*, like a
circuit breaker -- and the control loop reverts to its configured static
policy (Policy 1 by default in the eval harness) for the rest of the
run.  A learned head can therefore never do worse than "static policy
plus a bounded bad prefix", which is the property that makes deploying
one palatable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class RewardGuardConfig:
    """Tuning of the collapse detector.

    ``warmup_eras`` rewards form the baseline (their mean); after that
    the rolling mean of the last ``window`` rewards is compared against
    ``collapse_factor x baseline``.  Guarding only makes sense for
    positive baselines (the reward's availability term dominates in
    healthy runs); a baseline at or below ``min_baseline`` disables the
    check rather than dividing by noise.
    """

    window: int = 12
    warmup_eras: int = 24
    collapse_factor: float = 0.5
    min_baseline: float = 1e-6

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.warmup_eras < 1:
            raise ValueError("warmup_eras must be >= 1")
        if not 0.0 < self.collapse_factor < 1.0:
            raise ValueError("collapse_factor must be in (0, 1)")


class RewardGuard:
    """Sticky reward-collapse detector (see module docstring)."""

    def __init__(self, config: RewardGuardConfig | None = None) -> None:
        self.config = config or RewardGuardConfig()
        self.engaged = False
        self.baseline: float | None = None
        self._warmup: list[float] = []
        self._window: deque[float] = deque(maxlen=self.config.window)
        self.observations = 0

    def observe(self, reward: float) -> bool:
        """Fold one era's reward; returns the (possibly new) engaged state."""
        if self.engaged:
            return True
        self.observations += 1
        cfg = self.config
        if self.baseline is None:
            self._warmup.append(float(reward))
            if len(self._warmup) >= cfg.warmup_eras:
                self.baseline = sum(self._warmup) / len(self._warmup)
                self._warmup.clear()
            return False
        self._window.append(float(reward))
        if (
            self.baseline > cfg.min_baseline
            and len(self._window) == cfg.window
        ):
            rolling = sum(self._window) / len(self._window)
            if rolling < cfg.collapse_factor * self.baseline:
                self.engaged = True
        return self.engaged
