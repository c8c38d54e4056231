"""Rolling-window SLO evaluation for one region.

The evaluator ingests raw signals -- request latencies, request
outcomes, and an instantaneous queue depth -- and reduces them to a
verdict with *hysteresis*: the thresholds that enter a breach are
stricter than the ones that exit it (``exit_ratio``), so a region
hovering exactly at its target cannot flap the ladder.

The p95 is the nearest-rank estimator shared with the load generator's
report (:func:`nearest_rank_quantile`), so the client-side and
server-side percentiles agree on small samples.  Deciding against it
needs no order statistic: with ``n`` samples and ``r`` the p95's rank,
``p95 > x`` exactly when more than ``n - r`` samples exceed ``x``, ties
included.  The window therefore keeps two threshold counts, and a
request's verdict costs the same at any window size; the p95 value
itself is computed only when something reads it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

#: The quantile the latency signal watches.
P95 = 0.95

#: Expired slots a window column may carry before it compacts: trimming
#: moves a head index, and the expired prefix is dropped in one memmove
#: once it is at least this long and longer than the live part.
COMPACT_SLACK = 4096


def nearest_rank(n: int, q: float) -> int:
    """1-based rank of the nearest-rank ``q``-quantile of ``n >= 1`` values.

    For ``0 <= q <= 1`` the rank is at most ``n``; it is below 1 only
    when ``q * n`` is within the epsilon of 0, and then it is 1.

    The rank product is computed with a small epsilon because ``q * n``
    is not exact in binary floating point -- ``0.07 * 100`` evaluates to
    ``7.000000000000001``, and a bare ``ceil`` would skip from the 7th
    order statistic to the 8th.
    """
    return math.ceil(q * n - 1e-9) or 1


def nearest_rank_quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile: the ``ceil(q * n)``-th smallest value.

    Returns NaN for an empty sample; :func:`nearest_rank` has the rank.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    n = len(values)
    if n == 0:
        return float("nan")
    return float(sorted(values)[nearest_rank(n, q) - 1])


@dataclass(frozen=True)
class SloConfig:
    """Per-region SLO targets and ladder tuning.

    ``p95_target_s`` is the enter threshold for the latency signal; the
    exit threshold is ``exit_ratio * p95_target_s`` (the hysteresis
    band).  ``queue_depth_max`` <= 0 disables the queue signal and
    ``error_budget`` >= 1 disables the error-rate signal, so the default
    config watches latency alone.  ``min_dwell_s`` is the minimum time
    the adaptive rung holds a degraded level before it may recover.
    ``shed_factor`` is the sim-side degradation multiplier applied to a
    degraded region's forward fraction (the serve side sheds outright
    with 429s instead).
    """

    p95_target_s: float = 1.0
    exit_ratio: float = 0.8
    queue_depth_max: float = 0.0
    error_budget: float = 1.0
    window_s: float = 60.0
    min_dwell_s: float = 60.0
    shed_factor: float = 0.5

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.p95_target_s <= 0:
            raise ValueError(f"p95_target_s must be > 0, got {self.p95_target_s}")
        if not 0.0 < self.exit_ratio <= 1.0:
            raise ValueError(
                f"exit_ratio must be in (0, 1], got {self.exit_ratio}"
            )
        if self.error_budget < 0:
            raise ValueError(
                f"error_budget must be >= 0, got {self.error_budget}"
            )
        if self.window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {self.window_s}")
        if self.min_dwell_s < 0:
            raise ValueError(
                f"min_dwell_s must be >= 0, got {self.min_dwell_s}"
            )
        if not 0.0 < self.shed_factor <= 1.0:
            raise ValueError(
                f"shed_factor must be in (0, 1], got {self.shed_factor}"
            )

    def spec(self) -> str:
        """Compact spec string round-tripping through :func:`parse_slo_spec`.

        Always carries ``p95``; other keys only when they differ from
        the defaults, so the string stays short and manifest-stable.
        """
        default = type(self)()
        parts = [f"p95:{self.p95_target_s:g}"]
        for key, name in _SPEC_KEYS.items():
            if key == "p95":
                continue
            value = getattr(self, name)
            if value != getattr(default, name):
                parts.append(f"{key}:{value:g}")
        return "+".join(parts)


#: parse_slo_spec key -> SloConfig field.
_SPEC_KEYS = {
    "p95": "p95_target_s",
    "exit": "exit_ratio",
    "queue": "queue_depth_max",
    "budget": "error_budget",
    "window": "window_s",
    "dwell": "min_dwell_s",
    "shed": "shed_factor",
}


def parse_slo_spec(spec: str) -> SloConfig:
    """Parse a compact SLO spec string into an :class:`SloConfig`.

    The grammar is ``key:value`` pairs joined with ``+`` (commas are
    taken by the sweep CLI's axis separator)::

        p95:0.5                       # 500 ms p95 target, defaults else
        p95:0.5+dwell:120+shed:0.25   # plus dwell / shed overrides

    Keys: ``p95`` (s), ``exit`` (ratio), ``queue`` (depth), ``budget``
    (error fraction), ``window`` (s), ``dwell`` (s), ``shed`` (factor).
    The string round-trips through fleet cell names, so it must stay
    free of ``/`` and ``,``.
    """
    if not spec:
        raise ValueError("empty SLO spec")
    fields: dict[str, float] = {}
    for part in spec.split("+"):
        key, sep, value = part.partition(":")
        if not sep or key not in _SPEC_KEYS:
            known = ", ".join(sorted(_SPEC_KEYS))
            raise ValueError(
                f"bad SLO spec part {part!r} (expected key:value with "
                f"key in {{{known}}})"
            )
        try:
            fields[_SPEC_KEYS[key]] = float(value)
        except ValueError:
            raise ValueError(
                f"bad SLO spec value {value!r} for key {key!r}"
            ) from None
    return SloConfig(**fields)


@dataclass(frozen=True)
class SloStatus:
    """One evaluation of a region's window against its targets.

    ``breach`` uses the enter thresholds; ``recovered`` uses the laxer
    exit thresholds.  Both can be False at once (the hysteresis band);
    they are never True at once.
    """

    p95_s: float
    samples: int
    queue_depth: float
    error_rate: float
    breach: bool
    recovered: bool


class Verdict(NamedTuple):
    """The two bits the ladder steps on; never both True."""

    breach: bool
    recovered: bool


_BREACH = Verdict(breach=True, recovered=False)
_HOLD = Verdict(breach=False, recovered=False)
_RECOVERED = Verdict(breach=False, recovered=True)


def _trimmed(stamps: array, head: int, horizon: float) -> int:
    """Move ``head`` past the stamps before ``horizon``; the new head.

    The expired prefix is dropped (one memmove) once it is at least
    :data:`COMPACT_SLACK` long and longer than the live part.
    """
    end = len(stamps)
    while head < end and stamps[head] < horizon:
        head += 1
    if head >= COMPACT_SLACK and head > end - head:
        del stamps[:head]
        return 0
    return head


class SloEvaluator:
    """Rolling-window signal store + threshold evaluation for one region.

    The window is flat float columns -- latency stamps and values,
    outcome stamps, error stamps -- with no object per sample.  Trimming
    moves each column's head past the expired stamps (the same prefix a
    deque would pop) and compaction is amortised (:data:`COMPACT_SLACK`),
    so storage stays within twice the live samples plus the slack.  The
    latency column carries two counts, samples above ``p95_target_s`` and
    above ``exit_ratio * p95_target_s``, which decide :meth:`verdict` in
    O(1) amortised per request; the serve ingress calls it on every
    request.  :meth:`p95` partitions the live values when read -- the era
    sweep's gauge, ``/slo`` and the ``slo.transition`` event.

    Errors keep a stamp column of their own; with non-decreasing stamps
    (both hosts' clocks are) every column expires exactly what one
    deque of outcomes would.  Non-finite samples are refused.
    """

    def __init__(self, config: SloConfig) -> None:
        self.config = config
        self._window_s = config.window_s
        self._target_s = config.p95_target_s
        # each exit threshold is the float product a p95 comparison
        # used, so the counts decide bit for bit alike
        self._exit_s = config.exit_ratio * config.p95_target_s
        self._queue_on = config.queue_depth_max > 0
        self._queue_exit = config.exit_ratio * config.queue_depth_max
        self._budget_on = config.error_budget < 1.0
        self._budget_exit = config.exit_ratio * config.error_budget
        self._lat_t = array("d")
        self._lat_v = array("d")
        self._lat_head = 0
        self._over_target = 0
        self._over_exit = 0
        self._out_t = array("d")
        self._out_head = 0
        self._err_t = array("d")
        self._err_head = 0
        self._queue_depth = 0.0

    def observe_latency(self, now: float, latency_s: float) -> None:
        value = float(latency_s)
        if not math.isfinite(value):
            raise ValueError(f"latency must be finite, got {value}")
        self._lat_t.append(now)
        self._lat_v.append(value)
        # exit_ratio <= 1, so above the target is above the exit too
        if value > self._exit_s:
            self._over_exit += 1
            if value > self._target_s:
                self._over_target += 1

    def observe_outcome(self, now: float, ok: bool) -> None:
        self._out_t.append(now)
        if not ok:
            self._err_t.append(now)

    def set_queue_depth(self, depth: float) -> None:
        value = float(depth)
        if not math.isfinite(value):
            raise ValueError(f"queue depth must be finite, got {value}")
        self._queue_depth = value if value > 0.0 else 0.0

    def _trim(self, now: float) -> None:
        horizon = now - self._window_s
        stamps = self._lat_t
        head = self._lat_head
        end = len(stamps)
        if head < end and stamps[head] < horizon:
            values = self._lat_v
            exit_s, target_s = self._exit_s, self._target_s
            while head < end and stamps[head] < horizon:
                value = values[head]
                if value > exit_s:
                    self._over_exit -= 1
                    if value > target_s:
                        self._over_target -= 1
                head += 1
            if head >= COMPACT_SLACK and head > end - head:  # as _trimmed
                del stamps[:head]
                del values[:head]
                head = 0
            self._lat_head = head
        stamps = self._out_t
        if self._out_head < len(stamps):
            self._out_head = _trimmed(stamps, self._out_head, horizon)
        stamps = self._err_t
        if self._err_head < len(stamps):
            self._err_head = _trimmed(stamps, self._err_head, horizon)

    def _error_rate(self) -> float:
        total = len(self._out_t) - self._out_head
        if not total:
            return 0.0
        return (len(self._err_t) - self._err_head) / total

    def verdict(self, now: float) -> Verdict:
        """Breach / recovery of the window ending at ``now``.

        An empty latency window is treated as healthy (nothing to
        breach on) -- this is what lets a fully-shed region drain and
        recover once its dwell time elapses.
        """
        self._trim(now)
        recovered = True
        n = len(self._lat_t) - self._lat_head
        if n:
            # p95 > x  <=>  more than n - rank samples exceed x
            allowed = n - nearest_rank(n, P95)
            if self._over_target > allowed:
                return _BREACH
            recovered = self._over_exit <= allowed
        if self._queue_on:
            if self._queue_depth > self.config.queue_depth_max:
                return _BREACH
            recovered = recovered and self._queue_depth <= self._queue_exit
        if self._budget_on:
            error_rate = self._error_rate()
            if error_rate > self.config.error_budget:
                return _BREACH
            recovered = recovered and error_rate <= self._budget_exit
        return _RECOVERED if recovered else _HOLD

    def p95(self, now: float) -> float:
        """Nearest-rank p95 of the window ending at ``now`` (NaN if empty)."""
        self._trim(now)
        head = self._lat_head
        n = len(self._lat_v) - head
        if not n:
            return float("nan")
        k = nearest_rank(n, P95) - 1
        live = np.frombuffer(self._lat_v, dtype=np.float64)[head:]
        return float(np.partition(live, k)[k])

    def status(self, now: float) -> SloStatus:
        """The verdict at ``now`` with the signals behind it."""
        verdict = self.verdict(now)
        return SloStatus(
            p95_s=self.p95(now),
            samples=len(self._lat_t) - self._lat_head,
            queue_depth=self._queue_depth,
            error_rate=self._error_rate(),
            breach=verdict.breach,
            recovered=verdict.recovered,
        )
