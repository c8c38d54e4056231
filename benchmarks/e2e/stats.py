"""Sample statistics the benchmark reports: percentiles, spread, the knee.

Kept free of ``repro`` imports so the self-tests run without the package.
"""

from __future__ import annotations

import math
import statistics

#: Percentiles a timing may be reported at, lowest first.
TAIL_LADDER = (0.50, 0.90, 0.95, 0.99, 0.999)

#: A timing is reported at a percentile only with this many samples beyond.
MIN_BEYOND = 10

#: Knee rule: share of scheduled requests that must return 200 in time, the
#: latency limit measured from the due instant, and the share of the offered
#: rate that must be achieved (below it the backlog is growing).
KNEE_OK_SHARE = 0.99
KNEE_LIMIT_MS = 20.0
KNEE_ACHIEVED_SHARE = 0.97


def percentile(values, q: float) -> float:
    """Nearest rank: the smallest value with >= q of the sample at or below."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    # 0.95 * 20 is 19.000000000000004 in floats; without the guard the
    # ceiling lands on rank 20 and reports the maximum as the p95
    rank = math.ceil(q * len(ordered) - 1e-9)
    return ordered[max(rank, 1) - 1]


def highest_supported(n: int) -> float:
    """The highest ladder percentile with >= MIN_BEYOND samples beyond it."""
    supported = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if n - math.ceil(q * n - 1e-9) >= MIN_BEYOND:
            supported = q
    return supported


def summarize(values) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``) and sample count."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("summary of an empty sample")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def step_passes(step: dict) -> bool:
    """Whether one open-loop ladder step meets the knee rule.

    ``step`` carries ``rate_rps`` (the ladder's nominal rate), ``scheduled``
    (requests due in the leg), ``ok_in_limit`` (200s answered within
    KNEE_LIMIT_MS of their due instant -- a refused, failed or late request
    misses), and the ``offered_rps`` and ``achieved_rps`` actually measured.
    """
    if step["scheduled"] <= 0:
        return False
    in_time = step["ok_in_limit"] / step["scheduled"] >= KNEE_OK_SHARE
    keeps_up = (
        step["achieved_rps"] >= KNEE_ACHIEVED_SHARE * step["offered_rps"]
    )
    return in_time and keeps_up


def knee(steps) -> float:
    """Highest rate of an ascending ladder up to which every step passes."""
    best = 0.0
    for step in steps:
        if not step_passes(step):
            break
        best = float(step["rate_rps"])
    return best
