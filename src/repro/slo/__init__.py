"""SLO-aware admission control (ROADMAP item 5, SNIPPETS Snippet 2).

Per-region service-level objectives (p95 latency target, queue-depth
threshold, rolling error budget) are evaluated over a rolling time
window and fed into a deterministic priority ladder -- kill-switch >
manual override > adaptive > default -- with hysteresis bands (separate
enter/exit thresholds) and a minimum dwell time so the control signal
cannot oscillate era to era.

One plane, :class:`SloController`, turns windows into levels for two
hosts that differ in clock and actuator:

- the serve ingress (``repro.serve.service``) advances it per request on
  ``time.monotonic()`` and sheds with HTTP 429 + ``Retry-After`` while a
  region's ladder sits at ``degraded``;
- the sim-side MAPE loop (``repro.core.control_loop``) sweeps it once an
  era on virtual time and shapes the planned forward fractions away from
  degraded regions.

Everything here is pure stdlib + numpy and imports nothing from the
core/serve layers, so either side can depend on it freely.
"""

from repro.slo.evaluator import (
    SloConfig,
    SloEvaluator,
    SloStatus,
    nearest_rank_quantile,
    parse_slo_spec,
)
from repro.slo.ladder import (
    LEVEL_CODES,
    LEVEL_DEGRADED,
    LEVEL_NORMAL,
    SOURCE_ADAPTIVE,
    SOURCE_DEFAULT,
    SOURCE_KILL_SWITCH,
    SOURCE_MANUAL,
    Decision,
    PriorityLadder,
)
from repro.slo.controller import SloController

__all__ = [
    "Decision",
    "LEVEL_CODES",
    "LEVEL_DEGRADED",
    "LEVEL_NORMAL",
    "PriorityLadder",
    "SOURCE_ADAPTIVE",
    "SOURCE_DEFAULT",
    "SOURCE_KILL_SWITCH",
    "SOURCE_MANUAL",
    "SloConfig",
    "SloController",
    "SloEvaluator",
    "SloStatus",
    "nearest_rank_quantile",
    "parse_slo_spec",
]
