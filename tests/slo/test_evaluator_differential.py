"""The threshold-count window against the bisect-sorted reference.

Seeded streams -- latencies on a grid that lands exactly on the enter
and exit thresholds, gaps longer than the window, failures, queue
depths on both sides of each threshold, the odd operator toggle -- run
through :class:`~repro.slo.evaluator.SloEvaluator` /
:class:`~repro.slo.controller.SloController` and through
``tests/slo/reference_evaluator.py``.  Every ``SloStatus`` field and
every ladder decision must be equal at every step.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.obs.telemetry import Telemetry
from repro.slo import SloConfig, SloController, SloEvaluator
from tests.slo.reference_evaluator import ReferenceLadder, ReferenceSloEvaluator

STEPS = 20_000

CONFIGS = {
    "default": SloConfig(),
    "queue": SloConfig(queue_depth_max=8.0),
    "budget": SloConfig(error_budget=0.1),
}


def fields(status) -> tuple:
    """A status as a tuple that compares NaN p95s equal."""
    p95 = None if math.isnan(status.p95_s) else status.p95_s
    return (p95, status.samples, status.queue_depth, status.error_rate,
            status.breach, status.recovered)


def stream(cfg: SloConfig, seed: int):
    """Yield ``(now, ops)`` steps; ``ops`` is a list of (method, arg)."""
    rng = np.random.default_rng(seed)
    target = cfg.p95_target_s
    exit_s = cfg.exit_ratio * target
    fast = [0.0, 0.25 * target]
    slow = [exit_s, exit_s + 0.5 * (target - exit_s), target, 2.0 * target]
    q = cfg.queue_depth_max if cfg.queue_depth_max > 0 else 8.0
    depths = [-1.0, 0.0, 0.5 * q, cfg.exit_ratio * q, q, 1.5 * q]
    slow_share, err_share = 0.05, 0.1
    now = 0.0
    for _ in range(STEPS):
        if rng.random() < 0.01:
            slow_share = float(rng.choice([0.0, 0.03, 0.05, 0.08, 0.2, 0.6]))
            err_share = float(rng.choice([0.0, 0.05, 0.08, 0.1, 0.15, 0.4]))
        if rng.random() < 0.005:
            now += cfg.window_s * (1.01 + rng.random())
        else:
            now += cfg.window_s / 200.0 * 2.0 * rng.random()
        ops = []
        if rng.random() < 0.7:
            grid = slow if rng.random() < slow_share else fast
            ops.append(("observe_latency", grid[rng.integers(len(grid))]))
        if rng.random() < 0.5:
            ops.append(("observe_outcome", bool(rng.random() >= err_share)))
        if rng.random() < 0.1:
            ops.append(("set_queue_depth", depths[rng.integers(len(depths))]))
        u = rng.random()
        if u < 0.001:
            ops.append(("kill", bool(rng.random() < 0.5)))
        elif u < 0.002:
            ops.append(("override", [None, "normal", "degraded"][rng.integers(3)]))
        yield now, ops


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_status_and_decisions_match_the_reference(name):
    cfg = CONFIGS[name]
    evaluator = SloEvaluator(cfg)
    ctl = SloController(["r"], cfg)
    reference = ReferenceSloEvaluator(cfg)
    ladder = ReferenceLadder(cfg, 0.0)
    seen = dict.fromkeys(
        ["breach", "hold", "recovered", "normal", "degraded", "empty"], 0
    )
    for step, (now, ops) in enumerate(stream(cfg, seed=sum(map(ord, name)))):
        for method, arg in ops:
            if method == "kill":
                ctl.set_kill_switch(arg, now)
                ladder.kill_switch = arg
                ladder.update(now, reference.status(now))
            elif method == "override":
                ctl.set_override(arg, now)
                ladder.manual_level = arg
                ladder.update(now, reference.status(now))
            else:
                args = (arg,) if method == "set_queue_depth" else (now, arg)
                for ev in (evaluator, ctl.evaluators["r"], reference):
                    getattr(ev, method)(*args)
        want = reference.status(now)
        assert fields(evaluator.status(now)) == fields(want), (step, now)
        decision = ctl.advance("r", now)
        assert decision == ladder.update(now, want), (step, now)
        seen["breach" if want.breach else
             "recovered" if want.recovered else "hold"] += 1
        seen[decision.level] += 1
        seen["empty"] += want.samples == 0
    # the stream reached every verdict, both levels and empty windows
    assert min(seen.values()) > 20, seen
    assert ladder.transitions > 20


def test_era_sweep_matches_the_reference():
    """``observe`` reads each window once; levels, gauge and events agree."""
    cfg = SloConfig(p95_target_s=1.0, window_s=40.0, min_dwell_s=10.0)
    tel = Telemetry(enabled=True)
    ctl = SloController(["r"], cfg, telemetry=tel)
    reference = ReferenceSloEvaluator(cfg)
    ladder = ReferenceLadder(cfg, 0.0)
    rng = np.random.default_rng(11)
    fast, slow = [0.2, 0.5, 0.8], [0.9, 1.0, 1.5]
    slow_share = 0.0
    expected_events = []
    level = "normal"
    for era in range(2000):
        now = float(era)
        if era % 50 == 0:
            slow_share = float(rng.choice([0.0, 0.02, 0.1, 0.4]))
        grid = slow if rng.random() < slow_share else fast
        rt = grid[rng.integers(len(grid))] if rng.random() < 0.9 else None
        levels = ctl.observe(now, {} if rt is None else {"r": rt})
        if rt is not None:
            reference.observe_latency(now, rt)
        status = reference.status(now)
        decision = ladder.update(now, status)
        assert levels == {"r": decision.level}, era
        if decision.level != level:
            expected_events.append((level, decision.level, status.p95_s))
            level = decision.level
        gauge = [g["value"] for g in tel.snapshot()["metrics"]["gauges"]
                 if g["name"] == "slo_p95_seconds"]
        want = 0.0 if math.isnan(status.p95_s) else status.p95_s
        assert gauge == [want], era
    events = [
        (e["data"]["frm"], e["data"]["to"], e["data"]["p95_s"])
        for e in tel.snapshot()["events"]["events"]
        if e["kind"] == "slo.transition"
    ]
    assert len(expected_events) > 10
    assert events == expected_events
