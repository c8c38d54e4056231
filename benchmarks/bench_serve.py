"""Serve-ingress throughput benchmark.

Boots an in-process two-region wall-clock deployment on an ephemeral
port and drives the open-loop load generator at it at 1, 2, and 4
keep-alive connections, recording achieved requests/sec and client-side
p95 latency per connection count into ``BENCH_serve.json`` at the
repository root.  A second deployment with a deliberately loose SLO gate
configured (evaluator + ladder on every request, never degrading)
measures the per-request cost of SLO evaluation as an overhead
percentage against the plain run at the same connection count.

The numbers are **info-only** in the bench gate
(``scripts/bench_gate.py::report_serve_datapoint``): HTTP throughput on
a shared machine is far noisier than the DES hot path, and the serve
subsystem's correctness is gated by its tests and the ci_check serve
smoke instead.  The file exists so an accidentally quadratic handler or
a per-request allocation storm shows up as a visible cliff in the
trajectory.

Run::

    PYTHONPATH=src python benchmarks/bench_serve.py
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_serve.json"

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.scenarios import two_region_scenario  # noqa: E402
from repro.serve import (  # noqa: E402
    AcmService,
    LoadConfig,
    ServeConfig,
    WallClock,
    run_load,
    serving,
)
from repro.slo import SloConfig  # noqa: E402

BENCH_SEED = 5
CONNECTION_COUNTS = (1, 2, 4)
#: Offered rate high enough that the generator, not the schedule, is the
#: bottleneck at one connection; the achieved rps is the measurement.
OFFERED_RPS = 4000.0
DURATION_S = 2.0
#: Clock compression: eras keep ticking during the bench without having
#: to wait 30 real seconds per MAPE cycle.
SPEED = 30.0
#: Connection count the SLO-overhead pair is measured at.
SLO_CONNECTIONS = 2
#: Loose targets: the evaluator and ladder run on every request but the
#: adaptive rung never trips, so the measured delta is pure bookkeeping
#: cost (window append/trim + ladder update), not shedding.
SLO_SPEC = SloConfig(p95_target_s=10.0, window_s=5.0, min_dwell_s=5.0)


async def _measure_one(config: ServeConfig, connections: int) -> dict:
    """Boot a deployment with ``config``, run one load leg, tear down."""
    clock = WallClock(speed=SPEED)
    service = AcmService(two_region_scenario(), clock, config)
    async with serving(service) as ingress:
        report = await run_load(
            LoadConfig(
                url=f"http://127.0.0.1:{ingress.port}",
                rate=OFFERED_RPS,
                duration_s=DURATION_S,
                connections=connections,
                seed=BENCH_SEED + connections,
            )
        )
    d = report.as_dict()
    return {
        "requests_per_s": d["achieved_rps"],
        "latency_p95_s": round(d["latency_p95_s"], 6),
        "completed": d["completed"],
        "errors": d["errors"],
    }


async def _measure() -> dict:
    plain = ServeConfig(seed=BENCH_SEED, admission_rps=100_000.0)
    by_connections: dict[str, dict] = {}
    for n in CONNECTION_COUNTS:
        by_connections[str(n)] = await _measure_one(plain, n)
    gated = ServeConfig(
        seed=BENCH_SEED, admission_rps=100_000.0, slo=SLO_SPEC
    )
    slo_row = await _measure_one(gated, SLO_CONNECTIONS)
    baseline_rps = by_connections[str(SLO_CONNECTIONS)]["requests_per_s"]
    slo_row["connections"] = SLO_CONNECTIONS
    slo_row["baseline_requests_per_s"] = baseline_rps
    slo_row["overhead_pct"] = round(
        100.0 * (1.0 - slo_row["requests_per_s"] / baseline_rps), 2
    )
    return {
        "benchmark": "serve_ingress",
        "seed": BENCH_SEED,
        "unit": "achieved req/s and client p95 of the HTTP ingress",
        "offered_rps": OFFERED_RPS,
        "duration_s": DURATION_S,
        "connections": by_connections,
        "slo": slo_row,
    }


def run_benchmark() -> dict:
    """Measure every connection count; returns the JSON-ready payload."""
    return asyncio.run(_measure())


def main(argv: list[str]) -> int:
    payload = run_benchmark()
    for n, rec in payload["connections"].items():
        print(
            f"  serve conn={n}: {rec['requests_per_s']:>10,.1f} req/s  "
            f"p95 {rec['latency_p95_s'] * 1000:8.2f} ms  "
            f"({rec['completed']} reqs, {rec['errors']} errors)"
        )
    slo = payload["slo"]
    print(
        f"  serve slo-gated conn={slo['connections']}: "
        f"{slo['requests_per_s']:>10,.1f} req/s  "
        f"overhead {slo['overhead_pct']:+.1f}%"
    )
    if "--check" in argv:
        # nothing gated; the flag exists for CLI symmetry with the
        # hot-path bench
        return 0
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {BASELINE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
