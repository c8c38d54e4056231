"""Per-era ML inference micro-benchmark: batched vs per-VM prediction.

Measures the wall time of one analysis pass over a pool of ACTIVE VMs
with a trained F2PM predictor, comparing

* the pre-lifecycle shape -- one one-row ``predict_rttf_rows`` call per
  VM in a Python loop (one model invocation per VM), against
* the batched shape -- a single ``predict_rttf_rows`` call over every
  VM's feature row stacked, invoking the model once (what
  ``vmc.process_era`` does for every host, the DES loop included),

at three pool sizes, for both the plain :class:`TrainedRttfPredictor`
and the stateful :class:`TrendAwareRttfPredictor` (whose row path
still updates each VM's slope window).  Results go to ``BENCH_ml.json``
at the repository root.

The datapoint is **informational**: ``scripts/bench_gate.py`` prints it
next to the hot-path gate but never fails on it, because absolute model
latency depends on the trained tree's depth, which varies with the
profiling seed.  The number that matters is the batched/per-VM speedup
staying > 1 at fleet-relevant pool sizes.

Run::

    PYTHONPATH=src python benchmarks/bench_ml.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_ml.json"

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.runner import make_trained_predictor  # noqa: E402
from repro.pcam.state_table import VmStateTable  # noqa: E402
from repro.pcam.vm import VirtualMachine, VmState  # noqa: E402
from repro.sim.instances import get_instance_type  # noqa: E402
from repro.sim.rng import RngRegistry  # noqa: E402
from repro.workload.anomalies import AnomalyInjector, draw_pool  # noqa: E402

#: Pool sizes: a single region, a fleet cell, a large consolidation run.
POOL_SIZES = (16, 64, 256)

BENCH_SEED = 11

#: Timing repetitions; best-of to suppress shared-machine jitter.
REPEATS = 5

#: Era loops inside one timed repetition (amortises the timer overhead).
INNER_ERAS = 20


def build_pool(n: int, seed: int = BENCH_SEED) -> list[VirtualMachine]:
    """``n`` ACTIVE VMs in one state table, with diversified ages and
    feature values."""
    rngs = RngRegistry(seed=seed)
    itype = get_instance_type("private.small")
    pool = [
        VirtualMachine(
            f"bench/vm{i}",
            itype,
            AnomalyInjector(rngs.child(f"bench/vm{i}").stream("anomalies")),
            state=VmState.ACTIVE,
        )
        for i in range(n)
    ]
    table = VmStateTable(pool)
    for i, vm in enumerate(pool):
        # stagger ages so the feature matrix is not one repeated row
        n_requests = 40 + 3 * (i % 11)
        for _ in range(1 + i % 7):
            leaked, threads = draw_pool([vm.injector], [n_requests])
            table.era_load_update(
                np.array([vm.row]), np.array([n_requests]), 30.0, 1.5,
                leaked, threads,
            )
    return pool


def _time_eras(fn) -> float:
    """Best-of-``REPEATS`` wall time of ``INNER_ERAS`` calls to ``fn``."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(INNER_ERAS):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_predictor(predictor, pool) -> dict:
    """Per-era latency (ms) of the scalar loop vs one batched call."""

    def per_vm():
        for vm in pool:
            row = vm.sample_features().to_array()
            predictor.predict_rttf_rows(row[np.newaxis, :], [vm])

    def batched():
        rows = np.vstack([vm.sample_features().to_array() for vm in pool])
        predictor.predict_rttf_rows(rows, pool)

    # warm up: fills any per-VM history windows and the allocator caches
    per_vm()
    batched()
    per_vm_s = _time_eras(per_vm) / INNER_ERAS
    batched_s = _time_eras(batched) / INNER_ERAS
    return {
        "per_vm_ms": per_vm_s * 1e3,
        "batched_ms": batched_s * 1e3,
        "speedup": per_vm_s / batched_s if batched_s > 0 else float("inf"),
    }


def run_benchmark() -> dict:
    predictors = {
        "trained": make_trained_predictor(
            ["private.small"],
            seed=BENCH_SEED,
            profile_rates=(4.0, 8.0, 14.0),
            runs_per_rate=2,
        ),
        "trend-aware": make_trained_predictor(
            ["private.small"],
            seed=BENCH_SEED,
            profile_rates=(4.0, 8.0, 14.0),
            runs_per_rate=2,
            use_trend_features=True,
        ),
    }
    payload: dict = {"bench": "ml-inference", "seed": BENCH_SEED, "pools": {}}
    for n in POOL_SIZES:
        pool = build_pool(n)
        payload["pools"][str(n)] = {
            name: bench_predictor(pred, pool)
            for name, pred in predictors.items()
        }
    return payload


def report(payload: dict) -> str:
    lines = ["bench_ml: per-era inference latency (ms), batched vs per-VM"]
    for n, by_pred in payload["pools"].items():
        for name, row in by_pred.items():
            lines.append(
                f"  pool={n:>4} {name:<12} per-VM {row['per_vm_ms']:8.3f}  "
                f"batched {row['batched_ms']:8.3f}  "
                f"speedup {row['speedup']:5.1f}x"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    payload = run_benchmark()
    print(report(payload))
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {BASELINE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
