"""The benchmark's names, read from ``BENCHMARK.json`` so there is one list.

Every workload emits every end-to-end metric in the untraced pass and every
per-layer metric in the traced pass; a per-layer metric of a layer the
workload never enters reads 0.
"""

from __future__ import annotations

import json
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parent
OUT_DIR = E2E_DIR / "out"  # result documents and traces; git-ignored
REPO_ROOT = E2E_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"

with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    CONTRACT = json.load(_fh)

WORKLOADS: tuple[str, ...] = tuple(w["name"] for w in CONTRACT["workloads"])
END_TO_END: dict[str, dict] = {m["name"]: m for m in CONTRACT["end_to_end"]}
PER_LAYER: dict[str, dict] = {m["name"]: m for m in CONTRACT["per_layer"]}
RUN_SECONDS: int = CONTRACT["run_seconds"]

_CAPACITY = (
    "capacity_rps",
    "closed-loop 200s per reference second, 2 connections",
)

#: What ``work_per_s`` counts on each workload (the names ISSUE 11 used).
WORK_UNIT = {
    "fig4_fluid": ("eras_per_s", "fluid MAPE eras per reference second"),
    "des_two_region": (
        "sim_requests_per_s",
        "simulated requests completed per reference second",
    ),
    "pcam_fleet_10k": (
        "vm_eras_per_s",
        "pool size x eras per reference second of process_era",
    ),
    "sweep_grid": (
        "jobs_per_s",
        "sweep cells finished per reference second",
    ),
    "serve_steady": _CAPACITY,
    "serve_fault_slo": _CAPACITY,
}


def emit(names: dict[str, dict], values: dict[str, float]) -> dict[str, dict]:
    """The ``metrics`` object of the result line: every name, with its unit."""
    unknown = set(values) - set(names)
    if unknown:
        raise KeyError(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": spec["unit"]}
        for name, spec in names.items()
    }
