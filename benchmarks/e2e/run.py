"""One command for the end-to-end benchmark of the sim and serve paths.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--out PATH] [--smoke]

Runs the workloads named in ``BENCHMARK.json`` (all six without
``--workload``), checks their outputs, prints every metric by name with unit,
value, quartiles and sample count, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics of
the untraced pass, or with ``--trace 1`` the per-layer metrics of the traced
pass.  See README.md beside this file.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402

import catalogue  # noqa: E402
from stats import summarize  # noqa: E402

sys.path.insert(0, str(catalogue.SRC_DIR))

DEFAULT_SEED = 5
SMOKE_SHARE = 0.1


def load_runner(workload: str):
    """Import only what the workload needs, so its set-up time is its own."""
    if workload.startswith("serve_"):
        import serve_workloads

        spec = serve_workloads.SERVE_WORKLOADS[workload]
        return lambda **kw: serve_workloads.run_serve(spec, **kw)
    import harness
    import sim_workloads

    instance = sim_workloads.SIM_WORKLOADS[workload]()
    return lambda **kw: harness.run_sim(instance, **kw)


def fingerprint(seed: int) -> dict:
    commit = None
    if (catalogue.REPO_ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(catalogue.REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=False,
        )
        commit = done.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "seed": seed,
    }


def report(result, names: dict) -> dict:
    """Print one workload's metrics; returns them with their spread."""
    unit_name, unit_meaning = catalogue.WORK_UNIT[result.workload]
    mode = "traced" if result.trace else "untraced"
    wall_s = result.info.get("wall_s", 0.0)
    print(f"\n== {result.workload} ({mode}, {wall_s:.1f} s measured) ==")
    print(
        f"{'metric':<38}{'unit':>7}{'value':>16}{'q1':>16}{'q3':>16}"
        f"{'n':>7}{'bound':>7}"
    )
    rows = {}
    for name, spec in names.items():
        if name not in result.metrics:
            continue
        row = summarize(result.samples.get(name, [result.metrics[name]]))
        row["value"] = result.metrics[name]
        row["unit"] = spec["unit"]
        if "bound" in spec:
            row["bound"] = spec["bound"]
        rows[name] = row
        label = name
        if name == "work_per_s":
            label = f"{name} (= {unit_name})"
        print(
            f"{label:<38}{spec['unit']:>7}{row['value']:>16.6g}"
            f"{row['q1']:>16.6g}{row['q3']:>16.6g}{row['n']:>7}"
            f"{spec.get('bound', ''):>7}"
        )
    if not result.trace:
        print(f"work_per_s counts: {unit_meaning}")
    print(f"operations: {result.attempted} attempted, {result.failed} failed")
    print(f"counts: {json.dumps(result.counts, sort_keys=True)}")
    for message in result.problems:
        print(f"CHECK FAILED: {message}")
    for message in result.flags:
        print(f"flag: {message}")
    if "span_coverage" in result.info:
        coverage = result.info["span_coverage"]
        print(f"span coverage of the traced timed wall: {coverage:.3f}")
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        choices=catalogue.WORKLOADS,
        help="default: all six, in order",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=float(catalogue.RUN_SECONDS)
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument(
        "--out", help="also write the result document to this path"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one-tenth length, one set-up: a quick self-check",
    )
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    seconds = args.seconds * (SMOKE_SHARE if args.smoke else 1.0)
    names = catalogue.PER_LAYER if trace else catalogue.END_TO_END
    workloads = [args.workload] if args.workload else catalogue.WORKLOADS

    document = {
        "host": fingerprint(args.seed),
        "trace": trace,
        "seconds": seconds,
        "workloads": {},
    }
    correct = True
    attempted = failed = 0
    metrics: dict = {}
    import_t0 = _T0
    for workload in workloads:
        run = load_runner(workload)
        import_s = time.perf_counter() - import_t0
        result = run(
            seed=args.seed,
            seconds=seconds,
            trace=trace,
            import_s=import_s,
            smoke=args.smoke,
        )
        rows = report(result, names)
        missing = set(names) - set(result.metrics)
        if missing and not trace:
            raise RuntimeError(f"{workload}: no value for {sorted(missing)}")
        emitted = catalogue.emit(names, result.metrics)
        document["workloads"][workload] = {
            "correct": not result.problems,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": rows,
            "counts": result.counts,
            "problems": result.problems,
            "flags": result.flags,
            **result.info,
        }
        correct = correct and not result.problems
        attempted += result.attempted
        failed += result.failed
        prefix = "" if args.workload else f"{workload}/"
        metrics.update({prefix + k: v for k, v in emitted.items()})
        import_t0 = time.perf_counter()  # later workloads import nothing twice
    document["claim"] = None  # this benchmark measures; it claims no gain

    catalogue.OUT_DIR.mkdir(exist_ok=True)
    tag = args.workload or "all"
    name = f"result-{tag}-seed{args.seed}-trace{int(trace)}.json"
    for target in filter(None, (catalogue.OUT_DIR / name, args.out)):
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(document, indent=1) + "\n")

    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
