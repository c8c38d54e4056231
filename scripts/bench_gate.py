"""Performance regression gate for the DES hot path.

Re-runs ``benchmarks/bench_hotpath.py`` and compares the measured
requests/sec at every scale against the committed baseline
(``BENCH_hotpath.json`` at the repository root).  Exits non-zero if any
scale regresses by more than the tolerance (default 40%).

Usage::

    PYTHONPATH=src python scripts/bench_gate.py [--tolerance 0.40]

Equivalent: ``PYTHONPATH=src python benchmarks/bench_hotpath.py --check``.

The tolerance is deliberately loose: the bench records best-of-3 wall
times, but the baseline and the fresh run execute under *different*
machine weather, and on a loaded shared host the same workload has been
observed to swing from 26k to 48k req/s.  The gate exists to catch
order-of-magnitude mistakes (an accidentally quadratic queue scan, a
closure allocated per request), not drift -- the same-run A/B comparison
(the telemetry-overhead check, which interleaves its measurements)
carries the tighter threshold.  The 10 000-VM ``process_era`` figure is
``pcam_fleet_10k`` ``work_per_s`` in the benchmark of record
(``benchmarks/e2e/run.py``), not a tier of this gate.  After an intentional,
measured improvement, refresh the baseline by re-running
``benchmarks/bench_hotpath.py`` without ``--check`` and committing the
updated JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Maximum allowed fractional drop in requests/sec per scale (cross-run
#: comparison against the committed baseline: loose by design, see the
#: module docstring; the interleaved same-run check is the tight one).
DEFAULT_TOLERANCE = 0.40

#: Maximum allowed cost of the *disabled* telemetry facade vs the plain
#: loop.  This is a same-run interleaved A/B (no cross-run weather), so
#: it stays tighter than the baseline comparison.
TELEMETRY_TOLERANCE = 0.20


def _check_telemetry_overhead(
    payload: dict, tolerance: float = TELEMETRY_TOLERANCE
) -> list[str]:
    """Gate the cost of a *disabled* telemetry facade.

    Compares the fresh run's disabled-telemetry small-scale throughput
    against the plain small-scale number measured *interleaved with it*
    in the same repeat loop (same machine, same minute -- no cross-run
    jitter), so a disabled facade sneaking real work onto the hot path
    fails the gate.  The enabled-telemetry number is printed for the
    record but never gated: observation is opt-in.  Payloads without a
    ``telemetry`` section (old benchmark versions) pass vacuously.
    """
    tel = payload.get("telemetry")
    if not tel or "disabled" not in tel:
        return []
    # prefer the interleaved plain measurement; older payloads fall back
    # to the stand-alone small-scale number
    plain = tel.get("plain") or payload.get("scales", {}).get("small")
    if plain is None:
        return []
    plain_rps = float(plain["requests_per_s"])
    disabled_rps = float(tel["disabled"]["requests_per_s"])
    floor = plain_rps * (1.0 - tolerance)
    delta = (disabled_rps - plain_rps) / plain_rps
    status = "OK  " if disabled_rps >= floor else "FAIL"
    print(
        f"  {status} tel-off: {disabled_rps:>12,.1f} req/s  "
        f"plain    {plain_rps:>12,.1f}  ({delta:+.1%})"
    )
    if "enabled" in tel:
        enabled_rps = float(tel["enabled"]["requests_per_s"])
        edelta = (enabled_rps - plain_rps) / plain_rps
        print(
            f"  info tel-on : {enabled_rps:>12,.1f} req/s  "
            f"plain    {plain_rps:>12,.1f}  ({edelta:+.1%}, not gated)"
        )
    if disabled_rps < floor:
        return [
            f"disabled telemetry overhead: {disabled_rps:,.1f} req/s is "
            f"more than {tolerance:.0%} below the plain run's "
            f"{plain_rps:,.1f}"
        ]
    return []


def report_ml_datapoint(path: Path | None = None) -> None:
    """Print the committed ``BENCH_ml.json`` datapoint (info-only).

    The ML-inference bench (``benchmarks/bench_ml.py``) records the
    per-era latency of batched vs per-VM model prediction.  Absolute
    numbers depend on the trained tree's depth, so nothing is gated --
    the line exists so a vanished speedup (batched slower than the
    scalar loop) is visible in the same place as the hot-path gate.
    """
    path = path or REPO_ROOT / "BENCH_ml.json"
    try:
        payload = json.loads(Path(path).read_text())
        pools = payload["pools"]
    except (FileNotFoundError, json.JSONDecodeError, KeyError):
        return
    for n, by_pred in pools.items():
        for name, row in by_pred.items():
            print(
                f"  info ml pool={n:>4} {name:<12} "
                f"batched {float(row['batched_ms']):8.3f} ms  "
                f"speedup {float(row['speedup']):4.1f}x  (not gated)"
            )


def report_serve_datapoint(path: Path | None = None) -> None:
    """Print the committed ``BENCH_serve.json`` datapoint (info-only).

    The serve-ingress bench (``benchmarks/bench_serve.py``) records
    achieved req/s and client p95 at 1/2/4 load-gen connections.  HTTP
    throughput on a shared machine jitters far more than the DES hot
    path, so nothing is gated -- the line exists so an ingress
    performance cliff is visible next to the hot-path gate.
    """
    path = path or REPO_ROOT / "BENCH_serve.json"
    try:
        payload = json.loads(Path(path).read_text())
        connections = payload["connections"]
    except (FileNotFoundError, json.JSONDecodeError, KeyError):
        return
    for n, row in connections.items():
        print(
            f"  info serve conn={n}: "
            f"{float(row['requests_per_s']):>10,.1f} req/s  "
            f"p95 {float(row['latency_p95_s']) * 1000:8.2f} ms  "
            "(not gated)"
        )
    slo = payload.get("slo")
    if slo:
        print(
            f"  info serve slo-gated conn={slo['connections']}: "
            f"{float(slo['requests_per_s']):>10,.1f} req/s  "
            f"overhead {float(slo['overhead_pct']):+.1f}%  (not gated)"
        )


def check_against_baseline(
    payload: dict,
    baseline_path: Path,
    tolerance: float = DEFAULT_TOLERANCE,
) -> int:
    """Compare a fresh benchmark ``payload`` against the committed baseline.

    Returns a process exit code: 0 if every scale's requests/sec is within
    ``tolerance`` of the baseline (or faster), 1 on any regression beyond
    it, 2 if the baseline is missing or malformed.
    """
    try:
        baseline = json.loads(Path(baseline_path).read_text())
    except FileNotFoundError:
        print(f"bench gate: no baseline at {baseline_path}", file=sys.stderr)
        print(
            "run `PYTHONPATH=src python benchmarks/bench_hotpath.py` "
            "to record one",
            file=sys.stderr,
        )
        return 2
    except json.JSONDecodeError as exc:
        print(f"bench gate: malformed baseline: {exc}", file=sys.stderr)
        return 2

    base_scales = baseline.get("scales")
    if not isinstance(base_scales, dict) or not base_scales:
        print("bench gate: baseline has no scales", file=sys.stderr)
        return 2

    failures = []
    failures.extend(_check_telemetry_overhead(payload))
    for scale, base in base_scales.items():
        current = payload["scales"].get(scale)
        if current is None:
            failures.append(f"{scale}: missing from current run")
            continue
        base_rps = float(base["requests_per_s"])
        cur_rps = float(current["requests_per_s"])
        floor = base_rps * (1.0 - tolerance)
        delta = (cur_rps - base_rps) / base_rps
        status = "OK  " if cur_rps >= floor else "FAIL"
        print(
            f"  {status} {scale:>7}: {cur_rps:>12,.1f} req/s  "
            f"baseline {base_rps:>12,.1f}  ({delta:+.1%})"
        )
        if cur_rps < floor:
            failures.append(
                f"{scale}: {cur_rps:,.1f} req/s is more than "
                f"{tolerance:.0%} below baseline {base_rps:,.1f}"
            )

    if failures:
        print("bench gate: FAILED", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"bench gate: ok (tolerance {tolerance:.0%})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="max fractional requests/sec regression (default 0.40)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=REPO_ROOT / "BENCH_hotpath.json",
        help="baseline JSON path (default: repo-root BENCH_hotpath.json)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="no-op: the gate always checks; accepted so callers can use "
        "the same flag as `benchmarks/bench_hotpath.py --check`",
    )
    args = parser.parse_args(argv)

    if not args.baseline.exists():
        # fail fast: don't spend the benchmark's wall time only to find
        # there is nothing to compare against
        print(f"bench gate: no baseline at {args.baseline}", file=sys.stderr)
        print(
            "run `PYTHONPATH=src python benchmarks/bench_hotpath.py` "
            "to record one",
            file=sys.stderr,
        )
        return 2

    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from bench_hotpath import run_benchmark

    payload = run_benchmark()
    code = check_against_baseline(
        payload, args.baseline, tolerance=args.tolerance
    )
    report_ml_datapoint()
    report_serve_datapoint()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
