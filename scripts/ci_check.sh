#!/usr/bin/env bash
# CI gate: the thirteen checks every change must pass.
#
#   1. the full tier-1 test suite (unit / property / integration; its
#      `tests/fleet/test_axes.py` holds the sweep's digest rule -- an
#      optional axis at its off value moves no cell name, seed or digest
#      -- as one property over every row of `repro.fleet.axes.AXES`);
#   2. the hot-path performance gate against the committed baseline
#      (fails on a >20% requests/sec regression at any scale, and on a
#      disabled-telemetry facade costing more than the same tolerance);
#   3. a fast seeded chaos smoke campaign (message loss + a link flap
#      against the hardened control plane; must finish well under 30 s
#      and exit 0 only if the deployment ends the run healthy);
#   4. an observability smoke: a short instrumented fig3 run must dump
#      telemetry that `repro obs` can summarise with laminar spans;
#   5. a fleet sweep smoke: a tiny 2-worker grid must run end to end,
#      then a `--resume` re-invocation must satisfy every job from the
#      content-addressed store (zero re-execution);
#   6. an online-lifecycle smoke: a short fig3 run with the model
#      lifecycle enabled must export the drift metrics (ml_drift_mape,
#      ml_lives_total) through the telemetry dump;
#   7. a state-table parity smoke: the table-backed VMC must equal the
#      tests-only one-VM reference controller bit for bit (era oracle +
#      chaos/churn), and the DES loop must reproduce the digests recorded
#      from the per-object path before it was deleted;
#   8. a hierarchical-chaos smoke: the rack-blackout-during-flash-crowd
#      campaign on the 2 AZ x 2 rack deployment must end recovered, then
#      a tiny flat+2x2 sweep must run end to end;
#   9. a serve smoke: boot the wall-clock HTTP deployment on an
#      ephemeral port, fire one load burst, assert `/healthz` answers
#      200 and `acm_*` metrics appear in `/metrics`, then shut down
#      cleanly;
#  10. a learned-policy smoke: a tiny `repro policy train` campaign must
#      produce a checkpoint that survives a save/load round-trip, and a
#      `repro policy eval` of it must exit 0;
#  11. an SLO smoke: a serve deployment with a deliberately impossible
#      p95 target must degrade under a request burst (429 + Retry-After
#      header, `error: slo` bodies, `slo_*` samples in `/metrics`), then
#      recover to 200s once the rolling window drains and the minimum
#      dwell elapses;
#  12. an end-to-end benchmark smoke: the harness's self-tests, then
#      `benchmarks/e2e/run.py --smoke` on `sweep_grid` and
#      `des_two_region` (the oracle-driven workloads whose digests an
#      oracle change must not move) and on `serve_steady` and
#      `serve_fault_slo` (the ingress's framing under closed- and
#      open-loop load; the failover draw, the degradation ladder and the
#      Plan phase over HTTP) and on `pcam_fleet_10k` (the fleet era) and
#      `fig4_fluid` (the one workload that trains the paper's REP-Tree);
#      each must end on a JSON line with `"correct": true` and
#      `"failed": 0`, and the fleet era's `era_report_digest` at seed 5
#      must be the recorded one (the smoke runs the full 20-era repeat,
#      so this is bit-identity of the 10 000-VM `process_era` across
#      commits), as must `fig4_fluid`'s `trace_digest` at seeds 5 and 6:
#      a change to F2PM training (profiling, Lasso selection, CV, the
#      tree's split search), to inference (the tree's row and masked
#      walks) or to the region-era kernels must move neither pin; and
#      `des_two_region`'s `trace_digest` at seeds 5 and 6: a change to
#      the state table (its derived columns, the per-request cell reads
#      and writes) or to plan routing must move neither DES pin;
#  13. a one-spelling check: the row -> CDF construction lives in
#      `core/forward_plan.py` only (no `cumsum` in the DES loop or the
#      serve runtime), and the leader step lives in
#      `core/control_loop.py` only (`degradation.observe(` and
#      `election.elect(` are called from nowhere else in `src/repro`);
#      the event heap lives in `sim/engine.py` only (nothing else
#      imports `heapq`), and neither the Event pool nor the NumPy JSQ
#      branch it replaced has come back under another spelling; the VMC
#      builds no per-VM `FeatureMonitor(` (its pool shares one
#      `MonitorRing`), and the anomaly sampling body exists once (one
#      `_lognormal(` call under `src/repro`); the optional sweep axes are
#      spelled in `fleet/axes.py` only (no axis name fragment such as
#      `f"/retrain{` and no comparison against an off value such as
#      `!= "flat"` or `!= ("",)` anywhere else under `src/repro`); the
#      per-region control step lives in `pcam/vmc.py` only (nothing under
#      `core/` or `serve/` calls `predict_rttf_rows(` or
#      `start_rejuvenation(`, and the DES loop's `_region_pcam` copy is
#      gone), and the SLO plane lives in `slo/controller.py` only (no
#      `PriorityLadder(` / `SloEvaluator(` built anywhere else, and
#      serve's `_slo_note` / `_slo_refresh` / `_slo_gates` are gone); the
#      region era calls ndarray methods and ufuncs, not NumPy's Python
#      wrappers (no `np.flatnonzero(`, `np.mean(` or `np.clip(` in
#      `pcam/vmc.py` or `pcam/state_table.py`); the load-state cells
#      are written in `pcam/state_table.py` only (no assignment to
#      `leaked_mb[` or `stuck_threads[` anywhere else under `src/repro`,
#      so no writer can skip the refresh of the derived columns); the
#      ingress frames requests in its one `asyncio.Protocol` only (no
#      `start_server`, `StreamReader` or `readline(` in
#      `serve/ingress.py`: the per-line stream loop is not kept beside
#      it); and each driver-layer name (scenario builders, argparse, the
#      per-figure functions and copied name tuples, the serve boot gates
#      9 and 11 go through) keeps the one home the table ending this
#      script gives it.  It is also a one-path check: `DesControlLoop` is
#      the only request-level simulator (the retired region-level DES and
#      its TPC-W session chain are named nowhere under `src/`, `tests/`,
#      `examples/` or `benchmarks/`), and no code under `src/repro` is
#      reachable only from a test: every top-level function, class or
#      method of 8 or more lines is named somewhere else under
#      `src/repro` (an `__all__` list is not a caller) or sits on the
#      allowlist inside this script with the reason it stays, and every
#      allowlisted name still exists and still has no caller.
#
# Usage:  scripts/ci_check.sh   (from the repository root or anywhere)

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO_ROOT"
export PYTHONPATH="$REPO_ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest tests/ -x -q

echo "== performance gate =="
python scripts/bench_gate.py --check

echo "== chaos smoke campaign =="
python -m repro chaos smoke --seed 7

echo "== observability smoke =="
OBS_DUMP="$(mktemp -t repro_obs_smoke.XXXXXX.json)"
SWEEP_STORE="$(mktemp -d -t repro_sweep_smoke.XXXXXX)"
trap 'rm -f "$OBS_DUMP"; rm -rf "$SWEEP_STORE"' EXIT
python -m repro fig3 --eras 12 --obs-dump "$OBS_DUMP" > /dev/null
python -m repro obs "$OBS_DUMP"

echo "== fleet sweep smoke =="
SWEEP_ARGS=(--scenarios two-region --policies uniform --loads 0.5
            --replicates 2 --eras 12 --workers 2 --store "$SWEEP_STORE")
python -m repro sweep "${SWEEP_ARGS[@]}"
# capture then grep: piping straight into `grep -q` races a SIGPIPE
# against the aggregate table the sweep prints after the summary line
RESUME_OUT="$(python -m repro sweep "${SWEEP_ARGS[@]}" --resume)"
grep -q "0 executed, 2 store hits" <<<"$RESUME_OUT" \
    || { echo "sweep --resume re-executed finished jobs" >&2; exit 1; }

echo "== online-lifecycle smoke =="
ONLINE_DUMP="$(mktemp -t repro_online_smoke.XXXXXX.json)"
trap 'rm -f "$OBS_DUMP" "$ONLINE_DUMP"; rm -rf "$SWEEP_STORE"' EXIT
python -m repro fig3 --eras 24 --online-retrain 8 \
    --obs-dump "$ONLINE_DUMP" > /dev/null
for metric in ml_drift_mape ml_lives_total; do
    grep -q "$metric" "$ONLINE_DUMP" \
        || { echo "lifecycle smoke: $metric missing from dump" >&2; exit 1; }
done

echo "== hierarchical chaos smoke =="
python -m repro chaos rack-blackout-flashcrowd --eras 12 --seed 7
DOMAIN_STORE="$(mktemp -d -t repro_domain_smoke.XXXXXX)"
trap 'rm -f "$OBS_DUMP" "$ONLINE_DUMP"; rm -rf "$SWEEP_STORE" "$DOMAIN_STORE"' EXIT
python -m repro sweep --scenarios two-region --policies uniform \
    --loads 0.5 --replicates 1 --eras 12 --domains flat,2x2 \
    --workers 2 --store "$DOMAIN_STORE"

echo "== serve smoke =="
python - <<'EOF'
import asyncio

from repro.experiments.scenarios import two_region_scenario
from repro.serve import (
    AcmService,
    LoadConfig,
    ServeConfig,
    WallClock,
    run_load,
    serving,
)


async def _get(host, port, path):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
        "Connection: close\r\n\r\n".encode()
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(None, 2)[1])
    return status, body.decode()


async def smoke():
    service = AcmService(
        two_region_scenario(), WallClock(speed=30.0), ServeConfig(seed=7)
    )
    async with serving(service) as ingress:
        url = f"http://127.0.0.1:{ingress.port}"
        report = await run_load(
            LoadConfig(url=url, rate=200.0, duration_s=1.0, seed=7)
        )
        d = report.as_dict()
        assert d["completed"] > 0, "load burst completed zero requests"
        assert d["errors"] == 0, f"load burst saw {d['errors']} errors"
        status, _ = await _get("127.0.0.1", ingress.port, "/healthz")
        assert status == 200, f"/healthz returned {status}"
        status, body = await _get("127.0.0.1", ingress.port, "/metrics")
        assert status == 200, f"/metrics returned {status}"
        acm_lines = [
            ln for ln in body.splitlines()
            if ln.startswith("acm_") and not ln.startswith("#")
        ]
        assert acm_lines, "no acm_* samples in /metrics"
    print(
        f"serve smoke: {d['completed']} reqs "
        f"p95 {d['latency_p95_s'] * 1000:.1f} ms, "
        f"{len(acm_lines)} acm_* metric samples"
    )


asyncio.run(smoke())
EOF

echo "== learned-policy smoke =="
POLICY_OUT="$(mktemp -d -t repro_policy_smoke.XXXXXX)"
trap 'rm -f "$OBS_DUMP" "$ONLINE_DUMP"; rm -rf "$SWEEP_STORE" "$DOMAIN_STORE" "$POLICY_OUT"' EXIT
python -m repro policy train --head bandit --scenario two-region \
    --rounds 2 --episodes 2 --eras 10 --workers 2 --seed 7 \
    --out "$POLICY_OUT"
python - "$POLICY_OUT" <<'EOF'
import sys
from pathlib import Path

from repro.policy.checkpoint import load_checkpoint, save_head
from repro.policy.train import FINAL_CHECKPOINT

out = Path(sys.argv[1])
ckpt = out / FINAL_CHECKPOINT
head = load_checkpoint(ckpt)
copy = save_head(head, out / "roundtrip.json")
assert copy.read_bytes() == ckpt.read_bytes(), (
    "checkpoint save/load round-trip was not byte-identical"
)
print(f"policy smoke: checkpoint round-trip ok ({ckpt.name})")
EOF
python -m repro policy eval \
    --heads "static:sensible-routing,$POLICY_OUT/policy-head-final.json" \
    --scenarios two-region --replicates 1 --eras 10 --workers 2 \
    --seed 7 --train-dir "$POLICY_OUT"

echo "== slo smoke =="
python - <<'EOF'
import asyncio

from repro.experiments.scenarios import two_region_scenario
from repro.serve import AcmService, ServeConfig, WallClock, serving
from repro.slo import SloConfig


async def _get(host, port, path):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
        "Connection: close\r\n\r\n".encode()
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    status = int(lines[0].split(None, 2)[1])
    headers = {}
    for ln in lines[1:]:
        key, _, value = ln.partition(":")
        headers[key.strip().lower()] = value.strip()
    return status, headers, body.decode()


async def smoke():
    clock = WallClock(speed=30.0)
    # 1 microsecond p95: any real response breaches, so the adaptive
    # rung must degrade within a handful of requests.  Short window and
    # dwell keep the recovery leg of the smoke under ~4 wall seconds.
    slo = SloConfig(p95_target_s=1e-6, window_s=1.0, min_dwell_s=2.0)
    service = AcmService(
        two_region_scenario(), clock, ServeConfig(seed=7, slo=slo)
    )
    async with serving(service) as ingress:
        host, port = "127.0.0.1", ingress.port
        shed = 0
        for _ in range(40):
            status, headers, body = await _get(host, port, "/route")
            if status == 429 and '"slo"' in body:
                shed += 1
                assert "retry-after" in headers, (
                    "slo 429 missing Retry-After header"
                )
                assert int(headers["retry-after"]) >= 1
        assert shed > 0, "impossible p95 target never tripped the ladder"
        status, _, body = await _get(host, port, "/metrics")
        assert status == 200, f"/metrics returned {status}"
        slo_lines = [
            ln for ln in body.splitlines()
            if ln.startswith("slo_") and not ln.startswith("#")
        ]
        assert slo_lines, "no slo_* samples in /metrics"
        assert any("slo_shed_total" in ln for ln in slo_lines)
        # recovery: the window (1 s) drains and the dwell (2 s) elapses
        # with no traffic; the next request must re-evaluate to normal
        await asyncio.sleep(3.5)
        status, _, _ = await _get(host, port, "/route")
        assert status == 200, f"post-dwell request returned {status}"
        status, _, body = await _get(host, port, "/slo")
        assert status == 200 and '"degraded"' not in body, (
            f"/slo still degraded after dwell: {body}"
        )
    print(
        f"slo smoke: {shed}/40 burst requests shed with Retry-After, "
        f"{len(slo_lines)} slo_* samples, recovered after dwell"
    )


asyncio.run(smoke())
EOF

echo "== state-table parity smoke =="
python -m pytest -q \
    "tests/pcam/test_columnar_parity.py::test_vmc_era_parity_oracle" \
    "tests/pcam/test_columnar_parity.py::test_vmc_parity_under_chaos_and_churn" \
    "tests/pcam/test_columnar_parity.py::test_des_loop_parity"

echo "== e2e benchmark smoke =="
python3 -m pytest benchmarks/e2e/tests -q
for workload in sweep_grid des_two_region serve_steady serve_fault_slo \
        pcam_fleet_10k fig4_fluid; do
    E2E_OUT="$(python3 benchmarks/e2e/run.py --smoke --seed 5 --workload "$workload")"
    echo "$E2E_OUT"
    tail -n 1 <<<"$E2E_OUT" | python3 -c '
import json, sys
doc = json.loads(sys.stdin.readline())
sys.exit(0 if doc["correct"] is True and doc["failed"] == 0 else 1)
' || { echo "e2e smoke: $workload not correct or has failed operations" >&2; exit 1; }
    # same seed, same smoke => the same bytes on every commit: the fleet
    # era's reports, the two oracle-driven workloads whose digests an
    # oracle / overlay / plan change must not move (recorded at fde7fb3),
    # and the REP-Tree-driven figure whose trace an F2PM training,
    # inference or era-kernel change must not move
    case "$workload" in
        pcam_fleet_10k) pin='"era_report_digest": "0a8c68814499b22f24924c358ec99391"' ;;
        sweep_grid)     pin='"payload_digest": "bc78e9455d8b2c05f2226c606a48ec2c"' ;;
        des_two_region) pin='"trace_digest": "e7e79e1d5f42c490de4a6db0e27f1e31"' ;;
        fig4_fluid)     pin='"trace_digest": "dc9bff136244e13b7c738017e6e85083"' ;;
        *)              pin="" ;;
    esac
    [ -z "$pin" ] || grep -qF "$pin" <<<"$E2E_OUT" \
        || { echo "e2e smoke: $workload moved off $pin" >&2; exit 1; }
done
# a second seed of the REP-Tree-driven figure: other pools, other trees
E2E_OUT="$(python3 benchmarks/e2e/run.py --smoke --seed 6 --workload fig4_fluid)"
echo "$E2E_OUT"
grep -qF '"trace_digest": "2a3b1d700a82aba2d5e605fdbd222349"' <<<"$E2E_OUT" \
    || { echo "e2e smoke: fig4_fluid moved off its seed-6 trace_digest" >&2; exit 1; }
# and of the DES: other routing draws, other completions
E2E_OUT="$(python3 benchmarks/e2e/run.py --smoke --seed 6 --workload des_two_region)"
echo "$E2E_OUT"
grep -qF '"trace_digest": "a1871f494201c32269851c7d9b82f323"' <<<"$E2E_OUT" \
    || { echo "e2e smoke: des_two_region moved off its seed-6 trace_digest" >&2; exit 1; }

echo "== one-spelling check =="
if grep -n "cumsum" src/repro/core/des_loop.py src/repro/serve/service.py; then
    echo "a plan-row CDF is built outside core/forward_plan.py" >&2; exit 1
fi
for call in "degradation.observe(" "election.elect("; do
    if grep -rnF "$call" src/repro --include='*.py' \
            | grep -v "^src/repro/core/control_loop.py:"; then
        echo "leader step: $call called outside core/control_loop.py" >&2
        exit 1
    fi
done
if grep -rnE "POOL_MAX|_recycle|poolable|JSQ_SCAN_MAX|active_arr" src/; then
    echo "the Event pool / the thresholded NumPy JSQ branch is back" >&2; exit 1
fi
if grep -rnE "^\s*(import heapq|from heapq)" src/repro --include='*.py' \
        | grep -v "^src/repro/sim/engine.py:"; then
    echo "an event heap is kept outside sim/engine.py" >&2; exit 1
fi
if grep -n "FeatureMonitor(" src/repro/pcam/vmc.py; then
    echo "the VMC builds per-VM FeatureMonitors again" >&2; exit 1
fi
if [ "$(grep -rF "_lognormal(" src/repro --include='*.py' | wc -l)" -ne 1 ]; then
    echo "the anomaly sampling body is spelled more than once" >&2; exit 1
fi
if grep -rnE 'f"/?(retrain|domains|head:|slo:)\{|!= \(?"flat"|!= \("",\)|!= \(0,\)' \
        src/repro --include='*.py' | grep -v "^src/repro/fleet/axes.py:"; then
    echo "a sweep axis is hand-gated outside fleet/axes.py" >&2; exit 1
fi
if grep -rnE "predict_rttf_rows\(|start_rejuvenation\(" \
        src/repro/core src/repro/serve --include='*.py'; then
    echo "a host re-implements the VMC's predict -> swap step" >&2; exit 1
fi
if grep -rnE "(PriorityLadder|SloEvaluator)\(" src/repro --include='*.py' \
        | grep -v "^src/repro/slo/controller.py:"; then
    echo "an SLO plane is built outside slo/controller.py" >&2; exit 1
fi
if grep -rnE "_region_pcam|_slo_note|_slo_refresh|_slo_gates" src/ \
        --include='*.py'; then
    echo "the DES loop's PCAM copy / serve's private SLO plane is back" >&2
    exit 1
fi
if grep -nE "start_server|StreamReader|readline\(" src/repro/serve/ingress.py; then
    echo "the ingress's per-line stream loop is back" >&2; exit 1
fi
if grep -rnE "def invalidate|_reroute\(" src/repro/overlay src/repro/chaos \
        --include='*.py'; then
    echo "a topology cache waits to be told again (key it on overlay.version)" >&2
    exit 1
fi
if grep -rnF "live_graph(" src/repro/core --include='*.py'; then
    echo "core rebuilds the live graph (ask the overlay: it caches per version)" >&2
    exit 1
fi
if grep -n "def violates" src/repro/pcam/vm.py; then
    echo "the oracle kernel's probe is a closure of calls again" >&2; exit 1
fi
if grep -nE "np\.(flatnonzero|mean|clip)\(" src/repro/pcam/vmc.py \
        src/repro/pcam/state_table.py; then
    echo "the region era calls a NumPy Python wrapper (call the ndarray method or ufunc)" >&2
    exit 1
fi
if grep -rnE "(leaked_mb|stuck_threads)\[[^]]*\][[:space:]]*[-+*/]?=([^=]|$)" \
        src/repro --include='*.py' | grep -v "^src/repro/pcam/state_table.py:"; then
    echo "a load-state cell is written outside pcam/state_table.py (its derived columns go stale)" >&2
    exit 1
fi
# (bracketed so that this line does not match itself)
if grep -rnE "des_regio[n]|DesRegio[n]|SessionChai[n]|repro\.workload\.session[s]" \
        src tests examples benchmarks --exclude-dir=__pycache__; then
    echo "a second request path is back (DesControlLoop is the one)" >&2; exit 1
fi
python - <<'EOF'
"""Fail on code under src/repro that only a test can reach."""
import ast
import re
import sys
from pathlib import Path

MIN_LINES = 8
#: name -> why it stays although nothing under src/repro names it
ALLOWED = {
    "DomainAwareBalancer": "README's domain-aware control; an AXES row installs it next",
    "DomainHealthTracker.reporting_regions": "README's reporting set; the same row feeds it to the quorum",
    "Autoscaler.attach_rt_prediction": "the Sec. V RT predictor's one route in; the autoscale row wires it",
    "recommend_cost_optimal": "public API README documents",
    "Telemetry.export_jsonl": "the JSONL exporter README documents",
    "VirtualMachineController.add_vm": "pool growth DESIGN documents",
    "VirtualMachineController.compact_table": "table compaction DESIGN documents",
    "LeaderElection.takeover_count": "DESIGN's election history; an example prints it",
    "OverlayNetwork.full_mesh": "the benchmark harness builds its overlay with it",
    "TraceRecorder.from_csv": "reads back what `repro export` writes",
    "Simulator.pending_events": "how tests observe the event heap",
    "OverlayNetwork.link_is_up": "how tests observe overlay link state",
}

texts, defs = [], []
for path in sorted(Path("src/repro").rglob("*.py")):
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            for i in range(node.lineno - 1, node.end_lineno):
                lines[i] = ""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            members = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                members += [
                    (f"{node.name}.{m.name}", m)
                    for m in node.body
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
            for qualname, member in members:
                size = member.end_lineno - member.lineno + 1
                defs.append((qualname, f"{path}:{member.lineno}", size))
    texts.append("\n".join(lines))
text = "\n".join(texts)

uncalled = {}
for qualname, where, size in defs:
    name = qualname.rsplit(".", 1)[-1]
    if size < MIN_LINES or (name.startswith("__") and name.endswith("__")):
        continue
    # the definition itself is the one occurrence
    if len(re.findall(rf"\b{re.escape(name)}\b", text)) == 1:
        uncalled[qualname] = (where, size)

failed = False
for qualname, (where, size) in sorted(uncalled.items()):
    if qualname not in ALLOWED:
        print(f"{where}: {qualname} ({size} lines) is named nowhere else in src/repro")
        failed = True
for qualname in sorted(set(ALLOWED) - set(uncalled)):
    print(f"allowlisted {qualname} is gone, under {MIN_LINES} lines, or has a caller")
    failed = True
if failed:
    sys.exit("code only a test reaches: call it from src/repro, delete it, "
             "or allowlist it here with a reason")
EOF
# pattern @ the only place under src/repro that may spell it ("!": none)
while IFS='@' read -r pattern home; do
    if grep -rnE "$pattern" src/repro --include='*.py' \
            | grep -vE "^src/repro/($home)"; then
        echo "driver layer: /$pattern/ outside src/repro/($home)" >&2; exit 1
    fi
done <<'TABLE'
two_region_scenario|three_region_scenario@experiments/(scenarios|__init__)\.py:
import argparse@cli\.py:
run_figure[34]|report_figure[34]|CHAOS_CAMPAIGNS|POLICY_SCENARIOS@!
ingress\.start\(\)@serve/
TABLE

echo "ci_check: all gates passed"
