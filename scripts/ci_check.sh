#!/usr/bin/env bash
# CI gate: the three checks every change must pass.
#   1. tier-1 tests, tests/test_structure.py's one-spelling rows included;
#   2. the hot-path performance gate against the committed baseline;
#   3. the e2e harness's self-tests, then each smoke run of scripts/e2e_pins.txt.
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

echo "== e2e benchmark smoke =="
python3 -m pytest benchmarks/e2e/tests -q
while read -r workload seed key digest; do
    case "$workload" in '' | '#'*) continue ;; esac
    out="$(python3 benchmarks/e2e/run.py --smoke --seed "$seed" \
        --workload "$workload" < /dev/null)"
    echo "$out"
    tail -n 1 <<<"$out" | python3 -c 'import json, sys
doc = json.loads(sys.stdin.readline())
sys.exit(0 if doc["correct"] is True and doc["failed"] == 0 else 1)' \
        || { echo "e2e smoke: $workload not correct or has failed operations" >&2; exit 1; }
    [ "$key" = - ] || grep -qF "\"$key\": \"$digest\"" <<<"$out" \
        || { echo "e2e smoke: $workload --seed $seed moved off $key $digest" >&2; exit 1; }
done < scripts/e2e_pins.txt

echo "ci_check: all gates passed"
