"""The source tree's structural rules, each stated once.

Every row of :data:`RULES` is one decision with one home: a pattern (a
regex, or an ``ast`` matcher where a regex cannot say it), the roots it
searches, the path prefixes where a match is allowed, why, and the
commit since which CI has checked it.  ``test_rule_holds`` runs each row
over the ``*.py`` files under its roots;
``test_an_injected_violation_fires_its_row_only`` appends a line from
:data:`INJECT` to an in-memory copy of the tree and expects that row,
and no other, to fire, so a row that can no longer fail fails here.

The unreached-code scan below the table holds the other half: no code
under ``src/repro`` is reachable only from a test.

Run alone: ``PYTHONPATH=src python -m pytest tests/test_structure.py``.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterator

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = "src/repro/"
#: the load-state cells the state table derives ``service_capacity``
#: and ``exhausted`` from
LOAD_STATE = {"leaked_mb", "stuck_threads"}
#: calls that write into their receiver (``col.fill(0)``) or their first
#: argument (``np.add.at(col, rows, 1)``)
IN_PLACE = {"at", "put", "copyto", "fill", "putmask", "place"}


def _names_cell(node: ast.AST | None) -> bool:
    while isinstance(node, ast.Subscript):
        node = node.value
    return getattr(node, "attr", getattr(node, "id", None)) in LOAD_STATE


def load_state_writes(tree: ast.Module) -> Iterator[int]:
    """Lines that write a load-state cell: a subscript assignment, an
    in-place call, or an ``out=`` argument."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func, args = node.func, node.args
            if (
                isinstance(func, ast.Attribute)
                and func.attr in IN_PLACE
                and (_names_cell(func.value) or (args and _names_cell(args[0])))
            ) or any(
                k.arg == "out" and _names_cell(k.value) for k in node.keywords
            ):
                yield node.lineno
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for t in getattr(target, "elts", [target]):
                    if isinstance(t, ast.Subscript) and _names_cell(t):
                        yield node.lineno


@dataclass(frozen=True)
class Rule:
    id: str
    #: a regex (``re.MULTILINE``), or an ast matcher yielding line numbers
    pattern: str | Callable[[ast.Module], Iterator[int]]
    #: path prefixes searched
    roots: tuple[str, ...]
    #: path prefixes where a match is allowed; ``()``: nowhere
    home: tuple[str, ...]
    reason: str
    #: the commit since which CI has checked the rule
    since: str
    #: matches allowed outside ``home``
    max_count: int = 0


RULES = (
    Rule("plan-cdf", r"cumsum",
         (SRC + "core/des_loop.py", SRC + "serve/service.py"), (),
         "a plan row's CDF is built in core/forward_plan.py only", "3869928"),
    Rule("leader-step", r"degradation\.observe\(|election\.elect\(",
         (SRC,), (SRC + "core/control_loop.py",),
         "the leader step lives in core/control_loop.py only", "3869928"),
    Rule("plan-step", r"RmttfAggregator\(|\.update_all\(|compute_fractions\(",
         (SRC,),
         (SRC + "core/control_loop.py", SRC + "core/policy.py",
          SRC + "policy/heads.py"),
         "Eq. (1) and POLICY() run in the one leader step, "
         "AcmControlLoop.plan; a policy head plans its anchor beside it",
         "after 859774b"),
    Rule("event-pool", r"POOL_MAX|_recycle|poolable|JSQ_SCAN_MAX|active_arr",
         ("src/",), (),
         "the Event pool and the thresholded NumPy JSQ branch stay gone",
         "38fac2c"),
    Rule("event-heap", r"^[ \t]*(import heapq|from heapq)", (SRC,),
         (SRC + "sim/engine.py",),
         "the event heap lives in sim/engine.py only", "38fac2c"),
    Rule("per-vm-monitor", r"MonitorRing\(|FeatureMonitor\(|per_vm_rttf",
         ("src/",), (),
         "the VMC keeps one copy of VM state, its table: no monitor ring, "
         "per-VM monitor or name -> RTTF dict beside it", "after 66ab09f"),
    Rule("anomaly-body", r"_lognormal\(", (SRC,), (),
         "the anomaly sampling body is spelled once", "8760176", max_count=1),
    Rule("sweep-axes",
         r'f"/?(domains|head:|slo:)\{|!= \(?"flat"|!= \("",\)',
         (SRC,), (SRC + "fleet/axes.py",),
         "an optional sweep axis is spelled in fleet/axes.py only", "62e1254"),
    Rule("vmc-step", r"predict_rttf_rows\(|start_rejuvenation\(",
         (SRC + "core/", SRC + "serve/"), (),
         "the per-region predict -> swap step lives in pcam/vmc.py only",
         "d7acf30"),
    Rule("slo-plane", r"(PriorityLadder|SloEvaluator)\(", (SRC,),
         (SRC + "slo/controller.py",),
         "the SLO plane is built in slo/controller.py only", "d7acf30"),
    Rule("private-copies", r"_region_pcam|_slo_note|_slo_refresh|_slo_gates",
         ("src/",), (),
         "the DES loop's PCAM copy and serve's private SLO plane stay gone",
         "d7acf30"),
    Rule("scenario-names", r"two_region_scenario|three_region_scenario",
         (SRC,),
         (SRC + "experiments/scenarios.py", SRC + "experiments/__init__.py"),
         "scenario names resolve through experiments/scenarios.py::SCENARIOS",
         "6c26078"),
    Rule("argparse", r"import argparse", (SRC,), (SRC + "cli.py",),
         "the CLI parses; nothing else does", "6c26078"),
    Rule("figure-names",
         r"run_figure[34]|report_figure[34]|CHAOS_CAMPAIGNS|POLICY_SCENARIOS",
         (SRC,), (),
         "figures, campaigns and scenarios are named by their one table",
         "6c26078"),
    Rule("serve-boot", r"ingress\.start\(\)", (SRC,), (SRC + "serve/",),
         "a deployment boots through `async with serving(service)`",
         "6c26078"),
    Rule("ingress-stream-loop", r"start_server|StreamReader|readline\(",
         (SRC + "serve/ingress.py",), (),
         "the ingress frames requests in its one asyncio.Protocol", "fde7fb3"),
    Rule("topology-invalidate", r"def invalidate|_reroute\(",
         (SRC + "overlay/", SRC + "chaos/"), (),
         "topology caches key on overlay.version; nobody is told to drop them",
         "844d5de"),
    Rule("core-live-graph", r"live_graph\(", (SRC + "core/",), (),
         "core asks the overlay for its per-version view, not a copy",
         "844d5de"),
    Rule("oracle-probe-closure", r"def violates", (SRC + "pcam/vm.py",), (),
         "the oracle kernel's probe runs inline, not as a closure of calls",
         "844d5de"),
    # bracketed so that this line does not match itself
    Rule("one-request-path",
         r"des_regio[n]|DesRegio[n]|SessionChai[n]|repro\.workload\.session[s]",
         ("src/", "tests/", "examples/", "benchmarks/"), (),
         "DesControlLoop is the one request-level simulator", "5682afe"),
    Rule("numpy-wrappers", r"np\.(flatnonzero|mean|clip)\(",
         (SRC + "pcam/vmc.py", SRC + "pcam/state_table.py"), (),
         "the region era calls ndarray methods and ufuncs, not NumPy's "
         "Python wrappers", "ab803be"),
    Rule("load-state-cells", load_state_writes, (SRC,),
         (SRC + "pcam/state_table.py",),
         "a load-state cell written elsewhere leaves service_capacity and "
         "exhausted stale", "7cdf0a2"),
    Rule("partition-penalty",
         r"FORWARD_FALLBACK_PENALTY_S\s*=|timeout-and-retry", (SRC,),
         (SRC + "core/forward_plan.py",),
         "the fluid and the DES loop charge one partition penalty",
         "after 7cdf0a2"),
    Rule("ingress-per-request-parse", r"urlsplit\(|parse_qs\(|json\.dumps\(",
         (SRC + "serve/ingress.py",), (),
         "the ingress parses a target and encodes a reply only in the "
         "helpers its memos call", "after 23c748d", max_count=3),
    # bracketed so that this line does not match itself
    Rule("bit-generator-ctypes", r"bit_generator\.ctype[s]",
         ("src/", "tests/", "examples/", "benchmarks/"), (SRC + "sim/rng.py",),
         "a stream's bit generator is drawn from directly only through "
         "sim/rng.py::ExactDraws", "after 72c5750"),
    Rule("plug-point-rows",
         r"def (predict_rttf|predict_rttf_batch|should_rejuvenate)\(",
         ("src/",), (),
         "a VMC plug point is one method over table rows: no per-VM "
         "predictor or discipline entry beside it", "after 07e1807"),
    Rule("worker-process", r"\.Process\(|ProcessPool|multiprocessing\.Pool",
         ("src/",), (SRC + "fleet/executor.py",),
         "one place starts worker processes: the fleet executor's kept "
         "workers", "after fc9defd"),
    Rule("online-lifecycle",
         r"ml\.online|OnlineLifecycle|online_retrain|MonitorSample\(",
         ("src/",), (),
         "the deployed F2PM model stays frozen: no in-sim retraining "
         "lifecycle, retrain axis or streamed monitor samples",
         "after 05bcc6a"),
)

#: row id -> lines that each violate it: (file, line appended to it)
INJECT = {
    "plan-cdf": [(SRC + "core/des_loop.py", "cdf = np.cumsum(row)")],
    "leader-step": [(SRC + "serve/service.py", "election.elect(region)")],
    "plan-step": [
        (SRC + "core/des_loop.py", "f = compute_fractions(p, f, rmttf, lam)")
    ],
    "event-pool": [(SRC + "sim/engine.py", "POOL_MAX = 4096")],
    "event-heap": [(SRC + "core/des_loop.py", "import heapq")],
    "per-vm-monitor": [
        (SRC + "pcam/vmc.py", "m = FeatureMonitor(window)"),
        (SRC + "core/des_loop.py", "rttf = report.per_vm_rttf[vm.name]"),
    ],
    "anomaly-body": [(SRC + "pcam/vm.py", "s = self._lognormal(1.0, 0.5)")],
    "sweep-axes": [(SRC + "fleet/spec.py", 'tag = f"/domains{shape}"')],
    "vmc-step": [(SRC + "serve/service.py", "vmc.start_rejuvenation(vm)")],
    "slo-plane": [(SRC + "core/control_loop.py", "ladder = PriorityLadder(c)")],
    "private-copies": [(SRC + "serve/service.py", "def _slo_note(self): ...")],
    "scenario-names": [(SRC + "cli.py", "s = two_region_scenario()")],
    "argparse": [(SRC + "serve/service.py", "import argparse")],
    "figure-names": [(SRC + "experiments/runner.py", "r = run_figure3(12)")],
    "serve-boot": [(SRC + "experiments/serve_campaign.py", "ingress.start()")],
    "ingress-stream-loop": [(SRC + "serve/ingress.py", "reader.readline()")],
    "topology-invalidate": [(SRC + "chaos/engine.py", "def invalidate(): ...")],
    "core-live-graph": [(SRC + "core/control_loop.py", "g = net.live_graph()")],
    "oracle-probe-closure": [(SRC + "pcam/vm.py", "def violates(t): ...")],
    "one-request-path": [
        ("tests/core/test_des_loop.py", "from repro.pcam.des_regio" "n import X")
    ],
    "numpy-wrappers": [(SRC + "pcam/vmc.py", "m = np.mean(rttf)")],
    "load-state-cells": [
        (SRC + "pcam/vmc.py", "t.leaked_mb[rows[k]] = 0.0"),
        (SRC + "core/des_loop.py", "np.add.at(t.stuck_threads, rows, 1)"),
    ],
    "partition-penalty": [
        (SRC + "core/control_loop.py", "extra = 0.5  # timeout-and-retry penalty")
    ],
    "ingress-per-request-parse": [
        (SRC + "serve/ingress.py", "query = parse_qs(urlsplit(target).query)")
    ],
    "bit-generator-ctypes": [
        (SRC + "core/des_loop.py", "iface = rng.bit_generator.ctype" "s")
    ],
    "plug-point-rows": [
        (SRC + "pcam/predictor.py", "def predict_rttf(vm): ..."),
        (SRC + "chaos/predictor.py", "def predict_rttf_batch(vms): ..."),
        (SRC + "pcam/rejuvenation.py", "def should_rejuvenate(vm, rttf): ..."),
    ],
    "worker-process": [
        (SRC + "fleet/jobs.py", "proc = ctx.Process(target=execute_job)"),
        (SRC + "experiments/resilience.py", "pool = multiprocessing.Pool(2)"),
    ],
    "online-lifecycle": [
        (SRC + "core/manager.py", "from repro.ml.online import OnlineLifecycle"),
        (SRC + "fleet/jobs.py", "online_retrain: int = 0"),
    ],
}


@lru_cache(maxsize=None)
def _matches(rule: Rule, text: str) -> tuple[int, ...]:
    """The line numbers in ``text`` that match ``rule``'s pattern."""
    if isinstance(rule.pattern, str):
        lines = {
            text.count("\n", 0, m.start()) + 1
            for m in re.finditer(rule.pattern, text, re.MULTILINE)
        }
    else:
        lines = set(rule.pattern(ast.parse(text)))
    return tuple(sorted(lines))


def violations(rule: Rule, files: dict[str, str]) -> list[str]:
    """``[<row id>] file:line`` per line matching ``rule`` outside its
    home; empty while there are no more than ``rule.max_count``."""
    found = [
        f"[{rule.id}] {path}:{n}"
        for path, text in files.items()
        if path.startswith(rule.roots) and not path.startswith(rule.home)
        for n in _matches(rule, text)
    ]
    return found if len(found) > rule.max_count else []


@pytest.fixture(scope="module")
def tree() -> dict[str, str]:
    """Every ``*.py`` file a row may search: repo-relative path -> text."""
    return {
        path.relative_to(REPO).as_posix(): path.read_text(encoding="utf-8")
        for root in ("src", "tests", "examples", "benchmarks")
        for path in sorted((REPO / root).rglob("*.py"))
    }


def test_every_row_has_an_injection():
    assert [rule.id for rule in RULES] == list(INJECT)


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.id)
def test_rule_holds(rule, tree):
    found = violations(rule, tree)
    assert not found, f"{rule.reason}:\n" + "\n".join(found)


@pytest.mark.parametrize(
    "rule_id, path, line",
    [(rule_id, *case) for rule_id, cases in INJECT.items() for case in cases],
)
def test_an_injected_violation_fires_its_row_only(rule_id, path, line, tree):
    files = dict(tree)
    files[path] += f"\n{line}\n"
    fired = {rule.id: violations(rule, files) for rule in RULES}
    assert {k for k, found in fired.items() if found} == {rule_id}
    assert any(f"[{rule_id}] {path}:" in v for v in fired[rule_id])


# ------------------------------------------------------------------ #
# no code under src/repro that only a test reaches
# ------------------------------------------------------------------ #

MIN_LINES = 8
#: name -> why it stays although no code under src/repro names it
ALLOWED = {
    "DomainAwareBalancer": "README's domain-aware control; an AXES row installs it next",
    "DomainHealthTracker.reporting_regions": "README's reporting set; the same row feeds it to the quorum",
    "Autoscaler.attach_rt_prediction": "the Sec. V RT predictor's one route in; the autoscale row wires it",
    "recommend_cost_optimal": "public API README documents",
    "Telemetry.export_jsonl": "the JSONL exporter README documents",
    "VirtualMachineController.add_vm": "pool growth DESIGN documents",
    "VirtualMachineController.remove_vm": "pool shrinking DESIGN documents",
    "VirtualMachineController.compact_table": "table compaction DESIGN documents",
    "LeaderElection.takeover_count": "DESIGN's election history; an example prints it",
    "OverlayNetwork.full_mesh": "the benchmark harness builds its overlay with it",
    "TraceRecorder.from_csv": "reads back what `repro export` writes",
    "read_csv_manifest": "reads back the `# manifest:` line EXPERIMENTS documents",
    "TraceSeries.resample": "puts an exported trace on another time grid",
    "TraceSeries.ewma": "smooths an exported trace",
    "Dataset.concat": "stacks two profiling datasets of one schema for offline training",
    "ChaosEngine.link_flap_every": "the periodic flap schedule the engine's docstring documents",
    "ChaosEngine.poisson_link_flaps": "the seeded flap schedule the engine's docstring documents",
    "Simulator.pending_events": "how tests observe the event heap",
    "RequestMix.sample": "draws a TPC-W interaction sequence from a mix; "
    "the workload tests check each mix's class shares with it",
}


@lru_cache(maxsize=None)
def _scan(text: str) -> tuple[frozenset[str], tuple[tuple[str, int, int], ...]]:
    """What a module's code names (names, attributes, imported names and
    string constants outside ``__all__``), and its top-level functions,
    classes and methods as ``(qualname, line, size)``."""
    tree = ast.parse(text)
    exports = {
        id(n)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for n in ast.walk(node)
    }
    names = set()
    for node in ast.walk(tree):
        if id(node) in exports:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            members = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                members += [
                    (f"{node.name}.{m.name}", m)
                    for m in node.body
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
            defs += [(q, m.lineno, m.end_lineno - m.lineno + 1) for q, m in members]
    return frozenset(names), tuple(defs)


def unreached(files: dict[str, str]) -> dict[str, str]:
    """qualname -> ``file:line`` of each definition of ``MIN_LINES`` or
    more lines under ``src/repro`` that no code there names."""
    names, defs = set(), []
    for path, text in files.items():
        if path.startswith(SRC):
            module_names, module_defs = _scan(text)
            names |= module_names
            defs += [(q, f"{path}:{line}", size) for q, line, size in module_defs]
    return {
        qualname: where
        for qualname, where, size in defs
        if size >= MIN_LINES
        and (name := qualname.rsplit(".", 1)[-1]) not in names
        and not (name.startswith("__") and name.endswith("__"))
    }


def test_no_code_only_a_test_reaches(tree):
    orphans = [
        f"{where}: {q}" for q, where in unreached(tree).items() if q not in ALLOWED
    ]
    assert not orphans, (
        "named by no code in src/repro: call it from there, delete it, "
        "or allowlist it with a reason:\n" + "\n".join(orphans)
    )


def test_the_allowlist_is_current(tree):
    stale = sorted(set(ALLOWED) - set(unreached(tree)))
    assert not stale, f"gone, under {MIN_LINES} lines, or has a caller: {stale}"


ORPHAN = "def orphan_probe(x):\n" + "    x += 1\n" * 7 + "    return x\n"


@pytest.mark.parametrize(
    "mention, reached",
    [
        ("", False),
        ('# orphan_probe in a comment\n"""orphan_probe in a docstring."""\n', False),
        ("orphan_probe(1)\n", True),
    ],
    ids=["alone", "in-prose", "called"],
)
def test_an_injected_orphan_is_found_unless_code_names_it(tree, mention, reached):
    files = dict(tree)
    files[SRC + "sim/rng.py"] += "\n" + ORPHAN
    files[SRC + "sim/engine.py"] += "\n" + mention
    assert ("orphan_probe" not in unreached(files)) is reached


# ------------------------------------------------------------------ #
# one file of digest pins
# ------------------------------------------------------------------ #


def test_the_smoke_runs_every_workload_and_the_pins_live_in_one_file():
    """``scripts/ci_check.sh`` reads its smoke runs and digest pins from
    ``scripts/e2e_pins.txt`` and spells no digest itself."""
    rows = [
        line.split()
        for line in (REPO / "scripts/e2e_pins.txt").read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {row[0] for row in rows} == {w["name"] for w in benchmark["workloads"]}
    assert len({(workload, seed) for workload, seed, *_ in rows}) == len(rows)
    for _, seed, key, digest in rows:
        assert seed.isdigit()
        assert (key, digest) == ("-", "-") or (
            key.endswith("_digest") and re.fullmatch(r"[0-9a-f]{32}", digest)
        )
    script = (REPO / "scripts/ci_check.sh").read_text()
    assert "scripts/e2e_pins.txt" in script
    assert not re.search(r"[0-9a-f]{32}", script)


# ------------------------------------------------------------------ #
# a batch-drawing fleet binds no bit-generator handle
# ------------------------------------------------------------------ #


def test_a_fleet_era_binds_no_one_request_draw():
    """``AnomalyInjector`` binds :class:`repro.sim.rng.ExactDraws` on its
    first one-request draw, never before: binding costs ~50 us and
    ~1.7 KB a stream, which a 10 000-VM pool drawing batches must not
    pay at set-up or per era."""
    import numpy as np

    from repro.pcam.predictor import RttfPredictor
    from repro.pcam.vm import VirtualMachine
    from repro.pcam.vmc import VirtualMachineController, VmcConfig
    from repro.sim.instances import get_instance_type
    from repro.workload.anomalies import AnomalyInjector

    class Steady(RttfPredictor):
        def predict_rttf_rows(self, rows, vms):
            return np.full(len(vms), 1e9)

    n_vms = 10_000
    itype = get_instance_type("m3.medium")
    vms = [
        VirtualMachine(
            f"vm{i:05d}", itype, AnomalyInjector(np.random.default_rng([5, i]))
        )
        for i in range(n_vms)
    ]
    vmc = VirtualMachineController(
        "fleet", vms, Steady(), VmcConfig(target_active=n_vms)
    )
    vmc.process_era(4 * n_vms, 30.0, 0.0)
    assert vmc.table.total_requests.min() >= 2
    bound = [vm.name for vm in vms if vm.injector._one_request is not None]
    assert not bound, f"{len(bound)} injectors bound a handle: {bound[:3]}"
