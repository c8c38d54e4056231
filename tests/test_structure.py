"""The source tree's structural rules, each stated once.

Every row of :data:`RULES` is one decision with one home: a pattern (a
regex, or an ``ast`` matcher where a regex cannot say it), the roots it
searches, the path prefixes where a match is allowed, why, and the
commit since which CI has checked it.  ``test_rule_holds`` runs each row
over the ``*.py`` files under its roots;
``test_an_injected_violation_fires_its_row_only`` appends a line from
:data:`INJECT` to an in-memory copy of the tree and expects that row,
and no other, to fire, so a row that can no longer fail fails here.

The reach gate below the table holds the other half: every function
under ``src/repro`` runs in some ``repro`` invocation, or has a
``REACH_EXEMPT`` row that says why not.  It records what the runs of
:func:`repro_runs` enter in a fresh interpreter (``python
tests/test_structure.py OUT.json`` does the recording alone).  The same
recording feeds the option gate: a defaulted parameter of an entered
def that no run sets and no call under ``src/`` or ``benchmarks/``
passes is a constant, or has an ``OPTION_EXEMPT`` row that says why not.

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


#: the ``VmStateTable`` methods that bind its columns (construction, and
#: a view's slices)
COLUMN_BINDERS = {"_fill", "block", "_bind", "deployment"}


@lru_cache(maxsize=None)
def table_columns() -> frozenset[str]:
    """A state table's column attributes (imported when first asked for:
    the reach recording imports ``repro`` only under its profile hook)."""
    from repro.pcam.state_table import (
        DERIVED_COLUMNS,
        MUTABLE_COLUMNS,
        STATIC_COLUMNS,
    )

    columns = MUTABLE_COLUMNS + STATIC_COLUMNS + DERIVED_COLUMNS
    return frozenset({"state_code", *(name for name, _ in columns)})


def column_rebinds(tree: ast.Module) -> Iterator[int]:
    """Lines that bind a state-table column attribute -- ``table.<column>
    = ...`` or ``setattr(table, ...)`` on a receiver named ``*table*``,
    or on ``self`` in ``VmStateTable`` -- outside that class's
    :data:`COLUMN_BINDERS`."""

    def tableish(node: ast.AST, in_table: bool) -> bool:
        name = getattr(node, "attr", getattr(node, "id", ""))
        return "table" in name or (in_table and name == "self")

    def visit(node: ast.AST, in_table: bool) -> Iterator[int]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name == "VmStateTable")
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if in_table and child.name in COLUMN_BINDERS:
                    continue
            elif isinstance(child, (ast.Assign, ast.AnnAssign)):
                targets = (
                    child.targets if isinstance(child, ast.Assign)
                    else [child.target]
                )
                for target in targets:
                    for t in getattr(target, "elts", [target]):
                        if (
                            isinstance(t, ast.Attribute)
                            and t.attr in table_columns()
                            and tableish(t.value, in_table)
                        ):
                            yield child.lineno
            elif (
                isinstance(child, ast.Call)
                and getattr(child.func, "id", None) == "setattr"
                and len(child.args) >= 2
                and tableish(child.args[0], in_table)
            ):
                name = child.args[1]
                if (
                    not isinstance(name, ast.Constant)
                    or name.value in table_columns()
                ):
                    yield child.lineno
            yield from visit(child, in_table)

    yield from visit(tree, False)


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
         (SRC + "core/control_loop.py", SRC + "core/policy.py"),
         "Eq. (1) and POLICY() run in the one leader step, "
         "AcmControlLoop.plan",
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
         r'f"/?(domains|slo:)\{|!= \(?"flat"|!= \("",\)',
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
    Rule("policy-heads",
         r"repro\.policy|PolicyHead|policy_head|head_runtime",
         ("src/",), (),
         "the Plan phase runs the static policies: no learned head, its "
         "sweep axis or its job field",
         "after 4be6234"),
    Rule("fixed-pool",
         r"add_vm\(|remove_vm\(|compact_table|\.release\(|_grow\(|FREED|\.evict\(",
         ("src/",), (),
         "a region's VM pool is fixed when its table is built: resizing "
         "activates STANDBY rows; nothing provisions, frees, repacks or "
         "evicts a VM", "after dc972de"),
    Rule("plane-one-mode", r"reliable_control|control_window_s",
         ("src/",), (),
         "the distributed plane always carries Algorithm 1 and 3 traffic on "
         "its reliable channel: no oracle-exchange mode or window option",
         "after 2683514"),
    Rule("one-vm-state", r"TableBackedVM|_column_property|__class__ =",
         (SRC,), (),
         "a VM's state lives in its VmStateTable row: VirtualMachine is a "
         "view, never re-classed, with no attribute routed to a column "
         "beside it", "after e9865d5"),
    Rule("vm-transitions", r"state_code\[[^\]\n]*\] *=[^=]",
         (SRC,), (SRC + "pcam/state_table.py",),
         "a VM's lifecycle transitions are VmStateTable methods: nothing "
         "else writes a state code", "after e9865d5"),
    Rule("chaos-one-scheduler", r"schedule_(at|after|periodic)\(",
         (SRC + "chaos/engine.py",), (),
         "campaigns apply fault primitives at era boundaries through their "
         "FaultScript: the chaos engine schedules nothing on the clock",
         "after b4d2a87"),
    Rule("plane-constants",
         r"DegradationConfig|flight_capacity|channel_timeout_s|base_timeout_s"
         r"|backoff_factor|jitter_s|on_give_up|\b(register|start)=(True|False)",
         ("src/",), (),
         "the channel's retry ladder, the detector and gossip wiring, the "
         "degradation ladder and the flight ring's size are module "
         "constants: no option sets them",
         "after f07be4b"),
    Rule("control-protocol",
         r'ReliableChannel\(|\b(REPORT|PLAN|FRACTIONS)_KIND\b'
         r'|"(rmttf-report|plan-row)"|"fractions"(?!\s*:)',
         ("src/",), (SRC + "core/distributed.py", SRC + "overlay/reliable.py"),
         "Algorithms 1 and 3 travel as ReliableTransport's messages on every "
         "host: nobody else spells a control message kind or builds a "
         "reliable channel", "after f3acc81"),
    Rule("shared-columns", column_rebinds,
         ("src/", "tests/", "examples/", "benchmarks/"), (),
         "a region's table is a view of its deployment's: a column rebound "
         "anywhere but VmStateTable's construction detaches the view, whose "
         "writes then stop reaching the deployment table",
         "after cb6d72f"),
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
    "policy-heads": [
        (SRC + "core/manager.py", "from repro.policy.heads import PolicyHead"),
        (SRC + "fleet/jobs.py", 'policy_head: str = ""'),
        (SRC + "core/control_loop.py", "self.head_runtime = None"),
    ],
    "fixed-pool": [
        (SRC + "core/autoscale.py", "vmc.add_vm(vm)"),
        (SRC + "pcam/state_table.py", "FREED = -1"),
        (SRC + "chaos/predictor.py", "self.inner.evict(vm_name)"),
    ],
    "plane-one-mode": [
        (SRC + "experiments/resilience.py",
         "plane = DistributedControlPlane(loop, reliable_control=False)"),
        (SRC + "core/distributed.py", "control_window_s: float = 3.0,"),
    ],
    "one-vm-state": [
        (SRC + "pcam/state_table.py", "vm.__class__ = TableBackedVM"),
        (SRC + "pcam/vm.py", "leaked_mb = _column_property('leaked_mb')"),
    ],
    "vm-transitions": [
        (SRC + "core/des_loop.py", "table.state_code[slot] = CODE_FAILED"),
    ],
    "chaos-one-scheduler": [
        (SRC + "chaos/engine.py",
         "self.sim.schedule_at(t, lambda: self.fail_link(a, b))"),
    ],
    "plane-constants": [
        (SRC + "core/control_loop.py",
         "degradation: DegradationConfig | None = None,"),
        (SRC + "obs/telemetry.py", "flight_capacity: int = 512,"),
        (SRC + "serve/service.py",
         "transport = _ServeTransport(self, rng, base_timeout_s=0.5)"),
        (SRC + "core/distributed.py",
         "mesh = build_detector_mesh(nodes, sim, bus, register=False)"),
    ],
    "control-protocol": [
        (SRC + "serve/service.py", 'REPORT_KIND = "rmttf-report"'),
        (SRC + "serve/service.py",
         "self.channel = ReliableChannel(self.bus, rng, telemetry=tel)"),
        (SRC + "core/des_loop.py",
         'self.channel.send(r, leader, "plan-row", payload)'),
        (SRC + "serve/service.py", 'installs = msg.kind == "fractions"'),
    ],
    "shared-columns": [
        (SRC + "core/des_loop.py", "state.table.leaked_mb = np.zeros(4)"),
        (SRC + "chaos/engine.py", 'setattr(vmc.table, "uptime_s", uptime)'),
        (SRC + "pcam/state_table.py", "table.state_code = codes.copy()"),
        ("tests/pcam/test_region_group.py", "setattr(dep.table, name, col)"),
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
# no code under src/repro that no `repro` invocation runs
# ------------------------------------------------------------------ #

MIN_LINES = 8
#: an on value per ``fleet/axes.py::AXES`` row, for the sweep that names
#: every axis
AXIS_ON = {"domains": "2x2", "slo": "p95:1"}
_DES = "the request-level DES: ROADMAP 9 runs it from the CLI or moves it under tests/"
_RESIZE = (
    "pool resizing over the fixed pool (Autoscaler -> set_target_active -> "
    "start_rejuvenation): ROADMAP 20 runs it from the CLI, mends it or cuts it"
)
_DOMAIN = (
    "fault-domain-aware control: ROADMAP 9(c)'s `domain_aware` "
    "sweep axis wires it"
)
_TREND = "the trend-aware predictor: ROADMAP 4(b)'s `<model>+trend` spec wires it"
_DES_REFRESH = (
    _DES + " (one row's scalar refresh, VmStateTable._refresh, from its "
    "complete_request)"
)
_HARNESS = "the frozen benchmark harness (benchmarks/e2e) calls it"
_GATED_SERVE = (
    "serve's SLO gate under traffic: the frozen harness's serve_fault_slo "
    "drives `serve --slo-p95`; no repro run sends requests to a gated serve"
)
#: ``path::qualname`` (path under ``src/repro``) -> why it stays although
#: no run of :func:`repro_runs` enters it: the open ROADMAP item that will
#: wire it, the frozen benchmark harness that calls it, or why it is
#: public API
REACH_EXEMPT: dict[str, str] = {
    "core/autoscale.py::AutoscaleConfig.__post_init__": _RESIZE,
    "core/autoscale.py::Autoscaler.apply": _RESIZE,
    "core/autoscale.py::Autoscaler.decide": _RESIZE,
    "core/autoscale.py::Autoscaler.expected_rmttf_after": _RESIZE,
    "core/des_loop.py::DesControlLoop.__init__": _DES,
    "core/des_loop.py::DesControlLoop._analyze_regions": _DES,
    "core/des_loop.py::DesControlLoop._complete": _DES,
    "core/des_loop.py::DesControlLoop._forward_latency_s": _DES,
    "core/des_loop.py::DesControlLoop._install_plan": _DES,
    "core/des_loop.py::DesControlLoop._issue": _DES,
    "core/des_loop.py::DesControlLoop._run_era_body": _DES,
    "core/des_loop.py::DesControlLoop._start_browsers": _DES,
    "core/des_loop.py::DesControlLoop.run": _DES,
    "core/des_loop.py::_RegionState.rebuild_active_slots": _DES,
    "experiments/resilience.py::recovery_bound_eras":
        "public API: the eras a leader-kill campaign must re-converge within, "
        "from the plane's detector timeout and heartbeat period",
    "fleet/jobs.py::_execute_synthetic":
        _HARNESS + " (its fleet workloads run `synthetic` jobs)",
    "ml/derived.py::augment_runs_with_slopes": _TREND,
    "ml/derived.py::slope_features": _TREND,
    "obs/exporters.py::_prom_labels": _HARNESS + " (it scrapes serve's /metrics)",
    "obs/exporters.py::to_prometheus_text": _HARNESS + " (it scrapes serve's /metrics)",
    "overlay/network.py::OverlayNetwork.full_mesh":
        _HARNESS + " (it builds its overlay with it)",
    "pcam/balancer.py::DomainAwareBalancer.__init__": _DOMAIN,
    "pcam/balancer.py::DomainAwareBalancer.weights_of": _DOMAIN,
    "pcam/predictor.py::TrendAwareRttfPredictor.predict_rttf_rows": _TREND,
    "pcam/state_table.py::VmStateTable._refresh":
        _DES + " (its complete_request)",
    "pcam/state_table.py::VmStateTable.complete_request": _DES,
    "pcam/vm.py::effective_capacity": _DES_REFRESH,
    "pcam/vm.py::swap_used_mb": _DES_REFRESH,
    "pcam/vmc.py::RegionGroup.close_era":
        _DES + " (its era boundary closes every region in one step)",
    "pcam/vmc.py::VirtualMachineController.close_era":
        "public API: the one-region close-out for a host that applies the "
        "era's load to the table itself",
    "pcam/vmc.py::VirtualMachineController.process_era":
        _HARNESS + " (pcam_fleet_10k steps one 10 000-VM region through it)",
    "pcam/vmc.py::VirtualMachineController.set_target_active": _RESIZE,
    "pcam/vmc.py::VirtualMachineController.stats": _HARNESS + " (its pool totals)",
    "serve/service.py::AcmService._slo_check": _GATED_SERVE,
    "serve/service.py::AcmService.slo_override":
        "public API: README's /slo/override admin endpoint; no repro run sends "
        "an admin request",
    "sim/engine.py::Simulator.pending_events":
        "public API: the pending events; tests/test_cli.py's teardown check "
        "filters them by label",
    "sim/engine.py::Simulator.run": _DES,
    "sim/engine.py::Simulator.schedule_pooled": _DES + "; the frozen harness probes it",
    "sim/rng.py::ExactDraws.integers": _DES,
    "sim/tracing.py::TraceRecorder.from_csv":
        "public API: reads back the trace CSV `repro export` writes",
    "sim/tracing.py::read_csv_manifest":
        "public API: reads back the `# manifest:` line `repro export` and "
        "`sweep --csv` write",
    "slo/controller.py::SloController.set_override":
        "public API: README's /slo/override admin endpoint; no repro run sends "
        "an admin request",
    "slo/controller.py::SloController.snapshot":
        "public API: README's /slo admin endpoint; no repro run sends an admin "
        "request",
    "slo/evaluator.py::SloConfig.spec": _GATED_SERVE,
    "slo/evaluator.py::SloEvaluator.p95": _GATED_SERVE,
    "slo/evaluator.py::SloEvaluator.status": _GATED_SERVE,
    "slo/evaluator.py::_trimmed": _GATED_SERVE,
    "topology/health.py::DomainHealthTracker.reporting_regions": _DOMAIN,
}


def repro_runs() -> list[tuple[list[str], set[int]]]:
    """The ``repro`` invocations the reach gate runs, in order, as
    ``(argv with {tmp}, documented exit codes)``: every subcommand at its
    smallest (``TestEverySubcommandRuns.SMALLEST``), then one run per
    documented flag value that those leave at its default."""
    from repro.core.policy import POLICY_REGISTRY
    from repro.experiments.resilience import CAMPAIGNS
    from repro.fleet.axes import AXES
    from repro.ml.toolchain import DEFAULT_SUITE
    from tests.test_cli import TestEverySubcommandRuns as every

    assert set(AXIS_ON) == {axis.spec_field for axis in AXES}
    compare = ["compare", "--regions", "2", "--eras", "10", "--policies"]
    axes = [
        arg
        for axis in AXES
        for arg in (
            "--" + axis.spec_field.replace("_", "-"),
            f"{axis.off_token},{AXIS_ON[axis.spec_field]}",
        )
    ]
    campaign = next(iter(CAMPAIGNS))
    runs = [
        (name.split() + tail, codes)
        for name, (tail, codes) in every.SMALLEST.items()
    ]
    runs += [
        ([*compare, "uniform", "--predictor", model], {0})
        for model in DEFAULT_SUITE
    ]
    # at 10 req/s some VM serves exactly one request in an era, so the
    # one-request anomaly draw runs in every recording, not by timing
    runs += [
        (["loadtest", "--duration", "1.5", "--rate", "10",
          "--schedule", schedule], {0, 1})
        for schedule in ("diurnal", "flash")
    ]
    runs += [
        ([*compare, ",".join(POLICY_REGISTRY)], {0}),
        (["chaos", "all"], {0}),
        # its own default, spelled out: the same run through `--eras`
        (["chaos", campaign, "--eras", str(CAMPAIGNS[campaign].default_eras)],
         {0}),
        (["obs", "{tmp}/dump.json", "--chrome", "{tmp}/trace.json"], {0}),
        (["sweep", *every.SWEEP, "--dry-run"], {0}),
        (["sweep", *every.SWEEP, *axes, "--workers", "2",
          "--store", "{tmp}/axes-store", "--csv", "{tmp}/axes.csv", "--gc",
          "--resume", "--obs-dump", "{tmp}/axes-dump.json"], {0}),
    ]
    return runs


def _function_of(frame) -> object | None:
    """The function object whose call ``frame`` is, found through its
    module's globals and ``co_qualname``; a dataclass's generated
    ``__init__`` through its ``self``. ``None`` for a nested function, a
    lambda or a def outside ``repro``."""
    code = frame.f_code
    globals_ = frame.f_globals
    if not str(globals_.get("__name__", "")).startswith("repro"):
        return None
    if code.co_filename == "<string>":
        if code.co_name != "__init__" or not code.co_argcount:
            return None
        owner = type(frame.f_locals.get(code.co_varnames[0]))
        for cls in owner.__mro__:
            fn = cls.__dict__.get("__init__")
            if getattr(fn, "__code__", None) is code:
                return fn
        return None
    if "<" in code.co_qualname:
        return None
    obj = globals_
    for part in code.co_qualname.split("."):
        obj = obj.get(part) if isinstance(obj, dict) else vars(obj).get(part)
        if obj is None:
            return None
    for fn in (obj, *(getattr(obj, a, None) for a in ("__func__", "fget", "fset"))):
        while fn is not None and getattr(fn, "__code__", None) is not code:
            fn = getattr(fn, "__wrapped__", None)
        if fn is not None:
            return fn
    return None


def _same(value: object, default: object) -> bool:
    """``value`` is ``default``, or an equal value of its type."""
    if value is default:
        return True
    if type(value) is not type(default):
        return False
    try:
        return bool(value == default)
    except (TypeError, ValueError):  # an array's == has no single truth
        return False


def record_reach(out: str) -> None:
    """Run :func:`repro_runs` in this process; write to ``out`` (JSON) the
    exit code of each, ``[file, first line]`` of every code object under
    ``src/repro`` that any of them entered, and, per entered ``repro``
    def (``path::qualname``), its defaulted parameters in order with those
    some call bound to a value other than the default; forked fleet
    workers included. The runs write their files beside ``out``.

    The profile hook goes in before ``repro`` is imported, so what runs at
    import time (policy registration, the catalog's ``__post_init__``)
    counts. ``threading.setprofile`` carries it into threads; a wrapper of
    ``fleet.executor._job_worker`` has each forked worker write its own
    sets to a file as it exits. A parameter is compared with its default
    until some call sets it; then the hook stops looking at it.
    """
    import contextlib
    import io
    import os
    import sys
    import threading

    seen: dict[int, object] = {}
    #: id(code) -> (``path::qualname``, [(name, default)] not yet seen set)
    watch: dict[int, tuple[str, list] | None] = {}
    #: ``path::qualname`` -> {"defaulted": [...], "positional": [...],
    #: "set": {...}}
    options: dict[str, dict] = {}

    def resolve(frame) -> tuple[str, list] | None:
        fn = _function_of(frame)
        file = frame.f_globals.get("__file__")
        if fn is None or not file or not Path(file).is_relative_to(REPO / SRC):
            return None
        code = fn.__code__
        positional = code.co_varnames[: code.co_argcount]
        defaults = fn.__defaults__ or ()
        pairs = list(zip(positional[len(positional) - len(defaults):], defaults))
        pairs += list((fn.__kwdefaults__ or {}).items())
        if not pairs:
            return None
        key = f"{Path(file).relative_to(REPO / SRC).as_posix()}::{fn.__qualname__}"
        entry = options.setdefault(key, {"set": set()})
        entry["defaulted"] = [name for name, _ in pairs]
        entry["positional"] = list(positional)
        return key, pairs

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen[id(code)] = code
            if id(code) not in watch:
                watch[id(code)] = resolve(frame)
            todo = watch[id(code)]
            if todo and todo[1]:
                key, pairs = todo
                bound = frame.f_locals
                for pair in [p for p in pairs if not _same(bound[p[0]], p[1])]:
                    pairs.remove(pair)
                    options[key]["set"].add(pair[0])

    def entered() -> list[tuple[str, int]]:
        return sorted(
            {
                (path.relative_to(REPO).as_posix(), code.co_firstlineno)
                for code in list(seen.values())
                if (path := Path(code.co_filename)).is_relative_to(REPO / SRC)
            }
        )

    def recorded() -> dict:
        return {
            "entered": entered(),
            "options": {
                key: {**entry, "set": sorted(entry["set"])}
                for key, entry in options.items()
            },
        }

    sys.setprofile(hook)
    threading.setprofile(hook)
    import repro.fleet.executor as executor
    from repro.cli import main

    tmp = Path(out).resolve().parent
    job_worker = executor._job_worker

    def traced_worker(conn) -> None:
        try:
            job_worker(conn)
        finally:
            sys.setprofile(None)
            (tmp / f"worker-{os.getpid()}.json").write_text(
                json.dumps(recorded())
            )

    executor._job_worker = traced_worker
    codes = []
    for argv, _ in repro_runs():
        argv = [arg.format(tmp=tmp) for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                codes.append(main(argv))
            except SystemExit as exit_:
                codes.append(exit_.code)
    sys.setprofile(None)
    threading.setprofile(None)
    merged = recorded()
    found = set(map(tuple, merged["entered"]))
    for worker in tmp.glob("worker-*.json"):
        theirs = json.loads(worker.read_text())
        found |= set(map(tuple, theirs["entered"]))
        for key, entry in theirs["options"].items():
            mine = merged["options"].setdefault(key, entry)
            mine["set"] = sorted(set(mine["set"]) | set(entry["set"]))
    merged["entered"] = sorted(found)
    Path(out).write_text(json.dumps({"codes": codes, **merged}))


def _is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """A body of a docstring, ``...`` or ``pass`` and nothing else."""
    return all(
        isinstance(stmt, ast.Pass)
        or isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
        for stmt in node.body
    )


@lru_cache(maxsize=None)
def _defs(text: str) -> tuple[tuple[str, int, int], ...]:
    """A module's functions and methods with code, as ``(qualname, first
    line, size)``. The first line is the one its code object starts on
    (the first decorator's, if any); the size counts from the ``def``
    line."""
    defs = []

    def visit(body: list[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_stub(node):
                    continue
                lines = [node.lineno] + [d.lineno for d in node.decorator_list]
                size = node.end_lineno - node.lineno + 1
                defs.append((prefix + node.name, min(lines), size))

    visit(ast.parse(text).body, "")
    return tuple(defs)


def unentered(
    files: dict[str, str], entered: set[tuple[str, int]]
) -> dict[str, tuple[str, int]]:
    """``path::qualname`` -> ``(file, size)`` of each function or method
    of ``MIN_LINES`` or more lines under ``src/repro`` whose code object
    (``(file, first line)``) is not in ``entered``.

    A class is checked through its methods: its body runs at import, so
    entering it says nothing. A class with no method of ``MIN_LINES``
    lines (a dataclass of fields, an enum, an exception) holds no code of
    its own and is not checked; nor is a protocol or abstract method
    whose body is only its docstring.
    """
    return {
        f"{path[len(SRC):]}::{qualname}": (path, size)
        for path, text in files.items()
        if path.startswith(SRC)
        for qualname, first, size in _defs(text)
        if size >= MIN_LINES and (path, first) not in entered
    }


def work_list(found: dict[str, tuple[str, int]]) -> str:
    """``found`` grouped by file, with line counts."""
    by_file: dict[str, list[str]] = {}
    sizes: dict[str, int] = {}
    for key, (path, size) in sorted(found.items()):
        by_file.setdefault(path, []).append(
            f"  {size:4d}  {key.split('::')[1]}"
        )
        sizes[path] = sizes.get(path, 0) + size
    return "\n".join(
        f"{path} ({sizes[path]} lines)\n" + "\n".join(rows)
        for path, rows in by_file.items()
    )


@pytest.fixture(scope="module")
def reach(tmp_path_factory) -> dict:
    """One recording of :func:`record_reach`, in a fresh interpreter."""
    import subprocess
    import sys

    tmp = tmp_path_factory.mktemp("reach")
    done = subprocess.run(
        [sys.executable, __file__, str(tmp / "reach.json")],
        cwd=tmp, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    recorded = json.loads((tmp / "reach.json").read_text())
    recorded["entered"] = set(map(tuple, recorded["entered"]))
    return recorded


def test_every_reach_run_exits_as_documented(reach):
    wrong = [
        f"repro {' '.join(argv)}: exit {code}, documented {sorted(codes)}"
        for (argv, codes), code in zip(repro_runs(), reach["codes"])
        if code not in codes
    ]
    assert len(reach["codes"]) == len(repro_runs()) and not wrong, wrong


def test_no_code_only_a_test_reaches(tree, reach):
    found = {
        key: where
        for key, where in unentered(tree, reach["entered"]).items()
        if key not in REACH_EXEMPT
    }
    assert not found, (
        "no `repro` run enters these: run them from the CLI, delete them, "
        "or add a REACH_EXEMPT row with its reason:\n" + work_list(found)
    )


def test_the_allowlist_is_current(tree, reach):
    stale = sorted(set(REACH_EXEMPT) - set(unentered(tree, reach["entered"])))
    assert not stale, f"gone, under {MIN_LINES} lines, or entered: {stale}"


ORPHAN = "def orphan_probe(x):\n" + "    x += 1\n" * 7 + "    return x\n"


@pytest.mark.parametrize(
    "mention, entered",
    [
        ("", False),
        ('# orphan_probe in a comment\n"""orphan_probe in a docstring."""\n', False),
        ("orphan_probe(1)\n", True),
    ],
    ids=["alone", "in-prose", "called"],
)
def test_an_injected_orphan_is_found_unless_it_runs(tree, mention, entered):
    files = dict(tree)
    files[SRC + "sim/rng.py"] += "\n" + ORPHAN
    files[SRC + "sim/engine.py"] += "\n" + mention
    (line,) = [
        first for name, first, _ in _defs(files[SRC + "sim/rng.py"])
        if name == "orphan_probe"
    ]
    ran = {(SRC + "sim/rng.py", line)} if entered else set()
    assert ("sim/rng.py::orphan_probe" not in unentered(files, ran)) is entered


# ------------------------------------------------------------------ #
# no option that nothing sets
# ------------------------------------------------------------------ #

_METRICS = (
    "an assessment knob: ROADMAP 3 measures convergence where it happens "
    "and drops or re-states it"
)
_PHYSICS = (
    "deployment physics: ROADMAP 21(a) builds one record from the Scenario "
    "and sets it"
)
_LATER = (
    "ROADMAP 22(c): no run sets it, but cutting it retires the tests of "
    "the behaviour only it gives ({}), so it goes in a cut of its own"
)
_DIURNAL = _LATER.format(
    "test_profiles.py's phase and noise tests and five validation cases"
)
_MIN_FRACTION = (
    "public API: get_policy(name, **kwargs) forwards it to the registered "
    "class; benchmarks/bench_convergence.py and bench_scale.py pass "
    "min_fraction=0.0"
)
_BALANCER = (
    "ROADMAP 9(c): the `domain_aware` sweep axis builds DomainAwareBalancer, "
    "which forwards it; until then only tests set it"
)
#: ``path::qualname(parameter)`` -> why a defaulted parameter stays
#: although no run of :func:`repro_runs` sets it and no call under
#: ``src/`` or ``benchmarks/`` passes it: the open ROADMAP item that will
#: set it, the frozen harness, a deployment setting, or public API
OPTION_EXEMPT: dict[str, str] = {
    "core/baselines.py::StaticWeightsPolicy.__init__(min_fraction)":
        _MIN_FRACTION,
    "core/baselines.py::StaticWeightsPolicy.__init__(weights)":
        "public API: explicit static weights, the class docstring's "
        "StaticWeightsPolicy(weights=[330, 312, 160])",
    "core/costaware.py::CostAwarePolicy.__init__(min_fraction)": _MIN_FRACTION,
    "core/exploration.py::ExplorationPolicy.__init__(min_fraction)":
        _MIN_FRACTION,
    "core/manager.py::AcmManager.__init__(autoscale_config)": _RESIZE,
    "core/policy.py::Policy.__init__(min_fraction)":
        "ROADMAP 22(c): every registered policy forwards it through "
        "super().__init__, and benchmarks/bench_convergence.py and "
        "bench_scale.py set it through get_policy(name, min_fraction=0.0), "
        "whose **kwargs the static half does not follow",
    "core/metrics.py::assess_policy_run(convergence_tolerance)": _METRICS,
    "core/metrics.py::assess_policy_run(settle_fraction)": _METRICS,
    "core/metrics.py::assess_policy_run(sla_threshold_s)": _METRICS,
    "core/metrics.py::assess_policy_run(tail)": _METRICS,
    "core/metrics.py::convergence_time(allowed_violation_rate)": _METRICS,
    "core/metrics.py::convergence_time(min_window)": _METRICS,
    "core/planner.py::recommend_pool(mean_demand)": _PHYSICS,
    "core/sensible.py::SensibleRoutingPolicy.__init__(min_fraction)":
        _MIN_FRACTION,
    "experiments/scenarios.py::Scenario.__init__(egress_usd_per_req)":
        "a deployment setting: the inter-region egress price a scenario bills",
    "fleet/executor.py::FleetExecutor.__init__(store)":
        "public API: a library caller attaches its result store here; the "
        "CLI sets executor.store only after its dry-run check",
    "ml/lasso.py::select_features(alpha)": _LATER.format(
        "test_linear_models.py::TestSelectFeatures::test_alpha_mode"
    ),
    "ml/toolchain.py::F2PMToolchain.__init__(suite)":
        "public API: the F2PM toolchain ranks a caller's own model suite",
    "pcam/balancer.py::LocalBalancer.__init__(discipline)": _BALANCER,
    "pcam/balancer.py::LocalBalancer.__init__(rng)": _BALANCER,
    "pcam/monitor.py::ProfilingHarness.__init__(mean_demand)": _PHYSICS,
    "pcam/vm.py::FailurePolicy.__init__(sla_response_time_s)": _PHYSICS,
    "pcam/vmc.py::VirtualMachineController.__init__(balancer)":
        "the balancer: ROADMAP 9(c)'s `domain_aware` sweep axis installs "
        "DomainAwareBalancer",
    "pcam/vmc.py::VirtualMachineController.__init__(discipline)":
        "the rejuvenation discipline: ROADMAP 10(a)'s `rejuvenation` sweep "
        "axis sets it",
    "serve/clock.py::WallClock.__init__(time_fn)":
        "public API: the wall-time source, which a caller pins to step the "
        "clock's heap deterministically",
    "sim/engine.py::Simulator.schedule_periodic(start)": _LATER.format(
        "test_engine.py::test_periodic_custom_start"
    ),
    "sim/tracing.py::TraceRecorder.to_csv(names)": _LATER.format(
        "test_tracing_export.py's subset export and missing-series refusal"
    ),
    "workload/profiles.py::DiurnalProfile.__init__(noise_std)": _DIURNAL,
    "workload/profiles.py::DiurnalProfile.__init__(phase_s)": _DIURNAL,
    "workload/profiles.py::DiurnalProfile.__init__(rng)": _DIURNAL,
}


@dataclass
class _Calls:
    """What the calls to one name pass."""
    keywords: set[str]
    positional: int = 0
    star: bool = False
    double_star: bool = False


def _callees(node: ast.Call, cls: ast.ClassDef | None) -> list[str]:
    """The names a call may reach a def by: ``f(...)`` and ``x.f(...)``
    reach ``f`` (a class name: its ``__init__``), ``cls(...)`` and
    ``type(self)(...)`` the class they are written in, and
    ``super().__init__(...)`` that class's bases."""
    func = node.func
    here = [cls.name] if cls is not None else []
    if isinstance(func, ast.Name):
        return here if func.id == "cls" and here else [func.id]
    if isinstance(func, ast.Call) and getattr(func.func, "id", None) == "type":
        return here
    if isinstance(func, ast.Attribute):
        owner = func.value
        if (
            func.attr == "__init__"
            and isinstance(owner, ast.Call)
            and getattr(owner.func, "id", None) == "super"
        ):
            return [getattr(b, "id", getattr(b, "attr", "")) for b in cls.bases]
        return [func.attr]
    return []


def _is_super_init(node: ast.Call) -> bool:
    """``super().__init__(...)``."""
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "__init__"
        and isinstance(func.value, ast.Call)
        and getattr(func.value.func, "id", None) == "super"
    )


@lru_cache(maxsize=None)
def _calls_in(text: str) -> tuple[tuple[str, tuple[str, ...], int, bool, bool], ...]:
    """Each call in a module as ``(callee name, keywords, positional
    arguments, *args, **mapping)``.  An argument of ``super().__init__``
    that is a parameter of the def making the call is forwarded, not set:
    whether it is set is up to the callers of that def."""
    found = []

    def visit(
        node: ast.AST, cls: ast.ClassDef | None, params: frozenset[str]
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                args = child.args
                keywords = child.keywords
                if _is_super_init(child):

                    def forwarded(value: ast.AST) -> bool:
                        return getattr(value, "id", None) in params

                    while args and forwarded(args[-1]):
                        args = args[:-1]
                    keywords = [k for k in keywords if not forwarded(k.value)]
                star = any(isinstance(a, ast.Starred) for a in args)
                names = tuple(k.arg for k in keywords if k.arg)
                double_star = any(k.arg is None for k in keywords)
                for name in _callees(child, cls):
                    found.append((name, names, len(args), star, double_star))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                inner = frozenset(
                    arg.arg
                    for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs)
                )
                visit(child, cls, inner)
            else:
                visit(
                    child,
                    child if isinstance(child, ast.ClassDef) else cls,
                    params,
                )

    visit(ast.parse(text), None, frozenset())
    return tuple(found)


def source_calls(files: dict[str, str]) -> dict[str, _Calls]:
    """Callee name -> what the calls under ``src/`` and ``benchmarks/``
    pass it. ``replace`` (``dataclasses.replace``) collects the fields
    its calls set."""
    calls: dict[str, _Calls] = {}
    for path, text in files.items():
        if not path.startswith(("src/", "benchmarks/")):
            continue
        for name, keywords, positional, star, double_star in _calls_in(text):
            seen = calls.setdefault(name, _Calls(set()))
            seen.keywords.update(keywords)
            seen.positional = max(seen.positional, positional)
            seen.star |= star
            seen.double_star |= double_star
    return calls


def never_set(files: dict[str, str], options: dict[str, dict]) -> list[str]:
    """``path::qualname(parameter)`` for each defaulted parameter of an
    entered def (:func:`record_reach`'s ``options``) that no recorded call
    set and no call under ``src/`` or ``benchmarks/`` passes: by keyword,
    by position, through ``*args`` or ``**mapping``, or as a field of
    ``replace``. A call is matched to a def by name only (a method's name,
    a class's for its ``__init__``), so a call to another def of the same
    name counts as setting it."""
    calls = source_calls(files)
    replaced = calls.get("replace", _Calls(set())).keywords
    found = []
    for key, entry in options.items():
        qualname = key.split("::")[1]
        parts = qualname.split(".")
        is_init = parts[-1] == "__init__" and len(parts) > 1
        seen = calls.get(parts[-2] if is_init else parts[-1], _Calls(set()))
        positional = entry["positional"]
        bound = int(is_init or positional[:1] in (["self"], ["cls"]))
        for name in entry["defaulted"]:
            if name in entry["set"] or name in seen.keywords or seen.double_star:
                continue
            if name in positional and (
                seen.star or positional.index(name) - bound < seen.positional
            ):
                continue
            if is_init and name in replaced:
                continue
            found.append(f"{key}({name})")
    return sorted(found)


def test_no_option_that_nothing_sets(tree, reach):
    found = [key for key in never_set(tree, reach["options"])
             if key not in OPTION_EXEMPT]
    assert not found, (
        "no `repro` run sets these and no call under src/ or benchmarks/ "
        "passes them: make each a module constant, or add an OPTION_EXEMPT "
        "row with its reason:\n" + "\n".join(found)
    )


def test_the_option_allowlist_is_current(tree, reach):
    stale = sorted(set(OPTION_EXEMPT) - set(never_set(tree, reach["options"])))
    assert not stale, f"gone, not entered, or set: {stale}"


PROBE = "def option_probe(x, width=3, *, height=4):\n    return x * width * height\n"


@pytest.mark.parametrize(
    "call, ran, listed",
    [
        ("", [], {"width", "height"}),
        ("option_probe(1)\n", ["height"], {"width"}),
        ("option_probe(1, width=2)\n", [], {"height"}),
        ("rng.option_probe(1, 2)\n", [], {"height"}),
        ("option_probe(*args)\n", [], {"height"}),
        ("option_probe(1, **extra)\n", [], set()),
    ],
    ids=["alone", "run", "keyword", "position", "star", "mapping"],
)
def test_an_injected_option_is_listed_unless_something_sets_it(
    tree, call, ran, listed
):
    files = dict(tree)
    files[SRC + "sim/rng.py"] += "\n" + PROBE
    files[SRC + "sim/engine.py"] += "\n" + call
    options = {
        "sim/rng.py::option_probe": {
            "defaulted": ["width", "height"],
            "positional": ["x", "width"],
            "set": ran,
        }
    }
    assert set(never_set(files, options)) == {
        f"sim/rng.py::option_probe({name})" for name in listed
    }


FORWARD_PROBE = (
    "class ProbeBase:\n"
    "    def __init__(self, width=3):\n"
    "        self.width = width\n"
    "class ProbeChild(ProbeBase):\n"
    "    def __init__(self, width=3):\n"
    "        super().__init__(width)\n"
)


@pytest.mark.parametrize(
    "call, listed",
    [
        ("", {"ProbeBase", "ProbeChild"}),
        ("ProbeChild(width=2)\n", {"ProbeBase"}),
        ("ProbeBase(2)\n", {"ProbeChild"}),
    ],
    ids=["alone", "child-set", "base-set"],
)
def test_a_forwarded_option_is_not_set_by_the_forwarding(tree, call, listed):
    """``super().__init__(width)`` passes the subclass's own parameter on:
    it sets the base's ``width`` only where a caller sets the subclass's,
    so the static half does not count it as a setter."""
    files = dict(tree)
    files[SRC + "sim/rng.py"] += "\n" + FORWARD_PROBE
    files[SRC + "sim/engine.py"] += "\n" + call
    options = {
        f"sim/rng.py::{cls}.__init__": {
            "defaulted": ["width"],
            "positional": ["self", "width"],
            "set": [],
        }
        for cls in ("ProbeBase", "ProbeChild")
    }
    assert set(never_set(files, options)) == {
        f"sim/rng.py::{cls}.__init__(width)" for cls in listed
    }


def test_a_stale_option_row_is_found(tree, reach, monkeypatch):
    gone = "sim/rng.py::option_probe(width)"
    monkeypatch.setitem(OPTION_EXEMPT, gone, "a def that is not there")
    with pytest.raises(AssertionError, match=re.escape(gone)):
        test_the_option_allowlist_is_current(tree, reach)


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
        def predict_rttf_rows(self, features, vms, table, rows):
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


if __name__ == "__main__":
    import sys

    # run as a script, the interpreter puts tests/ on the path, not the
    # repo root that ``tests.test_cli`` and ``repro`` resolve from
    sys.path[:0] = [str(REPO / "src"), str(REPO)]
    record_reach(sys.argv[1])
