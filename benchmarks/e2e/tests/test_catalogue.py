"""BENCHMARK.json and the harness must name the same workloads and metrics."""

import re
from pathlib import Path

import catalogue

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
E2E_DIR = Path(catalogue.E2E_DIR)


def test_contract_shape():
    c = catalogue.CONTRACT
    assert set(c) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert c["paths"] == ["benchmarks/e2e"]
    assert 1 <= c["run_seconds"] <= 60
    assert 2 <= len(c["workloads"]) <= 8
    assert 1 <= len(c["end_to_end"]) <= 16 and 1 <= len(c["per_layer"]) <= 128
    for w in c["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in c["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in c["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = catalogue.END_TO_END["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in c["end_to_end"])


def test_names_and_units_are_well_formed_and_unique():
    c = catalogue.CONTRACT
    names = [
        x["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for x in c[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in c["end_to_end"] + c["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")


def test_every_workload_is_implemented_and_no_other():
    import serve_workloads
    import sim_workloads

    implemented = set(sim_workloads.SIM_WORKLOADS)
    implemented |= set(serve_workloads.SERVE_WORKLOADS)
    assert implemented == set(catalogue.WORKLOADS) == set(catalogue.WORK_UNIT)


def test_every_metric_is_written_somewhere_in_the_harness():
    # the other direction -- no name outside BENCHMARK.json -- is enforced at
    # run time by catalogue.emit (next test) and exercised by ``--smoke``
    source = "".join(
        (E2E_DIR / name).read_text(encoding="utf-8")
        for name in ("harness.py", "sim_workloads.py", "serve_workloads.py")
    )
    literals = set(re.findall(r'"([A-Za-z0-9_.-]+)"', source))
    names = set(catalogue.END_TO_END) | set(catalogue.PER_LAYER)
    assert names <= literals, sorted(names - literals)


def test_emit_fills_unentered_layers_with_zero_and_rejects_unknown():
    out = catalogue.emit(catalogue.PER_LAYER, {"sim.event_ns": 12.5})
    assert set(out) == set(catalogue.PER_LAYER)
    assert out["sim.event_ns"] == {"value": 12.5, "unit": "ns"}
    assert out["serve.boot_s"]["value"] == 0.0
    try:
        catalogue.emit(catalogue.PER_LAYER, {"no.such_metric": 1.0})
    except KeyError:
        pass
    else:
        raise AssertionError("unknown metric accepted")
