import json
import time

from spans import Tracer


class Work:
    def outer(self):
        time.sleep(0.002)
        self.inner()
        self.inner()

    def inner(self):
        time.sleep(0.003)


def test_self_time_is_duration_minus_children_and_wrappers_come_off():
    tracer = Tracer()
    original = Work.outer
    tracer.wrap(Work, "outer", "layer.outer")
    tracer.wrap(Work, "inner", "layer.inner")
    Work().outer()
    tracer.uninstall()
    assert Work.outer is original

    names = [s[0] for s in tracer.spans]
    assert names == ["layer.outer", "layer.inner", "layer.inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]  # parent ids

    table = tracer.table()
    outer, inner = table["layer.outer"], table["layer.inner"]
    assert inner["count"] == 2 and outer["count"] == 1
    assert abs(outer["self_s"] - (outer["total_s"] - inner["total_s"])) < 1e-12
    assert inner["self_s"] == inner["total_s"]
    # self times partition the top-level span
    partition = outer["self_s"] + inner["self_s"]
    assert abs(partition - tracer.top_level_s()) < 1e-12
    share = tracer.child_share("layer.outer", ("layer.inner",))
    assert abs(share - inner["total_s"] / outer["total_s"]) < 1e-12


def test_explicit_span_nests_and_chrome_trace_is_json(tmp_path):
    tracer = Tracer()
    tracer.wrap(Work, "inner", "layer.inner")
    with tracer.span("bench.block"):
        Work().inner()
    tracer.uninstall()
    assert [s[3] for s in tracer.spans] == [-1, 0]
    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["bench.block", "layer.inner"]
    assert events[1]["args"] == {"id": 1, "parent": 0}
    assert all(e["dur"] > 0 for e in events)
