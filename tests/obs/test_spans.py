"""Unit tests for the span tracer and the nesting validator."""

from __future__ import annotations

import pytest

from repro.obs import Span, SpanTracer, validate_nesting


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


@pytest.fixture()
def clocked():
    clock = FakeClock()
    tracer = SpanTracer()
    tracer.set_clock(clock)
    return clock, tracer


class TestSyncSpans:
    def test_span_records_interval_on_main_track(self, clocked):
        clock, tracer = clocked
        with tracer.span("era 0", kind="era"):
            clock.t = 30.0
        (span,) = tracer.spans
        assert (span.t0, span.t1, span.tid) == (0.0, 30.0, "main")
        assert span.duration == 30.0

    def test_nested_spans_carry_depth(self, clocked):
        clock, tracer = clocked
        with tracer.span("era 0", kind="era"):
            clock.t = 10.0
            with tracer.span("plan", kind="mape"):
                clock.t = 20.0
            clock.t = 30.0
        inner, outer = tracer.spans  # completion order: inner first
        assert inner.name == "plan" and inner.depth == 1
        assert outer.name == "era 0" and outer.depth == 0
        assert validate_nesting(tracer.spans) == []

    def test_span_recorded_even_when_body_raises(self, clocked):
        clock, tracer = clocked
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                clock.t = 5.0
                raise RuntimeError("boom")
        (span,) = tracer.spans
        assert span.t1 == 5.0
        assert tracer.open_count() == 0

    def test_body_can_annotate_args(self, clocked):
        _, tracer = clocked
        with tracer.span("send") as args:
            args["outcome"] = "acked"
        assert tracer.spans[0].args["outcome"] == "acked"

    def test_instant_is_zero_duration_at_current_depth(self, clocked):
        clock, tracer = clocked
        with tracer.span("era 0"):
            clock.t = 12.0
            tracer.instant("rejuvenate vm3", kind="rejuvenation")
        instant = tracer.spans[0]
        assert instant.t0 == instant.t1 == 12.0
        assert instant.depth == 1


class TestAsyncSpans:
    def test_concurrent_spans_get_distinct_slot_tracks(self, clocked):
        clock, tracer = clocked
        a = tracer.open("send r1->r2", "channel")
        b = tracer.open("send r1->r3", "channel")
        clock.t = 1.0
        sa = tracer.close(a)
        sb = tracer.close(b)
        assert {sa.tid, sb.tid} == {"channel#0", "channel#1"}
        assert validate_nesting(tracer.spans) == []

    def test_slot_is_reused_after_release(self, clocked):
        clock, tracer = clocked
        a = tracer.open("first", "channel")
        tracer.close(a)
        clock.t = 2.0
        b = tracer.open("second", "channel")
        span = tracer.close(b)
        assert span.tid == "channel#0"

    def test_double_close_raises(self, clocked):
        _, tracer = clocked
        h = tracer.open("once", "channel")
        tracer.close(h)
        with pytest.raises(ValueError, match="already closed"):
            tracer.close(h)

    def test_close_merges_extra_args(self, clocked):
        _, tracer = clocked
        h = tracer.open("send", "channel", dst="r2")
        span = tracer.close(h, outcome="failed", attempts=3)
        assert span.args == {"dst": "r2", "outcome": "failed", "attempts": 3}

    def test_open_count_tracks_both_disciplines(self, clocked):
        _, tracer = clocked
        h = tracer.open("send", "channel")
        assert tracer.open_count() == 1
        with tracer.span("era"):
            assert tracer.open_count() == 2
        tracer.close(h)
        assert tracer.open_count() == 0


class TestIntrospection:
    def test_kinds_and_by_kind(self, clocked):
        _, tracer = clocked
        with tracer.span("a", kind="era"):
            pass
        tracer.instant("b", kind="rejuvenation")
        assert tracer.kinds() == {"era", "rejuvenation"}
        assert [s.name for s in tracer.by_kind("era")] == ["a"]

    def test_snapshot_is_json_ready(self, clocked):
        import json

        _, tracer = clocked
        with tracer.span("a", kind="era", era=3):
            pass
        doc = tracer.snapshot()
        assert json.loads(json.dumps(doc)) == doc
        assert doc[0]["kind"] == "era"


class TestValidateNesting:
    def _span(self, name, t0, t1, tid="main"):
        return Span(name=name, kind="k", tid=tid, t0=t0, t1=t1)

    def test_disjoint_and_nested_are_valid(self):
        spans = [
            self._span("outer", 0.0, 10.0),
            self._span("inner", 2.0, 8.0),
            self._span("later", 10.0, 20.0),
        ]
        assert validate_nesting(spans) == []

    def test_straddling_span_is_reported(self):
        spans = [
            self._span("a", 0.0, 10.0),
            self._span("b", 5.0, 15.0),
        ]
        problems = validate_nesting(spans)
        assert len(problems) == 1
        assert "straddles" in problems[0]

    def test_negative_duration_is_reported(self):
        problems = validate_nesting([self._span("bad", 5.0, 1.0)])
        assert "ends before it starts" in problems[0]

    def test_tracks_validated_independently(self):
        spans = [
            self._span("a", 0.0, 10.0, tid="channel#0"),
            self._span("b", 5.0, 15.0, tid="channel#1"),
        ]
        assert validate_nesting(spans) == []

    def test_accepts_dict_records(self):
        spans = [self._span("a", 0.0, 1.0).as_dict()]
        assert validate_nesting(spans) == []
