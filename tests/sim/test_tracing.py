"""Tests for trace recording and series transforms."""

import numpy as np
import pytest

from repro.sim import TraceRecorder, TraceSeries


def make_series(times, values, name="s"):
    return TraceSeries(name, np.asarray(times, float), np.asarray(values, float))


class TestTraceSeries:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            make_series([0, 1], [1.0])

    def test_decreasing_times_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            make_series([1.0, 0.5], [0, 0])

    def test_window_inclusive(self):
        s = make_series([0, 1, 2, 3, 4], [10, 11, 12, 13, 14])
        w = s.window(1.0, 3.0)
        assert list(w.times) == [1, 2, 3]
        assert list(w.values) == [11, 12, 13]

    def test_tail_fraction_half(self):
        s = make_series([0, 1, 2, 3, 4], [0, 1, 2, 3, 4])
        t = s.tail_fraction(0.5)
        assert list(t.times) == [2, 3, 4]

    def test_tail_fraction_validates(self):
        s = make_series([0, 1], [0, 1])
        with pytest.raises(ValueError):
            s.tail_fraction(0.0)
        with pytest.raises(ValueError):
            s.tail_fraction(1.5)

    def test_tail_fraction_empty_series_ok(self):
        s = make_series([], [])
        assert len(s.tail_fraction(0.5)) == 0

    def test_statistics(self):
        s = make_series([0, 1, 2, 3], [1.0, 2.0, 3.0, 4.0])
        assert s.mean() == 2.5
        assert s.max() == 4.0
        assert s.min() == 1.0
        assert s.std() == pytest.approx(np.std([1, 2, 3, 4]))

    def test_statistics_empty_are_nan(self):
        s = make_series([], [])
        assert np.isnan(s.mean())
        assert np.isnan(s.max())

    def test_oscillation_index_zero_for_constant(self):
        s = make_series([0, 1, 2], [5.0, 5.0, 5.0])
        assert s.oscillation_index() == 0.0

    def test_oscillation_index_grows_with_jitter(self):
        smooth = make_series(range(10), np.linspace(0, 1, 10))
        jitter = make_series(range(10), [0.5 + 0.4 * (-1) ** i for i in range(10)])
        assert jitter.oscillation_index() > smooth.oscillation_index()

    def test_oscillation_index_short_series(self):
        assert make_series([0], [1.0]).oscillation_index() == 0.0


class TestTraceRecorder:
    def test_record_and_read_back(self):
        rec = TraceRecorder()
        rec.record("a", 0.0, 1.0)
        rec.record("a", 1.0, 2.0)
        s = rec.series("a")
        assert list(s.times) == [0.0, 1.0]
        assert list(s.values) == [1.0, 2.0]

    def test_record_many(self):
        rec = TraceRecorder()
        rec.record_many(2.0, {"x": 1.0, "y": 2.0})
        assert rec.series("x").values[0] == 1.0
        assert rec.series("y").times[0] == 2.0

    def test_missing_series_keyerror_lists_known(self):
        rec = TraceRecorder()
        rec.record("known", 0.0, 0.0)
        with pytest.raises(KeyError, match="known"):
            rec.series("missing")

    def test_contains_and_names(self):
        rec = TraceRecorder()
        rec.record("b", 0, 0)
        rec.record("a", 0, 0)
        assert "a" in rec
        assert "c" not in rec
        assert rec.names() == ["a", "b"]

    def test_matching_prefix(self):
        rec = TraceRecorder()
        rec.record("rmttf/region1", 0, 1)
        rec.record("rmttf/region2", 0, 2)
        rec.record("fraction/region1", 0, 0.5)
        got = rec.matching("rmttf/")
        assert set(got) == {"rmttf/region1", "rmttf/region2"}

    def test_merge(self):
        a, b = TraceRecorder(), TraceRecorder()
        a.record("s", 0.0, 1.0)
        b.record("s", 1.0, 2.0)
        b.record("t", 0.0, 9.0)
        a.merge(b)
        assert list(a.series("s").values) == [1.0, 2.0]
        assert list(a.series("t").values) == [9.0]
