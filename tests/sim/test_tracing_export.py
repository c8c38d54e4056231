"""Tests for trace export/import."""

import numpy as np
import pytest

from repro.sim import TraceRecorder


@pytest.fixture
def recorder():
    rec = TraceRecorder()
    for t in range(5):
        rec.record("rmttf/a", float(t), 100.0 + t)
        rec.record("fraction/a", float(t) + 0.5, 0.25)
    return rec


class TestCsvRoundTrip:
    def test_round_trip(self, recorder, tmp_path):
        path = str(tmp_path / "traces.csv")
        recorder.to_csv(path)
        back = TraceRecorder.from_csv(path)
        assert back.names() == recorder.names()
        for name in recorder.names():
            a, b = recorder.series(name), back.series(name)
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.values, b.values)

    def test_subset_export(self, recorder, tmp_path):
        path = str(tmp_path / "subset.csv")
        recorder.to_csv(path, names=["rmttf/a"])
        back = TraceRecorder.from_csv(path)
        assert back.names() == ["rmttf/a"]

    def test_missing_series_rejected(self, recorder, tmp_path):
        with pytest.raises(KeyError):
            recorder.to_csv(str(tmp_path / "x.csv"), names=["ghost"])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header,row\n")
        with pytest.raises(ValueError, match="header"):
            TraceRecorder.from_csv(str(path))

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("series,time,value\na,not_a_number,1.0\n")
        with pytest.raises(ValueError, match=":2"):
            TraceRecorder.from_csv(str(path))

    def test_series_names_with_commas_survive(self, tmp_path):
        rec = TraceRecorder()
        rec.record("weird,name", 1.0, 2.0)
        path = str(tmp_path / "comma.csv")
        rec.to_csv(path)
        back = TraceRecorder.from_csv(path)
        assert back.names() == ["weird,name"]
        assert back.series("weird,name").values[0] == 2.0
