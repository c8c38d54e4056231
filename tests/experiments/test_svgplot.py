"""Tests for the dependency-free SVG chart renderer."""

import xml.dom.minidom

import numpy as np
import pytest

from repro.experiments.svgplot import _ticks, line_chart
from repro.sim.tracing import TraceSeries


def series(name="s", n=20, slope=1.0):
    t = np.arange(float(n))
    return TraceSeries(name, t, slope * t + 5.0)


class TestTicks:
    def test_covers_range(self):
        ticks = _ticks(0.0, 100.0)
        assert ticks[0] >= 0.0
        assert ticks[-1] <= 100.0 + 1e-9
        assert len(ticks) >= 3

    def test_monotone(self):
        ticks = _ticks(3.7, 91.2)
        assert all(a < b for a, b in zip(ticks, ticks[1:]))

    def test_degenerate_range(self):
        ticks = _ticks(5.0, 5.0)
        assert len(ticks) >= 1


class TestLineChart:
    def test_writes_valid_svg(self, tmp_path):
        path = str(tmp_path / "chart.svg")
        line_chart({"a": series("a"), "b": series("b", slope=-1.0)},
                   "Test chart", path)
        doc = xml.dom.minidom.parse(path)
        assert doc.documentElement.tagName == "svg"
        polylines = doc.getElementsByTagName("polyline")
        assert len(polylines) == 2

    def test_legend_and_title_present(self, tmp_path):
        path = str(tmp_path / "chart.svg")
        line_chart({"alpha": series()}, "My & Title", path)
        text = open(path).read()
        assert "alpha" in text
        assert "My &amp; Title" in text  # escaped

    def test_y_scale_applied(self, tmp_path):
        path = str(tmp_path / "chart.svg")
        line_chart({"a": series()}, "t", path, y_scale=1000.0)
        text = open(path).read()
        # the y tick labels reach the scaled magnitude
        assert "20000" in text or "15000" in text or "10000" in text

    def test_empty_series_dict_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            line_chart({}, "t", str(tmp_path / "x.svg"))

    def test_constant_series_does_not_crash(self, tmp_path):
        flat = TraceSeries("f", np.arange(5.0), np.full(5, 3.0))
        path = str(tmp_path / "flat.svg")
        line_chart({"f": flat}, "flat", path)
        xml.dom.minidom.parse(path)
