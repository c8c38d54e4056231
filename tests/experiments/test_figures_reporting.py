"""Tests for the figure runners and ascii reporting."""

import numpy as np
import pytest

from repro.core.metrics import PolicyAssessment
from repro.experiments import (
    render_series,
    report_figure,
    run_figure,
    sparkline,
)
from repro.experiments.reporting import SPARK_WIDTH, assessment_table
from repro.sim import TraceRecorder


class TestSparkline:
    def test_constant_series_flat(self):
        assert sparkline(np.full(10, 5.0)) == "▁" * 10

    def test_monotone_series_rises(self):
        s = sparkline(np.linspace(0, 1, 8))
        assert s[0] == "▁"
        assert s[-1] == "█"

    def test_downsamples_to_width(self):
        s = sparkline(np.arange(1000.0))
        assert len(s) == SPARK_WIDTH

    def test_empty(self):
        assert sparkline(np.array([])) == ""


class TestRenderSeries:
    def make_traces(self):
        rec = TraceRecorder()
        for t in range(20):
            rec.record("rmttf/a", float(t), 100.0 + t)
            rec.record("rmttf/b", float(t), 200.0)
        return rec

    def test_renders_all_matching(self):
        out = render_series(self.make_traces(), "rmttf/", "RMTTF")
        assert "rmttf/a" in out and "rmttf/b" in out
        assert "RMTTF" in out

    def test_scaling_and_unit(self):
        out = render_series(
            self.make_traces(), "rmttf/a", "x", scale=0.001, unit="k"
        )
        assert "]k" in out
        assert "0.10" in out  # 100 * 0.001

    def test_missing_prefix_raises(self):
        with pytest.raises(KeyError):
            render_series(self.make_traces(), "nope/", "x")


class TestAssessmentTable:
    def make_assessment(self, name="p", conv=100.0):
        return PolicyAssessment(
            policy=name,
            rmttf_spread=0.1,
            convergence_time_s=conv,
            fraction_oscillation=0.01,
            rmttf_oscillation=0.02,
            mean_response_time_s=0.08,
            max_response_time_s=0.2,
            sla_threshold_s=1.0,
            total_rejuvenations=10,
            total_failures=0,
        )

    def test_renders_rows(self):
        out = assessment_table(
            [self.make_assessment("alpha"), self.make_assessment("beta")]
        )
        assert "alpha" in out and "beta" in out
        assert "ok" in out

    def test_never_converged_renders(self):
        out = assessment_table([self.make_assessment(conv=float("inf"))])
        assert "never" in out

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            assessment_table([])


@pytest.mark.slow
class TestFigureRunners:
    """Short-run smoke of the figure harnesses (full runs live in
    benchmarks/)."""

    def test_figure3_report_renders(self):
        results = run_figure("fig3", eras=30, seed=2)
        text = report_figure("fig3", results)
        assert "Figure 3" in text
        assert "row 1: RMTTF" in text
        assert "row 3: client response time" in text
        assert "paper-shape checks" in text

    def test_figure4_report_renders(self):
        results = run_figure("fig4", eras=30, seed=2)
        text = report_figure("fig4", results)
        assert "Figure 4" in text
        assert "region2-frankfurt" in text
