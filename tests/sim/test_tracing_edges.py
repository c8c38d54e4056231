"""Edge cases of :mod:`repro.sim.tracing` pinned by the analysis layer.

The figure pipeline feeds :class:`TraceSeries` transforms with whatever a
run produced -- including empty and single-point series right after a
start-up failure -- so the edge behaviour (raise vs. propagate) is part
of the contract, not an accident.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.manifest import RunManifest
from repro.sim.tracing import (
    TraceRecorder,
    TraceSeries,
    read_csv_manifest,
)


class TestValidation:
    def test_non_monotonic_times_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            TraceSeries(
                "x", np.array([0.0, 2.0, 1.0]), np.array([1.0, 2.0, 3.0])
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ in shape"):
            TraceSeries("x", np.array([0.0, 1.0]), np.array([1.0]))

    def test_equal_times_allowed(self):
        # simultaneous samples (several series merged at era boundaries)
        s = TraceSeries(
            "x", np.array([1.0, 1.0]), np.array([2.0, 3.0])
        )
        assert len(s) == 2


class TestEmptySeriesStats:
    def test_stats_of_empty_are_nan_or_zero(self):
        s = TraceSeries("x", np.array([]), np.array([]))
        assert np.isnan(s.mean())
        assert np.isnan(s.max())
        assert s.oscillation_index() == 0.0
        assert len(s.tail_fraction(0.5)) == 0

    def test_single_point_oscillation_is_zero(self):
        s = TraceSeries("x", np.array([1.0]), np.array([5.0]))
        assert s.oscillation_index() == 0.0


class TestCsvManifest:
    def _recorder(self):
        rec = TraceRecorder()
        rec.record("a", 0.0, 1.0)
        rec.record("a", 1.0, 2.0)
        rec.record("b/c", 0.0, -3.5)
        return rec

    def test_manifest_comment_roundtrip(self, tmp_path):
        path = str(tmp_path / "traces.csv")
        manifest = RunManifest.build(
            seed=7, config={"eras": 12}, scenario="fig3"
        )
        self._recorder().to_csv(path, manifest=manifest)
        # the data reads back unchanged ...
        again = TraceRecorder.from_csv(path)
        assert again.names() == ["a", "b/c"]
        assert again.series("a").values.tolist() == [1.0, 2.0]
        # ... and the provenance is recoverable from the file alone
        stored = read_csv_manifest(path)
        assert stored["seed"] == 7
        assert stored["extra"]["scenario"] == "fig3"
        assert stored["config_digest"] == manifest.config_digest

    def test_csv_without_manifest_reads_none(self, tmp_path):
        path = str(tmp_path / "plain.csv")
        self._recorder().to_csv(path)
        assert read_csv_manifest(path) is None
        assert TraceRecorder.from_csv(path).names() == ["a", "b/c"]
