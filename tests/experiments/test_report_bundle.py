"""Tests for the one-command reproduction bundle."""

import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.report_bundle import reproduce_all
from repro.sim import TraceRecorder


class TestReproduceAll:
    @pytest.fixture(scope="class")
    def manifest(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("bundle"))
        return reproduce_all(out, eras=30, seed=2)

    def test_report_written(self, manifest):
        assert os.path.exists(manifest.report_path)
        text = open(manifest.report_path).read()
        assert "# ACM Framework reproduction report" in text
        assert "## fig3" in text and "## fig4" in text
        assert "| policy1_diverges |" in text
        assert "## Verdict" in text

    def test_csvs_cover_both_figures_and_policies(self, manifest):
        names = [os.path.basename(p) for p in manifest.csv_files]
        assert len(names) == 6  # 2 figures x 3 policies
        assert any(n.startswith("fig3_") for n in names)
        assert any(n.startswith("fig4_") for n in names)
        # each CSV round-trips through the trace reader
        rec = TraceRecorder.from_csv(manifest.csv_files[0])
        assert any(n.startswith("rmttf/") for n in rec.names())

    def test_svgs_rendered(self, manifest):
        assert len(manifest.svg_files) == 18  # 2 figs x 3 policies x 3 rows
        for p in manifest.svg_files[:3]:
            assert open(p).read().startswith("<svg")

    def test_artifacts_inside_out_dir(self, manifest):
        for p in (*manifest.csv_files, *manifest.svg_files,
                  manifest.report_path):
            assert os.path.commonpath([p, manifest.out_dir]) == (
                manifest.out_dir
            )

    def test_eras_validated(self, tmp_path):
        with pytest.raises(ValueError):
            reproduce_all(str(tmp_path), eras=5)

    def test_creates_missing_out_dir(self, tmp_path):
        nested = str(tmp_path / "a" / "b")
        manifest = reproduce_all(nested, eras=30, seed=2)
        assert os.path.isdir(nested)
        assert manifest.out_dir == nested


def test_the_committed_bundle_is_what_reproduce_writes(tmp_path):
    """``results/`` is ``repro reproduce --out results/`` at its defaults,
    byte for byte: regenerate it after a change that moves a figure."""
    committed = Path(__file__).resolve().parents[2] / "results"
    assert main(["reproduce", "--out", str(tmp_path)]) == 0
    names = sorted(p.name for p in committed.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (
            committed / name
        ).read_bytes(), name
