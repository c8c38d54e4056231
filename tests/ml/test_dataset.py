"""Tests for RTTF dataset construction and splitting."""

import numpy as np
import pytest

from repro.ml import Dataset
from repro.ml.features import FEATURE_NAMES


def small_ds():
    X = np.arange(20.0).reshape(10, 2)
    y = np.arange(10.0)
    return Dataset(X, y, ("a", "b"))


class TestDataset:
    def test_len_and_n_features(self):
        ds = small_ds()
        assert len(ds) == 10
        assert ds.n_features == 2

    def test_name_count_mismatch(self):
        with pytest.raises(ValueError, match="feature names"):
            Dataset(np.zeros((2, 3)), np.zeros(2), ("a",))

    def test_select_features_projects_and_orders(self):
        ds = small_ds()
        sel = ds.select_features(["b"])
        assert sel.feature_names == ("b",)
        assert np.array_equal(sel.X[:, 0], ds.X[:, 1])

    def test_select_missing_feature(self):
        with pytest.raises(KeyError, match="missing"):
            small_ds().select_features(["missing"])

    def test_subset(self):
        ds = small_ds()
        sub = ds.subset(np.array([0, 2]))
        assert len(sub) == 2
        assert sub.y[1] == 2.0


class TestFromRunTraces:
    def test_rttf_labels(self):
        times = np.array([0.0, 10.0, 20.0])
        feats = np.zeros((3, len(FEATURE_NAMES)))
        ds = Dataset.from_run_traces([(times, feats, 30.0)])
        assert list(ds.y) == [30.0, 20.0, 10.0]

    def test_samples_after_failure_discarded(self):
        times = np.array([0.0, 10.0, 40.0])
        feats = np.zeros((3, len(FEATURE_NAMES)))
        ds = Dataset.from_run_traces([(times, feats, 30.0)])
        assert len(ds) == 2

    def test_multiple_runs_stack(self):
        feats = np.zeros((2, len(FEATURE_NAMES)))
        runs = [
            (np.array([0.0, 5.0]), feats, 10.0),
            (np.array([0.0, 5.0]), feats, 20.0),
        ]
        ds = Dataset.from_run_traces(runs)
        assert list(ds.y) == [10.0, 5.0, 20.0, 15.0]

    def test_empty_runs_rejected(self):
        with pytest.raises(ValueError, match="no profiling runs"):
            Dataset.from_run_traces([])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            Dataset.from_run_traces(
                [(np.array([0.0]), np.zeros((2, len(FEATURE_NAMES))), 1.0)]
            )

    def test_all_after_failure_rejected(self):
        feats = np.zeros((1, len(FEATURE_NAMES)))
        with pytest.raises(ValueError, match="failure point"):
            Dataset.from_run_traces([(np.array([5.0]), feats, 1.0)])
