"""Tests for the regressor base class and the feature schema."""

import numpy as np
import pytest

from repro.ml import FEATURE_NAMES, FeatureVector
from repro.ml.base import FittedError, Regressor, as_1d_float, as_2d_float


class _ConstModel(Regressor):
    """Trivial regressor used to exercise the base-class plumbing."""

    def _fit(self, X, y):
        self.mean_ = float(y.mean())

    def _predict(self, X):
        return np.full(X.shape[0], self.mean_)


class TestRegressorBase:
    def test_predict_before_fit_raises(self):
        with pytest.raises(FittedError):
            _ConstModel().predict(np.zeros((1, 2)))

    def test_fit_returns_self_and_sets_flags(self):
        m = _ConstModel()
        out = m.fit(np.zeros((3, 2)), np.ones(3))
        assert out is m
        assert m.is_fitted
        assert m.n_features == 2

    def test_n_features_before_fit_raises(self):
        with pytest.raises(FittedError):
            _ = _ConstModel().n_features

    def test_feature_count_mismatch_at_predict(self):
        m = _ConstModel().fit(np.zeros((3, 2)), np.ones(3))
        with pytest.raises(ValueError, match="features"):
            m.predict(np.zeros((1, 5)))

    def test_sample_mismatch_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            _ConstModel().fit(np.zeros((3, 2)), np.ones(4))

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            _ConstModel().fit(np.zeros((0, 2)), np.zeros(0))

    def test_nan_rejected(self):
        X = np.zeros((3, 2))
        X[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            _ConstModel().fit(X, np.ones(3))

    def test_1d_X_promoted_to_column(self):
        m = _ConstModel().fit(np.arange(4.0), np.ones(4))
        assert m.n_features == 1


class TestValidators:
    def test_as_2d_promotes_1d(self):
        assert as_2d_float(np.arange(3.0)).shape == (3, 1)

    def test_as_2d_rejects_3d(self):
        with pytest.raises(ValueError):
            as_2d_float(np.zeros((2, 2, 2)))

    def test_as_1d_ravels(self):
        assert as_1d_float(np.zeros((3, 1))).shape == (3,)

    def test_inf_rejected(self):
        with pytest.raises(ValueError):
            as_1d_float(np.array([1.0, np.inf]))


class TestFeatureSchema:
    def test_vector_round_trip(self):
        fv = FeatureVector(mem_used_mb=100.0, num_threads=42.0, uptime_s=3.0)
        row = fv.to_array()
        assert row.shape == (len(FEATURE_NAMES),)
        back = FeatureVector(**dict(zip(FEATURE_NAMES, row.tolist())))
        assert back == fv

    def test_schema_has_the_papers_headline_features(self):
        # Sec. III names memory usage, CPU time, swap space explicitly.
        assert "mem_used_mb" in FEATURE_NAMES
        assert "swap_used_mb" in FEATURE_NAMES
        assert "cpu_user_pct" in FEATURE_NAMES
        assert "response_time_ms" in FEATURE_NAMES
