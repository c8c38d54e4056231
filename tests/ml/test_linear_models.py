"""Tests for OLS and Lasso regression."""

import numpy as np
import pytest

import repro.ml.lasso as lasso_module
from repro.ml import LassoRegression, LinearRegression
from repro.ml.lasso import _lazy_path, max_alpha, select_features, soft_threshold


def lasso_path(X, y, n_alphas):
    """The whole regularisation path, every row solved."""
    alphas, rows = _lazy_path(X, y, n_alphas, alpha_min_ratio=1e-3)
    return alphas, np.stack(list(rows))


class TestLinearRegression:
    def test_recovers_exact_line(self):
        X = np.linspace(0, 10, 50).reshape(-1, 1)
        y = 2.0 * X[:, 0] + 3.0
        m = LinearRegression().fit(X, y)
        assert m.coef_[0] == pytest.approx(2.0)
        assert m.intercept_ == pytest.approx(3.0)
        assert np.allclose(m.predict(X), y)

    def test_recovers_multivariate(self, linear_data):
        X, y = linear_data
        m = LinearRegression().fit(X, y)
        assert m.coef_[0] == pytest.approx(3.0, abs=0.1)
        assert m.coef_[3] == pytest.approx(-2.0, abs=0.1)
        assert m.intercept_ == pytest.approx(10.0, abs=0.1)

    def test_rank_deficient_does_not_crash(self):
        # duplicate column: lstsq picks the minimum-norm solution
        X = np.column_stack([np.arange(10.0), np.arange(10.0)])
        y = np.arange(10.0)
        m = LinearRegression().fit(X, y)
        assert np.allclose(m.predict(X), y, atol=1e-8)

    def test_constant_target(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        m = LinearRegression().fit(X, np.full(20, 5.0))
        assert np.allclose(m.predict(X), 5.0, atol=1e-10)


class TestSoftThreshold:
    def test_above(self):
        assert soft_threshold(3.0, 1.0) == 2.0

    def test_below(self):
        assert soft_threshold(-3.0, 1.0) == -2.0

    def test_inside_dead_zone(self):
        assert soft_threshold(0.5, 1.0) == 0.0
        assert soft_threshold(-0.5, 1.0) == 0.0


class TestLasso:
    def test_alpha_zero_close_to_ols(self, linear_data, monkeypatch):
        X, y = linear_data
        ols = LinearRegression().fit(X, y)
        monkeypatch.setattr(lasso_module, "MAX_ITER", 3000)
        lasso = LassoRegression(alpha=0.0).fit(X, y)
        assert np.allclose(lasso.coef_, ols.coef_, atol=1e-2)

    def test_strong_alpha_kills_noise_features(self, linear_data):
        X, y = linear_data
        m = LassoRegression(alpha=0.3).fit(X, y)
        nonzero = set(np.flatnonzero(m.coef_))
        # informative features survive, most noise features die
        assert {0, 3} <= nonzero
        assert m.sparsity() > 0.5

    def test_alpha_above_max_gives_all_zero(self, linear_data):
        X, y = linear_data
        a_max = max_alpha(X, y)
        m = LassoRegression(alpha=a_max * 1.01).fit(X, y)
        assert np.all(m.coef_ == 0.0)
        assert m.intercept_ == pytest.approx(float(np.mean(y)))

    def test_predictions_reasonable(self, linear_data):
        X, y = linear_data
        m = LassoRegression(alpha=0.01).fit(X, y)
        resid = y - m.predict(X)
        assert np.std(resid) < 0.5

    def test_sparsity_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LassoRegression().sparsity()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LassoRegression(alpha=-1)


class TestLassoPath:
    def test_path_shapes_and_monotone_alphas(self, linear_data):
        X, y = linear_data
        alphas, coefs = lasso_path(X, y, n_alphas=10)
        assert alphas.shape == (10,)
        assert coefs.shape == (10, X.shape[1])
        assert np.all(np.diff(alphas) < 0)

    def test_path_starts_empty_ends_dense(self, linear_data):
        X, y = linear_data
        _, coefs = lasso_path(X, y, n_alphas=20)
        assert np.count_nonzero(coefs[0]) == 0
        assert np.count_nonzero(coefs[-1]) >= 3

    def test_n_alphas_validated(self, linear_data):
        X, y = linear_data
        with pytest.raises(ValueError):
            lasso_path(X, y, n_alphas=1)


class TestSelectFeatures:
    def test_informative_features_enter_first(self, linear_data):
        X, y = linear_data
        names = tuple(f"f{i}" for i in range(X.shape[1]))
        selected = select_features(X, y, names, max_features=3)
        assert selected[0] == "f0"  # strongest coefficient (3.0)
        assert set(selected[:2]) == {"f0", "f3"}

    def test_alpha_mode(self, linear_data):
        X, y = linear_data
        names = tuple(f"f{i}" for i in range(X.shape[1]))
        selected = select_features(X, y, names, alpha=0.3)
        assert "f0" in selected and "f3" in selected
        assert len(selected) < len(names)

    def test_name_count_mismatch(self, linear_data):
        X, y = linear_data
        with pytest.raises(ValueError):
            select_features(X, y, ("a", "b"))
