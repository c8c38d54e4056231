"""Tests for validation metrics, CV, preprocessing, and the F2PM toolchain."""

import copy
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.ml import (
    Dataset,
    F2PMToolchain,
    LinearRegression,
    StandardScaler,
    ValidationReport,
    cross_validate,
    k_fold_indices,
    mean_absolute_error,
    mean_absolute_percentage_error,
    r2_score,
    root_mean_squared_error,
)
from repro.ml.toolchain import DEFAULT_SUITE
from repro.ml.validation import summarize_cv


class TestMetrics:
    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 3.0])
        assert mean_absolute_error(y, y) == 0.0
        assert root_mean_squared_error(y, y) == 0.0
        assert r2_score(y, y) == 1.0
        assert mean_absolute_percentage_error(y, y) == 0.0

    def test_known_values(self):
        y = np.array([0.0, 0.0])
        p = np.array([1.0, -1.0])
        assert mean_absolute_error(y, p) == 1.0
        assert root_mean_squared_error(y, p) == 1.0

    def test_r2_of_mean_prediction_is_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        p = np.full(3, 2.0)
        assert r2_score(y, p) == pytest.approx(0.0)

    def test_r2_constant_target(self):
        y = np.full(3, 5.0)
        assert r2_score(y, y) == 1.0
        assert r2_score(y, y + 1.0) == 0.0

    def test_mape_floor_protects_zero_targets(self):
        y = np.array([0.0, 10.0])
        p = np.array([1.0, 10.0])
        assert np.isfinite(mean_absolute_percentage_error(y, p))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mean_absolute_error(np.zeros(2), np.zeros(3))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_absolute_error(np.zeros(0), np.zeros(0))

    def test_report_str(self):
        r = ValidationReport.from_predictions(
            np.array([1.0, 2.0]), np.array([1.0, 2.0])
        )
        assert "MAE=0" in str(r)
        assert r.n_samples == 2


class TestKFold:
    def test_folds_partition_everything(self):
        folds = k_fold_indices(23, 5, np.random.default_rng(0))
        assert len(folds) == 5
        all_test = np.concatenate([t for _, t in folds])
        assert sorted(all_test) == list(range(23))

    def test_train_test_disjoint(self):
        for train, test in k_fold_indices(20, 4, np.random.default_rng(1)):
            assert set(train).isdisjoint(test)
            assert len(train) + len(test) == 20

    def test_deterministic(self):
        f1 = k_fold_indices(10, 2, np.random.default_rng(5))
        f2 = k_fold_indices(10, 2, np.random.default_rng(5))
        assert all(np.array_equal(a[1], b[1]) for a, b in zip(f1, f2))

    def test_validation(self):
        with pytest.raises(ValueError):
            k_fold_indices(10, 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            k_fold_indices(3, 5, np.random.default_rng(0))


class TestCrossValidate:
    def test_returns_one_report_per_fold(self, linear_dataset):
        folds = k_fold_indices(len(linear_dataset), 4, np.random.default_rng(0))
        reports = cross_validate(LinearRegression, linear_dataset, folds)
        assert len(reports) == 4
        assert all(r.r2 > 0.9 for r in reports)

    def test_summary_weighted(self):
        a = ValidationReport(mae=1.0, rmse=1.0, mape=0.1, r2=0.5, n_samples=10)
        b = ValidationReport(mae=3.0, rmse=3.0, mape=0.3, r2=0.9, n_samples=30)
        s = summarize_cv([a, b])
        assert s.mae == pytest.approx(2.5)
        assert s.n_samples == 40

    def test_summary_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_cv([])


class TestStandardScaler:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5.0, 3.0, size=(100, 4))
        Z = StandardScaler().fit_transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-10)

    def test_constant_column_safe(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        Z = StandardScaler().fit_transform(X)
        assert np.allclose(Z[:, 0], 0.0)

    def test_inverse_round_trip(self):
        X = np.random.default_rng(1).normal(size=(20, 3))
        sc = StandardScaler().fit(X)
        assert np.allclose(sc.inverse_transform(sc.transform(X)), X)

    def test_transform_before_fit(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((1, 1)))

    def test_column_mismatch(self):
        sc = StandardScaler().fit(np.zeros((5, 3)))
        with pytest.raises(ValueError):
            sc.transform(np.zeros((5, 2)))


class TestToolchain:
    def test_compare_covers_full_suite(self, linear_dataset):
        tc = F2PMToolchain(cv_folds=3)
        comp = tc.compare(linear_dataset, np.random.default_rng(0))
        assert set(comp.reports) == {
            "linear-regression", "lasso", "rep-tree", "m5p", "svr", "ls-svm",
        }

    def test_feature_selection_limits_columns(self, linear_dataset):
        tc = F2PMToolchain(max_features=4, cv_folds=3)
        comp = tc.compare(linear_dataset, np.random.default_rng(0))
        assert len(comp.selected_features) <= 4
        # the strongest feature must survive selection
        assert "mem_used_mb" in comp.selected_features

    def test_ranking_orders_by_metric(self, linear_dataset):
        tc = F2PMToolchain(cv_folds=3)
        comp = tc.compare(linear_dataset, np.random.default_rng(0))
        assert comp.ranking_metric == "rmse"
        rmses = [r.rmse for _, r in comp.ranked()]
        assert rmses == sorted(rmses)

    def test_r2_ranks_descending(self, linear_dataset):
        tc = F2PMToolchain(cv_folds=3)
        comp = replace(
            tc.compare(linear_dataset, np.random.default_rng(0)),
            ranking_metric="r2",
        )
        r2s = [r.r2 for _, r in comp.ranked()]
        assert r2s == sorted(r2s, reverse=True)

    def test_table_renders_all_models(self, linear_dataset):
        tc = F2PMToolchain(cv_folds=3)
        comp = tc.compare(linear_dataset, np.random.default_rng(0))
        table = comp.table()
        for name in comp.reports:
            assert name in table

    def test_train_best_forced_model(self, linear_dataset):
        tc = F2PMToolchain(cv_folds=3)
        tm = tc.train_best(
            linear_dataset, np.random.default_rng(0), model_name="rep-tree"
        )
        assert tm.name == "rep-tree"
        # full-schema row prediction works through the projection
        pred = tm.predict(linear_dataset.X[0])[0]
        assert np.isfinite(pred)

    def test_train_best_unknown_model(self, linear_dataset):
        tc = F2PMToolchain(cv_folds=3)
        with pytest.raises(KeyError):
            tc.train_best(linear_dataset, np.random.default_rng(0), "bogus")

    def test_trained_model_validates_input_width(self, linear_dataset):
        tc = F2PMToolchain(cv_folds=3)
        tm = tc.train_best(linear_dataset, np.random.default_rng(0))
        with pytest.raises(ValueError):
            tm.predict(np.zeros((1, 3)))

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            F2PMToolchain(cv_folds=1)
        with pytest.raises(ValueError):
            F2PMToolchain(suite={})

    def test_linear_family_beats_trees_on_linear_data(self, linear_dataset):
        # sanity of the whole comparison: on linear ground truth the linear
        # models should outrank REP-Tree
        tc = F2PMToolchain(cv_folds=3)
        comp = tc.compare(linear_dataset, np.random.default_rng(0))
        ranked = [name for name, _ in comp.ranked()]
        assert ranked.index("linear-regression") < ranked.index("rep-tree")


@pytest.mark.parametrize("name", list(DEFAULT_SUITE))
def test_a_fitted_model_survives_copy_and_pickle(name, piecewise_data):
    """A trained model is a value: a deep copy and a pickle round-trip
    predict exactly as the original (nothing keyed by object identity)."""
    X, y = piecewise_data
    model = DEFAULT_SUITE[name]().fit(X, y)
    expected = model.predict(X)
    assert np.array_equal(copy.deepcopy(model).predict(X), expected)
    assert np.array_equal(pickle.loads(pickle.dumps(model)).predict(X), expected)
