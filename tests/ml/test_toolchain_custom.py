"""Additional toolchain configurations: custom suites, no selection,
alternate ranking metrics."""

from dataclasses import replace

import numpy as np
import pytest

from repro.ml import Dataset, F2PMToolchain, LinearRegression
from repro.ml.features import FEATURE_NAMES
from repro.ml.toolchain import DEFAULT_SUITE, RANKING_METRIC


@pytest.fixture
def dataset():
    rng = np.random.default_rng(3)
    n = 250
    X = rng.normal(size=(n, len(FEATURE_NAMES)))
    y = 2.0 * X[:, 0] - 1.0 * X[:, 5] + rng.normal(0, 0.2, n) + 50.0
    return Dataset(X, y, FEATURE_NAMES)


class TestCustomSuite:
    def test_two_model_suite(self, dataset):
        tc = F2PMToolchain(
            suite={
                "ols": LinearRegression,
                "lasso": DEFAULT_SUITE["lasso"],
            },
            cv_folds=3,
        )
        comp = tc.compare(dataset, np.random.default_rng(0))
        assert set(comp.reports) == {"ols", "lasso"}

    def test_extension_model_in_suite(self, dataset):
        tc = F2PMToolchain(
            suite={
                "ols": LinearRegression,
                "tree": DEFAULT_SUITE["rep-tree"],
            },
            cv_folds=3,
        )
        tm = tc.train_best(
            dataset, np.random.default_rng(0), model_name="tree"
        )
        assert tm.name == "tree"
        assert np.isfinite(tm.predict(dataset.X[0])[0])


class TestNoFeatureSelection:
    def test_full_schema_used(self, dataset):
        tc = F2PMToolchain(max_features=None, cv_folds=3)
        comp = tc.compare(dataset, np.random.default_rng(0))
        assert comp.selected_features == FEATURE_NAMES


class TestRankingMetrics:
    @pytest.mark.parametrize("metric", ["mae", "rmse", "mape", "r2"])
    def test_each_metric_ranks(self, dataset, metric):
        """The toolchain ranks by RANKING_METRIC; a comparison re-ranks
        its reports by any metric."""
        tc = F2PMToolchain(
            suite={
                "ols": LinearRegression,
                "lasso": DEFAULT_SUITE["lasso"],
            },
            cv_folds=3,
        )
        comp = tc.compare(dataset, np.random.default_rng(0))
        assert comp.ranking_metric == RANKING_METRIC
        ranked = replace(comp, ranking_metric=metric).ranked()
        assert len(ranked) == 2
        a, b = ranked[0][1], ranked[1][1]
        if metric == "r2":
            assert getattr(a, metric) >= getattr(b, metric)
        else:
            assert getattr(a, metric) <= getattr(b, metric)


class TestTrainedModelProjection:
    def test_projection_survives_column_reorder(self, dataset):
        """The projection maps source columns by *name*, so a model
        trained on a reduced view predicts correctly from full rows."""
        tc = F2PMToolchain(max_features=4, cv_folds=3)
        tm = tc.train_best(
            dataset, np.random.default_rng(0), model_name="linear-regression"
        )
        # manual projection must agree with TrainedModel.predict
        idx = [FEATURE_NAMES.index(n) for n in tm.feature_names]
        manual = tm.model.predict(dataset.X[:10][:, idx])
        auto = tm.predict(dataset.X[:10])
        assert np.allclose(manual, auto)

    def test_degenerate_constant_target_keeps_full_schema(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, len(FEATURE_NAMES)))
        ds = Dataset(X, np.full(60, 7.0), FEATURE_NAMES)
        tc = F2PMToolchain(max_features=4, cv_folds=3)
        comp = tc.compare(ds, np.random.default_rng(0))
        # nothing correlates with a constant: selection falls back
        assert len(comp.selected_features) >= 4
