"""The F2PM automatic ML toolchain.

Sec. III: "All measurements are fed into an automatic ML toolchain.  The
goal of this toolchain is to generate and validate alternative ML models for
predicting the Remaining Time To Failure (RTTF), as well as to select (via
Lasso regularization) what are the most relevant system features ...  The
user of F2PM is provided as well with a series of metrics which allow to
select which is the most effective ML model."

:class:`F2PMToolchain` reproduces exactly that pipeline:

1. optional Lasso feature selection;
2. cross-validate the full model suite (Linear Regression, Lasso,
   REP-Tree, M5P, SVR, LS-SVM) on the reduced dataset and rank it by a
   chosen metric (:meth:`F2PMToolchain.compare`);
3. fit the winner -- or a forced member, which is then fitted once and
   cross-validated only when its report is read -- as a
   :class:`TrainedModel` (feature projection + fitted model) for online
   deployment in the VMC (:meth:`F2PMToolchain.train_best`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from repro.ml.base import Regressor
from repro.ml.dataset import Dataset
from repro.ml.lasso import LassoRegression, select_features
from repro.ml.linear import LinearRegression
from repro.ml.lssvm import LeastSquaresSVM
from repro.ml.m5p import M5PModelTree
from repro.ml.reptree import REPTree
from repro.ml.svr import LinearSVR
from repro.ml.validation import (
    ValidationReport,
    cross_validate,
    k_fold_indices,
    summarize_cv,
)

#: Default model suite, matching the six models listed in Sec. III.
DEFAULT_SUITE: dict[str, Callable[[], Regressor]] = {
    "linear-regression": LinearRegression,
    "lasso": lambda: LassoRegression(alpha=0.01),
    "rep-tree": lambda: REPTree(seed=1),
    "m5p": M5PModelTree,
    "svr": lambda: LinearSVR(seed=1, n_epochs=30),
    "ls-svm": lambda: LeastSquaresSVM(gamma=50.0),
}
#: The cross-validation metric the toolchain ranks its models by.
RANKING_METRIC = "rmse"


def _cv_report(
    factory: Callable[[], Regressor],
    reduced: Dataset,
    folds: list[tuple[np.ndarray, np.ndarray]],
) -> ValidationReport:
    """One suite member's cross-validation report pooled over ``folds``."""
    return summarize_cv(cross_validate(factory, reduced, folds))


@dataclass
class TrainedModel:
    """A deployable RTTF predictor: feature projection + fitted model.

    The VMC feeds full :data:`~repro.ml.features.FEATURE_NAMES` rows to
    :meth:`predict`; the projection reduces them to the Lasso-selected
    subset the model was trained on.

    ``validation`` is the model's cross-validation report, or the
    zero-argument call that computes it; :attr:`report` makes that call
    on its first read and keeps the result.
    """

    name: str
    model: Regressor
    feature_names: tuple[str, ...]
    source_names: tuple[str, ...]
    validation: ValidationReport | Callable[[], ValidationReport] = field(
        repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._columns = np.array(
            [self.source_names.index(n) for n in self.feature_names], dtype=int
        )

    @property
    def report(self) -> ValidationReport:
        """The model's cross-validation report (computed on first read)."""
        if not isinstance(self.validation, ValidationReport):
            self.validation = self.validation()
        return self.validation

    def __getstate__(self) -> dict:
        # a pending call closes over a suite factory, which need not pickle
        self.report
        return self.__dict__

    def predict(self, X_full: np.ndarray) -> np.ndarray:
        """Predict RTTF from rows in the *full* source schema."""
        X_full = np.asarray(X_full, dtype=float)
        if X_full.ndim == 1:
            X_full = X_full.reshape(1, -1)
        if X_full.shape[1] != len(self.source_names):
            raise ValueError(
                f"expected {len(self.source_names)} source features, "
                f"got {X_full.shape[1]}"
            )
        return self.model.predict(X_full[:, self._columns])


@dataclass
class ModelComparison:
    """Ranked cross-validation results over the model suite."""

    reports: dict[str, ValidationReport]
    ranking_metric: str
    selected_features: tuple[str, ...]

    def ranked(self) -> list[tuple[str, ValidationReport]]:
        """Model names best-first by the ranking metric.

        Non-finite metrics (a NaN from a singular fold, an overflowed
        error) rank worst-possible: raw ``sorted`` would otherwise place
        NaN wherever the comparison sequence happened to leave it --
        including first, silently deploying a diverged model via
        ``train_best``.
        """
        def key(item: tuple[str, ValidationReport]) -> float:
            r = item[1]
            value = getattr(r, self.ranking_metric)
            if not np.isfinite(value):
                return float("inf")
            # r2 ranks descending, error metrics ascending.
            return -value if self.ranking_metric == "r2" else value

        return sorted(self.reports.items(), key=key)

    @property
    def best_name(self) -> str:
        return self.ranked()[0][0]

    def table(self) -> str:
        """Human-readable comparison table (the F2PM selection report)."""
        lines = [
            f"{'model':<18} {'MAE':>12} {'RMSE':>12} {'MAPE':>9} {'R2':>8}"
        ]
        for name, r in self.ranked():
            lines.append(
                f"{name:<18} {r.mae:>12.4g} {r.rmse:>12.4g} "
                f"{r.mape:>8.1%} {r.r2:>8.4f}"
            )
        return "\n".join(lines)


@dataclass
class F2PMToolchain:
    """End-to-end F2PM pipeline.

    Parameters
    ----------
    suite:
        Mapping of model name to zero-argument factory; defaults to the
        paper's six models.
    max_features:
        Upper bound (>= 1) on Lasso-selected features; ``None`` disables
        selection and trains on the full schema.
    cv_folds:
        Cross-validation folds used for ranking.

    Models rank by :data:`RANKING_METRIC`.
    """

    suite: dict[str, Callable[[], Regressor]] = field(
        default_factory=lambda: dict(DEFAULT_SUITE)
    )
    max_features: int | None = 8
    cv_folds: int = 5

    def __post_init__(self) -> None:
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be >= 2")
        if not self.suite:
            raise ValueError("empty model suite")
        if self.max_features is not None and self.max_features < 1:
            raise ValueError(
                f"max_features must be >= 1 or None, got {self.max_features}"
            )

    def compare(
        self, dataset: Dataset, rng: np.random.Generator
    ) -> ModelComparison:
        """Feature-select, cross-validate the suite, and rank the models."""
        reduced = self._reduce(dataset)
        return self._rank(reduced, self._draw_folds(reduced, rng))

    def _reduce(self, dataset: Dataset) -> Dataset:
        """``dataset`` on its Lasso-selected features."""
        if self.max_features is None:
            return dataset
        selected = select_features(
            dataset.X,
            dataset.y,
            dataset.feature_names,
            max_features=self.max_features,
        )
        if not selected:  # degenerate target: keep full schema
            selected = list(dataset.feature_names)
        return dataset.select_features(selected)

    def _draw_folds(
        self, reduced: Dataset, rng: np.random.Generator
    ) -> dict[str, list[tuple[np.ndarray, np.ndarray]]]:
        """Every member's fold split, drawn from ``rng`` in suite order.

        Fitting draws nothing from ``rng``, so a member's folds do not
        depend on which members are scored, and the stream ends in the
        same state whatever is fitted.
        """
        return {
            name: k_fold_indices(len(reduced), self.cv_folds, rng)
            for name in self.suite
        }

    def _rank(
        self,
        reduced: Dataset,
        folds: dict[str, list[tuple[np.ndarray, np.ndarray]]],
    ) -> ModelComparison:
        return ModelComparison(
            reports={
                name: _cv_report(factory, reduced, folds[name])
                for name, factory in self.suite.items()
            },
            ranking_metric=RANKING_METRIC,
            selected_features=reduced.feature_names,
        )

    def train_best(
        self,
        dataset: Dataset,
        rng: np.random.Generator,
        model_name: str | None = None,
    ) -> TrainedModel:
        """Fit the chosen suite member on the full (reduced) dataset.

        ``model_name`` forces a specific suite member (the paper forces
        REP-Tree based on earlier results): it is fitted once, and
        cross-validated on its stored folds only when
        :attr:`TrainedModel.report` is first read.  Otherwise
        :meth:`compare` ranks the suite and the CV winner is used.  Either
        way the member's report equals its entry in :meth:`compare`, and
        ``rng`` ends where :meth:`compare` leaves it.
        """
        if model_name is not None and model_name not in self.suite:
            raise KeyError(
                f"model {model_name!r} not in suite {sorted(self.suite)}"
            )
        reduced = self._reduce(dataset)
        folds = self._draw_folds(reduced, rng)
        if model_name is None:
            comparison = self._rank(reduced, folds)
            name = comparison.best_name
            validation = comparison.reports[name]
        else:
            name = model_name
            validation = partial(
                _cv_report, self.suite[name], reduced, folds[name]
            )
        model = self.suite[name]()
        model.fit(reduced.X, reduced.y)
        return TrainedModel(
            name=name,
            model=model,
            feature_names=reduced.feature_names,
            source_names=dataset.feature_names,
            validation=validation,
        )
