"""Model validation: error metrics and k-fold cross-validation.

F2PM "provides the user with a series of metrics which allow to select which
is the most effective ML model" (Sec. III).  We implement the standard
regression metrics plus the relative-error summary used in the F2PM paper,
and a deterministic k-fold CV driver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.base import Regressor, as_1d_float
from repro.ml.dataset import Dataset

#: the smallest ``|y|`` a MAPE term divides by
MAPE_FLOOR = 1e-9


def _check_pair(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y_true = as_1d_float(y_true, "y_true")
    y_pred = as_1d_float(y_pred, "y_pred")
    if y_true.shape != y_pred.shape:
        raise ValueError(
            f"y_true {y_true.shape} and y_pred {y_pred.shape} differ"
        )
    if y_true.size == 0:
        raise ValueError("empty arrays")
    return y_true, y_pred


def mean_absolute_error(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """MAE = mean |y - yhat|."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    return float(np.mean(np.abs(y_true - y_pred)))


def root_mean_squared_error(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """RMSE = sqrt(mean (y - yhat)^2)."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    return float(np.sqrt(np.mean((y_true - y_pred) ** 2)))


def mean_absolute_percentage_error(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """MAPE = mean |y - yhat| / max(|y|, MAPE_FLOOR); the F2PM relative error."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    denom = np.maximum(np.abs(y_true), MAPE_FLOOR)
    return float(np.mean(np.abs(y_true - y_pred) / denom))


def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination; 1 is perfect, 0 matches the mean.

    Returns 0.0 for a constant target predicted exactly, -inf-like negative
    values are possible for models worse than the mean.
    """
    y_true, y_pred = _check_pair(y_true, y_pred)
    ss_res = float(np.sum((y_true - y_pred) ** 2))
    ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
    if ss_tot == 0.0:
        return 0.0 if ss_res > 0 else 1.0
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True, slots=True)
class ValidationReport:
    """All metrics for one model evaluation."""

    mae: float
    rmse: float
    mape: float
    r2: float
    n_samples: int

    @classmethod
    def from_predictions(
        cls, y_true: np.ndarray, y_pred: np.ndarray
    ) -> "ValidationReport":
        """Compute every metric from a prediction pair."""
        return cls(
            mae=mean_absolute_error(y_true, y_pred),
            rmse=root_mean_squared_error(y_true, y_pred),
            mape=mean_absolute_percentage_error(y_true, y_pred),
            r2=r2_score(y_true, y_pred),
            n_samples=int(np.asarray(y_true).size),
        )

    def __str__(self) -> str:
        return (
            f"MAE={self.mae:.4g} RMSE={self.rmse:.4g} "
            f"MAPE={self.mape:.2%} R2={self.r2:.4f} (n={self.n_samples})"
        )


def k_fold_indices(
    n_samples: int, k: int, rng: np.random.Generator
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic shuffled k-fold split.

    Returns ``k`` pairs ``(train_idx, test_idx)`` covering all samples; fold
    sizes differ by at most one.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if n_samples < k:
        raise ValueError(f"cannot make {k} folds from {n_samples} samples")
    perm = rng.permutation(n_samples)
    folds = np.array_split(perm, k)
    out = []
    for i in range(k):
        test = folds[i]
        train = np.concatenate([folds[j] for j in range(k) if j != i])
        out.append((train, test))
    return out


def cross_validate(
    make_model,
    dataset: Dataset,
    folds: list[tuple[np.ndarray, np.ndarray]],
) -> list[ValidationReport]:
    """Cross-validation over the given folds.

    Parameters
    ----------
    make_model:
        Zero-argument factory returning a fresh, unfitted
        :class:`~repro.ml.base.Regressor` (a fresh model per fold avoids
        state leakage).
    dataset:
        The full dataset; folds index its rows.
    folds:
        ``(train_idx, test_idx)`` pairs, as :func:`k_fold_indices` makes.

    Returns one :class:`ValidationReport` per fold.
    """
    reports = []
    for train_idx, test_idx in folds:
        model: Regressor = make_model()
        train, test = dataset.subset(train_idx), dataset.subset(test_idx)
        model.fit(train.X, train.y)
        reports.append(
            ValidationReport.from_predictions(test.y, model.predict(test.X))
        )
    return reports


def summarize_cv(reports: list[ValidationReport]) -> ValidationReport:
    """Sample-weighted pooling of fold reports.

    ``mae`` and ``mape`` are means of per-sample statistics, so their
    pooled values are the sample-weighted means of the fold values.
    ``rmse`` is *not*: the root of a mean does not average linearly
    across folds (a linear average understates the pooled error whenever
    folds differ).  The pooled RMSE therefore averages the fold *MSEs*
    (sample-weighted) and takes the square root, which equals the RMSE
    over the union of all held-out predictions.  ``r2`` is reported as
    the sample-weighted mean of the fold R² values -- a conventional CV
    summary, not a pooled statistic (pooling R² would need each fold's
    target variance).
    """
    if not reports:
        raise ValueError("no fold reports")
    weights = np.array([r.n_samples for r in reports], dtype=float)
    weights /= weights.sum()
    return ValidationReport(
        mae=float(sum(w * r.mae for w, r in zip(weights, reports))),
        rmse=float(
            np.sqrt(sum(w * r.rmse**2 for w, r in zip(weights, reports)))
        ),
        mape=float(sum(w * r.mape for w, r in zip(weights, reports))),
        r2=float(sum(w * r.r2 for w, r in zip(weights, reports))),
        n_samples=int(sum(r.n_samples for r in reports)),
    )
