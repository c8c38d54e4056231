"""Ordinary least-squares regression.

"Linear regression" is the first model in F2PM's suite (paper ref. [28]).
OLS is solved with :func:`numpy.linalg.lstsq` (SVD-based, rank-robust).
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import Regressor


class LinearRegression(Regressor):
    """Ordinary least-squares linear regression with intercept.

    Attributes
    ----------
    coef_:
        ``(n_features,)`` fitted weights.
    intercept_:
        Fitted bias term.
    """

    def __init__(self) -> None:
        super().__init__()
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        # Center to decouple the intercept; lstsq handles rank deficiency.
        x_mean = X.mean(axis=0)
        y_mean = y.mean()
        coef, *_ = np.linalg.lstsq(X - x_mean, y - y_mean, rcond=None)
        self.coef_ = coef
        self.intercept_ = float(y_mean - x_mean @ coef)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        assert self.coef_ is not None
        return X @ self.coef_ + self.intercept_
