"""Lasso regression by cyclic coordinate descent, and feature selection.

F2PM uses Lasso (Tibshirani 1994, paper ref. [27]) in two roles:

* **feature selection** -- the regularisation path reveals which monitored
  system features carry signal about RTTF; features whose coefficients
  survive at a chosen penalty are kept, reducing the information the online
  system must collect (Sec. III);
* **as a predictor** -- one of the six models in the comparison suite.

The solver is standard cyclic coordinate descent on the standardised
objective::

    min_w  1/(2n) ||y - Xw - b||^2  +  alpha * ||w||_1

with the soft-thresholding update per coordinate.  Inputs are standardised
internally so ``alpha`` has a consistent meaning across features.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.ml.base import Regressor, as_1d_float, as_2d_float, check_consistent
from repro.ml.preprocessing import StandardScaler

#: coordinate-descent sweeps at most, and the weight change that stops it
MAX_ITER = 1000
TOL = 1e-6


def soft_threshold(value: float, threshold: float) -> float:
    """The Lasso proximal operator: sign(v) * max(|v| - t, 0)."""
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def _coordinate_descent(
    X: np.ndarray,
    y: np.ndarray,
    alpha: float,
    w0: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Cyclic coordinate descent on standardised data, for at most
    :data:`MAX_ITER` sweeps or until no weight moves by more than
    :data:`TOL`.

    Returns ``(weights, n_iterations)``.  ``X`` must be standardised
    column-wise so that each column's mean square is ~1, which makes the
    per-coordinate curvature uniform.
    """
    n_samples, n_features = X.shape
    w = np.zeros(n_features) if w0 is None else w0.copy()
    # Residual r = y - Xw maintained incrementally: O(n) per coordinate.
    r = y - X @ w
    col_sq = (X**2).sum(axis=0) / n_samples
    col_sq[col_sq == 0.0] = 1.0
    it = 0
    for it in range(1, MAX_ITER + 1):
        max_delta = 0.0
        for j in range(n_features):
            w_j = w[j]
            # rho = (1/n) x_j . (r + x_j w_j): partial residual correlation
            rho = (X[:, j] @ r) / n_samples + col_sq[j] * w_j
            w_new = soft_threshold(rho, alpha) / col_sq[j]
            if w_new != w_j:
                r += X[:, j] * (w_j - w_new)
                w[j] = w_new
                max_delta = max(max_delta, abs(w_new - w_j))
        if max_delta <= TOL:
            break
    return w, it


class LassoRegression(Regressor):
    """L1-regularised linear regression.

    Parameters
    ----------
    alpha:
        L1 penalty on the *standardised* problem.  Larger alpha produces
        sparser coefficient vectors.

    Attributes
    ----------
    coef_:
        Weights in the *original* (unstandardised) feature space.
    intercept_:
        Bias in the original space.
    n_iter_:
        Coordinate-descent sweeps actually performed.
    """

    def __init__(self, alpha: float = 0.1) -> None:
        super().__init__()
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self.alpha = float(alpha)
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.n_iter_: int = 0

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        scaler = StandardScaler()
        Xs = scaler.fit_transform(X)
        y_mean = y.mean()
        w_std, self.n_iter_ = _coordinate_descent(
            Xs, y - y_mean, self.alpha
        )
        # Map standardised weights back to original units.
        assert scaler.scale_ is not None and scaler.mean_ is not None
        self.coef_ = w_std / scaler.scale_
        self.intercept_ = float(y_mean - scaler.mean_ @ self.coef_)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        assert self.coef_ is not None
        return X @ self.coef_ + self.intercept_

    def sparsity(self) -> float:
        """Fraction of exactly-zero coefficients (0 = dense, 1 = all zero)."""
        if self.coef_ is None:
            raise RuntimeError("model not fitted")
        return float(np.mean(self.coef_ == 0.0))


def max_alpha(X: np.ndarray, y: np.ndarray) -> float:
    """Smallest alpha for which the Lasso solution is all-zero.

    Computed on standardised data: ``alpha_max = max_j |x_j . yc| / n``.
    """
    X = as_2d_float(X)
    y = as_1d_float(y)
    check_consistent(X, y)
    Xs = StandardScaler().fit_transform(X)
    yc = y - y.mean()
    return float(np.max(np.abs(Xs.T @ yc)) / X.shape[0])


def _lazy_path(
    X: np.ndarray,
    y: np.ndarray,
    n_alphas: int,
    alpha_min_ratio: float,
) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """The Lasso regularisation path, with its rows solved only as pulled.

    Returns ``alphas``, ``n_alphas`` descending penalties from
    ``alpha_max`` down to ``alpha_max * alpha_min_ratio`` on a log grid,
    and an iterator over the standardised-space coefficients at each
    (row ``k`` solves at ``alphas[k]``, warm-started from row ``k - 1``).
    Each row depends only on the rows before it, so a consumer that stops
    early gets exactly the prefix of the full path.
    """
    X = as_2d_float(X)
    y = as_1d_float(y)
    check_consistent(X, y)
    if n_alphas < 2:
        raise ValueError("n_alphas must be >= 2")
    a_max = max(max_alpha(X, y), 1e-12)
    alphas = np.geomspace(a_max, a_max * alpha_min_ratio, n_alphas)
    Xs = StandardScaler().fit_transform(X)
    yc = y - y.mean()

    def rows() -> Iterator[np.ndarray]:
        w = np.zeros(X.shape[1])
        for alpha in alphas:
            w, _ = _coordinate_descent(Xs, yc, float(alpha), w0=w)
            yield w

    return alphas, rows()


def select_features(
    X: np.ndarray,
    y: np.ndarray,
    feature_names: tuple[str, ...] | list[str],
    max_features: int | None = None,
    alpha: float | None = None,
) -> list[str]:
    """Lasso-based feature selection, as F2PM uses before online deployment.

    If ``alpha`` is given, keep the features with non-zero coefficients at
    that penalty.  Otherwise walk the regularisation path from strong to weak
    penalty and return features in the order they *enter* the model, stopping
    at ``max_features`` (default: all features that ever enter).

    Returns the selected names ordered by entry (most important first).
    The path is solved only until ``max_features`` names have entered.
    """
    if max_features is not None and max_features < 1:
        raise ValueError(
            f"max_features must be >= 1 or None, got {max_features}"
        )
    X = as_2d_float(X)
    names = list(feature_names)
    if X.shape[1] != len(names):
        raise ValueError(
            f"{len(names)} names for {X.shape[1]} feature columns"
        )
    if alpha is not None:
        model = LassoRegression(alpha=alpha).fit(X, y)
        assert model.coef_ is not None
        order = np.argsort(-np.abs(model.coef_))
        return [names[j] for j in order if model.coef_[j] != 0.0]

    _, rows = _lazy_path(X, y, n_alphas=50, alpha_min_ratio=1e-3)
    limit = max_features if max_features is not None else len(names)
    selected: list[str] = []
    for row in rows:
        for j in np.flatnonzero(row != 0.0):
            if names[j] not in selected:
                selected.append(names[j])
                if len(selected) >= limit:
                    return selected
    return selected
