"""Common regressor interface for the F2PM model suite."""

from __future__ import annotations

import abc

import numpy as np


class FittedError(RuntimeError):
    """Raised when :meth:`Regressor.predict` is called before ``fit``."""


def as_2d_float(X: np.ndarray, name: str = "X") -> np.ndarray:
    """Validate and coerce a design matrix to a 2-D float64 array."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError(f"{name} contains non-finite values")
    return X


def as_1d_float(y: np.ndarray, name: str = "y") -> np.ndarray:
    """Validate and coerce a target vector to a 1-D float64 array."""
    y = np.asarray(y, dtype=float).ravel()
    if not np.isfinite(y).all():
        raise ValueError(f"{name} contains non-finite values")
    return y


def check_consistent(X: np.ndarray, y: np.ndarray) -> None:
    """Ensure X rows match y length."""
    if X.shape[0] != y.shape[0]:
        raise ValueError(
            f"X has {X.shape[0]} samples but y has {y.shape[0]}"
        )


class Regressor(abc.ABC):
    """Abstract base for all F2PM regression models.

    Subclasses implement :meth:`_fit` and :meth:`_predict`; the base class
    handles input validation, the fitted flag, and shape bookkeeping.
    """

    def __init__(self) -> None:
        self._fitted = False
        self._n_features: int | None = None

    @property
    def is_fitted(self) -> bool:
        """Whether ``fit`` has completed successfully."""
        return self._fitted

    @property
    def n_features(self) -> int:
        """Number of input features seen at fit time."""
        if self._n_features is None:
            raise FittedError(f"{type(self).__name__} is not fitted")
        return self._n_features

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Regressor":
        """Fit the model to ``(X, y)``; returns ``self`` for chaining."""
        X = as_2d_float(X)
        y = as_1d_float(y)
        check_consistent(X, y)
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        self._n_features = X.shape[1]
        self._fit(X, y)
        self._fitted = True
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for the rows of ``X``."""
        if not self._fitted:
            raise FittedError(
                f"{type(self).__name__}.predict called before fit"
            )
        X = as_2d_float(X)
        if X.shape[1] != self._n_features:
            raise ValueError(
                f"expected {self._n_features} features, got {X.shape[1]}"
            )
        return self._predict(X)

    @abc.abstractmethod
    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        """Model-specific fitting (inputs already validated)."""

    @abc.abstractmethod
    def _predict(self, X: np.ndarray) -> np.ndarray:
        """Model-specific prediction (inputs already validated)."""
