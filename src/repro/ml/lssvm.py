"""Least-Squares Support Vector Machine regression.

The last model of the F2PM suite (Suykens & Vandewalle 1999, paper ref.
[32]).  LS-SVM replaces the SVM's inequality constraints with equality
constraints, turning training into one dense linear solve::

    [ 0      1^T          ] [ b ]   [ 0 ]
    [ 1   K + I/gamma     ] [ a ] = [ y ]

where ``K`` is the kernel Gram matrix, ``gamma`` the regularisation, ``a``
the support values and ``b`` the bias.  Prediction is
``f(x) = sum_i a_i k(x, x_i) + b``.

Every training point is a support vector, so prediction is O(n_train) per
query -- fine at F2PM's dataset sizes (thousands of samples); the solve uses
SciPy's LAPACK bindings.  SciPy is imported on the first fit, not with this
module: only an LS-SVM fit needs it, and a process that deploys another
model (REP-Tree, as the paper does) never pays its import time or memory.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import Regressor
from repro.ml.preprocessing import StandardScaler


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma_k: float) -> np.ndarray:
    """Gram matrix ``K[i, j] = exp(-gamma_k * ||A[i] - B[j]||^2)``, the
    distances computed via the expanded form, fully vectorised."""
    sq_a = (A**2).sum(axis=1)[:, None]
    sq_b = (B**2).sum(axis=1)[None, :]
    d2 = np.maximum(sq_a + sq_b - 2.0 * (A @ B.T), 0.0)
    return np.exp(-gamma_k * d2)


class LeastSquaresSVM(Regressor):
    """RBF-kernel LS-SVM regression. The kernel width is ``1/n_features``
    on standardised inputs.

    Parameters
    ----------
    gamma:
        Regularisation weight; larger fits the training data harder.
    """

    def __init__(self, gamma: float = 10.0) -> None:
        super().__init__()
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        self.gamma = float(gamma)
        self.alpha_: np.ndarray | None = None
        self.bias_: float = 0.0
        self._X_train: np.ndarray | None = None
        self._scaler: StandardScaler | None = None
        self._y_mean: float = 0.0
        self._y_scale: float = 1.0
        self._gamma_k: float = 1.0

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        import scipy.linalg

        self._scaler = StandardScaler()
        Xs = self._scaler.fit_transform(X)
        self._y_mean = float(y.mean())
        self._y_scale = float(y.std()) or 1.0
        ys = (y - self._y_mean) / self._y_scale
        self._gamma_k = 1.0 / X.shape[1]

        n = Xs.shape[0]
        K = rbf_kernel(Xs, Xs, self._gamma_k)
        # Assemble the (n+1) x (n+1) KKT system.
        A = np.empty((n + 1, n + 1))
        A[0, 0] = 0.0
        A[0, 1:] = 1.0
        A[1:, 0] = 1.0
        A[1:, 1:] = K + np.eye(n) / self.gamma
        rhs = np.concatenate([[0.0], ys])
        try:
            sol = scipy.linalg.solve(A, rhs, assume_a="sym")
        except scipy.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
        self.bias_ = float(sol[0])
        self.alpha_ = sol[1:]
        self._X_train = Xs

    def _predict(self, X: np.ndarray) -> np.ndarray:
        assert (
            self.alpha_ is not None
            and self._X_train is not None
            and self._scaler is not None
        )
        Xs = self._scaler.transform(X)
        K = rbf_kernel(Xs, self._X_train, self._gamma_k)
        ys = K @ self.alpha_ + self.bias_
        return ys * self._y_scale + self._y_mean

    @property
    def n_support_(self) -> int:
        """Number of support vectors (= training size for LS-SVM)."""
        if self.alpha_ is None:
            raise RuntimeError("model not fitted")
        return int(self.alpha_.size)
