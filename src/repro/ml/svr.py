"""Linear epsilon-insensitive Support Vector Regression.

The paper's suite includes the classic SVM (Cortes & Vapnik, ref. [31]) used
in regression mode.  We implement the primal linear SVR::

    min_w  1/2 ||w||^2  +  C * sum_i max(0, |y_i - w.x_i - b| - epsilon)

with deterministic averaged stochastic subgradient descent (Pegasos-style
step size ``1/(lambda t)``, capped by a ``1/sqrt(t)`` schedule for
stability), on internally standardised inputs.  Averaging the tail iterates removes most of the SGD jitter and
makes the result stable enough for unit testing.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import Regressor
from repro.ml.preprocessing import StandardScaler

#: inverse regularisation (a larger C fits harder)
C = 10.0
#: half-width of the insensitive tube, in target units
EPSILON = 0.01
#: share of the final iterates averaged into the returned weights
AVERAGE_LAST = 0.5


class LinearSVR(Regressor):
    """Linear SVR trained with averaged stochastic subgradient descent, at
    the module's :data:`C`, :data:`EPSILON` and :data:`AVERAGE_LAST`.

    Parameters
    ----------
    n_epochs:
        Passes over the data.
    seed:
        Seed of the sample-shuffling stream (deterministic training).
    """

    def __init__(self, n_epochs: int = 60, seed: int = 0) -> None:
        super().__init__()
        self.n_epochs = int(n_epochs)
        self.seed = int(seed)
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self._scaler: StandardScaler | None = None
        self._y_mean: float = 0.0
        self._y_scale: float = 1.0

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        # the constants are read here, so a patched value is checked here
        if C <= 0:
            raise ValueError("C must be positive")
        if EPSILON < 0:
            raise ValueError("EPSILON must be non-negative")
        if not 0 < AVERAGE_LAST <= 1:
            raise ValueError("AVERAGE_LAST must be in (0, 1]")
        # Standardise both X and y: the epsilon tube and the step sizes then
        # operate on O(1) quantities regardless of the RTTF scale (seconds
        # vs hours).
        self._scaler = StandardScaler()
        Xs = self._scaler.fit_transform(X)
        self._y_mean = float(y.mean())
        self._y_scale = float(y.std()) or 1.0
        ys = (y - self._y_mean) / self._y_scale
        eps = EPSILON / self._y_scale

        n, d = Xs.shape
        lam = 1.0 / (C * n)
        rng = np.random.Generator(np.random.PCG64(self.seed))
        w = np.zeros(d)
        b = 0.0
        w_acc = np.zeros(d)
        b_acc = 0.0
        n_acc = 0
        total_steps = self.n_epochs * n
        avg_from = int(total_steps * (1.0 - AVERAGE_LAST))
        t = 0
        for _ in range(self.n_epochs):
            for i in rng.permutation(n):
                t += 1
                # 1/sqrt(t) schedule, capped: the pure Pegasos 1/(lam*t)
                # step is enormous for small t when lam = 1/(C n) and makes
                # the bias update diverge on standardised data.
                eta = min(1.0 / (lam * t), 0.5 / np.sqrt(t))
                resid = ys[i] - (Xs[i] @ w + b)
                # Subgradient of the epsilon-insensitive loss.
                if resid > eps:
                    g = -1.0
                elif resid < -eps:
                    g = 1.0
                else:
                    g = 0.0
                # Pegasos step on  (lam/2)||w||^2 + (1/n) sum_i loss_i:
                # the per-sample stochastic gradient is lam*w + g*x_i.
                w *= 1.0 - eta * lam
                if g != 0.0:
                    w -= eta * g * Xs[i]
                    b -= eta * g
                if t > avg_from:
                    w_acc += w
                    b_acc += b
                    n_acc += 1
        if n_acc:
            w = w_acc / n_acc
            b = b_acc / n_acc
        # Fold the scalers into original-unit coefficients.
        assert self._scaler.scale_ is not None and self._scaler.mean_ is not None
        coef = self._y_scale * w / self._scaler.scale_
        self.coef_ = coef
        self.intercept_ = float(
            self._y_mean
            + self._y_scale * b
            - self._scaler.mean_ @ coef
        )

    def _predict(self, X: np.ndarray) -> np.ndarray:
        assert self.coef_ is not None
        return X @ self.coef_ + self.intercept_
