"""M5P model tree (Wang & Witten 1997, paper ref. [29]).

A model tree grows like a regression tree but places *linear models* in the
nodes.  The classic M5 recipe, reproduced here:

1. **Grow** a variance-reduction tree (shared split search from
   :mod:`repro.ml.tree`), remembering which training samples reach each node.
2. **Fit** a ridge-stabilised linear model at every node on its samples.
3. **Prune** bottom-up by comparing the complexity-corrected error of the
   node's linear model against its subtree's error; the correction factor
   ``(n + v) / (n - v)`` (n samples, v parameters) penalises small leaves.
4. **Smooth** predictions along the root-to-leaf path:
   ``p' = (n * p_child + k * p_parent) / (n + k)`` with smoothing constant
   ``k = 15``, which removes discontinuities at the split boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.base import Regressor
from repro.ml.tree import TreeNode, build_tree

#: growth controls of the shared split search
MAX_DEPTH = 8
MIN_SAMPLES_SPLIT = 8
MIN_SAMPLES_LEAF = 4
#: stabiliser of the per-node linear solves
RIDGE = 1e-3
#: M5's smoothing constant ``k``; 0 turns smoothing off
SMOOTHING = 15.0


@dataclass(slots=True)
class _NodeModel:
    """Ridge linear model attached to a tree node."""

    coef: np.ndarray
    intercept: float

    def predict(self, X: np.ndarray) -> np.ndarray:
        return X @ self.coef + self.intercept


def _fit_node_model(X: np.ndarray, y: np.ndarray) -> _NodeModel:
    """Fit a ridge model; degenerate nodes fall back to the mean."""
    n = y.size
    if n == 0:
        return _NodeModel(np.zeros(X.shape[1]), 0.0)
    if n < 3:
        return _NodeModel(np.zeros(X.shape[1]), float(y.mean()))
    x_mean = X.mean(axis=0)
    y_mean = float(y.mean())
    Xc = X - x_mean
    gram = Xc.T @ Xc + RIDGE * np.eye(X.shape[1])
    try:
        coef = np.linalg.solve(gram, Xc.T @ (y - y_mean))
    except np.linalg.LinAlgError:
        coef, *_ = np.linalg.lstsq(gram, Xc.T @ (y - y_mean), rcond=None)
    return _NodeModel(coef, y_mean - float(x_mean @ coef))


def _corrected_mae(residuals: np.ndarray, n_params: int) -> float:
    """M5's complexity-corrected mean absolute error.

    ``MAE * (n + v) / (n - v)``; infinite when the node has no spare degrees
    of freedom, which forces pruning decisions toward the subtree.
    """
    n = residuals.size
    if n == 0:
        return 0.0
    mae = float(np.mean(np.abs(residuals)))
    if n <= n_params:
        return np.inf
    return mae * (n + n_params) / (n - n_params)


class M5PModelTree(Regressor):
    """M5P model tree: linear models in the leaves, pruning, smoothing.

    It runs at the module's stock settings (:data:`MAX_DEPTH`,
    :data:`MIN_SAMPLES_SPLIT`, :data:`MIN_SAMPLES_LEAF`, :data:`RIDGE`,
    :data:`SMOOTHING`), read at fit and predict time, and always runs the
    complexity-corrected pruning pass.
    """

    def __init__(self) -> None:
        super().__init__()
        self.root_: TreeNode | None = None
        #: node models by heap index (root 1, children 2i and 2i + 1): a
        #: key that survives a copy or pickle of the tree, as ``id`` would not
        self._models: dict[int, _NodeModel] = {}

    # ------------------------------------------------------------------ #

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        # the constants are read here, so a patched value is checked here
        if SMOOTHING < 0:
            raise ValueError("SMOOTHING must be >= 0")
        if RIDGE < 0:
            raise ValueError("RIDGE must be >= 0")
        self.root_ = build_tree(
            X,
            y,
            max_depth=MAX_DEPTH,
            min_samples_split=MIN_SAMPLES_SPLIT,
            min_samples_leaf=MIN_SAMPLES_LEAF,
            min_sse_decrease=0.0,
            keep_sample_idx=True,
        )
        self._models = {}
        self._fit_models(self.root_, 1, X, y)
        self._prune_node(self.root_, 1, X, y)

    def _fit_models(
        self, node: TreeNode, index: int, X: np.ndarray, y: np.ndarray
    ) -> None:
        assert node.sample_idx is not None
        rows = node.sample_idx
        self._models[index] = _fit_node_model(X[rows], y[rows])
        if not node.is_leaf:
            assert node.left is not None and node.right is not None
            self._fit_models(node.left, 2 * index, X, y)
            self._fit_models(node.right, 2 * index + 1, X, y)

    def _prune_node(
        self, node: TreeNode, index: int, X: np.ndarray, y: np.ndarray
    ) -> float:
        """Bottom-up prune; returns the corrected error of the kept subtree."""
        assert node.sample_idx is not None
        rows = node.sample_idx
        model = self._models[index]
        node_residuals = y[rows] - model.predict(X[rows])
        n_params = int(np.count_nonzero(model.coef)) + 1
        node_err = _corrected_mae(node_residuals, n_params)
        if node.is_leaf:
            return node_err
        assert node.left is not None and node.right is not None
        left_err = self._prune_node(node.left, 2 * index, X, y)
        right_err = self._prune_node(node.right, 2 * index + 1, X, y)
        nl = node.left.n_samples
        nr = node.right.n_samples
        subtree_err = (nl * left_err + nr * right_err) / max(nl + nr, 1)
        if node_err <= subtree_err:
            node.make_leaf()
            return node_err
        return subtree_err

    # ------------------------------------------------------------------ #

    def _predict(self, X: np.ndarray) -> np.ndarray:
        assert self.root_ is not None
        out = np.empty(X.shape[0], dtype=float)
        self._predict_into(self.root_, 1, X, np.arange(X.shape[0]), out, None)
        return out

    def _predict_into(
        self,
        node: TreeNode,
        index: int,
        X: np.ndarray,
        rows: np.ndarray,
        out: np.ndarray,
        parent_pred: np.ndarray | None,
    ) -> None:
        if rows.size == 0:
            return
        pred = self._models[index].predict(X[rows])
        # M5 smoothing: blend with the prediction inherited from the parent.
        if parent_pred is not None and SMOOTHING > 0:
            n = node.n_samples
            pred = (n * pred + SMOOTHING * parent_pred) / (n + SMOOTHING)
        if node.is_leaf:
            out[rows] = pred
            return
        assert node.left is not None and node.right is not None
        mask = X[rows, node.feature] <= node.threshold
        self._predict_into(
            node.left, 2 * index, X, rows[mask], out, pred[mask]
        )
        self._predict_into(
            node.right, 2 * index + 1, X, rows[~mask], out, pred[~mask]
        )

    # ------------------------------------------------------------------ #

    def n_leaves(self) -> int:
        """Leaf count of the (pruned) model tree."""
        if self.root_ is None:
            raise RuntimeError("model not fitted")
        return self.root_.count_leaves()

    def depth(self) -> int:
        """Depth of the (pruned) model tree."""
        if self.root_ is None:
            raise RuntimeError("model not fitted")
        return self.root_.depth()
