"""REP-Tree: regression tree with Reduced-Error Pruning.

The model the paper actually deploys: "Based on our previous results in [26],
we selected REP Tree as a ML model for predicting the MTTF" (Sec. VI-A).

A REP-Tree (after Weka's ``REPTree``) grows a fast variance-reduction tree
on a *grow* subset, then applies bottom-up reduced-error pruning against a
held-out *prune* subset: any internal node whose collapse does not increase
squared error on the prune set becomes a leaf.  This controls the over-fit
that plain CART exhibits on noisy failure traces.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import Regressor
from repro.ml.tree import TreeNode, build_tree, tree_predict

#: maximum tree depth (root = depth 0)
MAX_DEPTH = 18
#: samples a node needs to be considered for splitting
MIN_SAMPLES_SPLIT = 4
#: samples each child must keep
MIN_SAMPLES_LEAF = 2
#: the absolute SSE reduction a split must make
MIN_SSE_DECREASE = 0.0
#: share of the training data held out for pruning (Weka holds out one
#: fold of three); 0 grows a plain, unpruned CART tree
PRUNE_FRACTION = 1.0 / 3.0


def _prune(node: TreeNode, X: np.ndarray, y: np.ndarray) -> float:
    """Bottom-up reduced-error pruning.

    Returns the prune-set SSE of the (possibly collapsed) subtree.  When the
    prune set routed to a node is empty we keep the subtree (no evidence to
    prune on) and report zero error.
    """
    if node.is_leaf:
        return float(((y - node.value) ** 2).sum())
    assert node.left is not None and node.right is not None
    mask = X[:, node.feature] <= node.threshold
    subtree_sse = _prune(node.left, X[mask], y[mask]) + _prune(
        node.right, X[~mask], y[~mask]
    )
    if y.size == 0:
        return subtree_sse
    leaf_sse = float(((y - node.value) ** 2).sum())
    if leaf_sse <= subtree_sse:
        node.make_leaf()
        return leaf_sse
    return subtree_sse


class REPTree(Regressor):
    """Reduced-Error-Pruning regression tree.

    It grows at the module's stock settings (:data:`MAX_DEPTH`,
    :data:`MIN_SAMPLES_SPLIT`, :data:`MIN_SAMPLES_LEAF`,
    :data:`MIN_SSE_DECREASE`) and holds out :data:`PRUNE_FRACTION` of the
    training data for pruning, each read at fit time.

    Parameters
    ----------
    seed:
        Seed of the internal grow/prune shuffling, for reproducibility.
    """

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self.seed = int(seed)
        self.root_: TreeNode | None = None
        self.pruned_leaves_: int = 0

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        # the constants are read here, so a patched value is checked here
        if MAX_DEPTH < 0:
            raise ValueError("MAX_DEPTH must be >= 0")
        if MIN_SAMPLES_LEAF < 1:
            raise ValueError("MIN_SAMPLES_LEAF must be >= 1")
        if MIN_SAMPLES_SPLIT < 2:
            raise ValueError("MIN_SAMPLES_SPLIT must be >= 2")
        if not 0.0 <= PRUNE_FRACTION < 1.0:
            raise ValueError(
                f"PRUNE_FRACTION must be in [0, 1), got {PRUNE_FRACTION}"
            )
        n = y.size
        n_prune = int(round(n * PRUNE_FRACTION))
        if n_prune == 0 or n - n_prune < 2 * MIN_SAMPLES_LEAF:
            grow_X, grow_y = X, y
            prune_X = np.empty((0, X.shape[1]))
            prune_y = np.empty(0)
        else:
            rng = np.random.Generator(np.random.PCG64(self.seed))
            perm = rng.permutation(n)
            prune_idx, grow_idx = perm[:n_prune], perm[n_prune:]
            grow_X, grow_y = X[grow_idx], y[grow_idx]
            prune_X, prune_y = X[prune_idx], y[prune_idx]

        self.root_ = build_tree(
            grow_X,
            grow_y,
            max_depth=MAX_DEPTH,
            min_samples_split=MIN_SAMPLES_SPLIT,
            min_samples_leaf=MIN_SAMPLES_LEAF,
            min_sse_decrease=MIN_SSE_DECREASE,
        )
        leaves_before = self.root_.count_leaves()
        if prune_y.size:
            _prune(self.root_, prune_X, prune_y)
        self.pruned_leaves_ = leaves_before - self.root_.count_leaves()

    def _predict(self, X: np.ndarray) -> np.ndarray:
        assert self.root_ is not None
        return tree_predict(self.root_, X)

    def depth(self) -> int:
        """Depth of the pruned tree."""
        if self.root_ is None:
            raise RuntimeError("tree not fitted")
        return self.root_.depth()

    def n_leaves(self) -> int:
        """Leaf count of the pruned tree."""
        if self.root_ is None:
            raise RuntimeError("tree not fitted")
        return self.root_.count_leaves()
