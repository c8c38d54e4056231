"""CART-style regression tree (variance-reduction splitting).

Shared machinery for the two tree models in F2PM's suite: REP-Tree
(:mod:`repro.ml.reptree`) prunes instances of this tree with a hold-out set,
and the M5P model tree (:mod:`repro.ml.m5p`) reuses the split search with
linear models in the leaves.

Split search is vectorised per the HPC guides: every feature is sorted
once and *all* candidate thresholds of all features are evaluated with
prefix sums in one pass, so the cost per node is
``O(n_features * n log n)`` with no Python-level loop over samples or
features.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(slots=True)
class TreeNode:
    """One node of a regression tree.

    Internal nodes carry ``(feature, threshold)`` and two children; leaves
    carry a constant ``value``.  ``n_samples`` and ``sse`` (sum of squared
    errors of the node's constant prediction over its training samples) are
    kept for pruning.
    """

    value: float
    n_samples: int
    sse: float
    feature: int = field(default=-1, init=False)
    threshold: float = field(default=0.0, init=False)
    left: "TreeNode | None" = field(default=None, init=False)
    right: "TreeNode | None" = field(default=None, init=False)
    # Populated by M5P: indices of training samples that reached this node.
    sample_idx: np.ndarray | None = field(default=None, repr=False)

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def make_leaf(self) -> None:
        """Collapse the subtree into a leaf (pruning primitive)."""
        self.left = None
        self.right = None
        self.feature = -1

    def depth(self) -> int:
        """Height of the subtree rooted here (leaf = 0)."""
        if self.is_leaf:
            return 0
        assert self.left is not None and self.right is not None
        return 1 + max(self.left.depth(), self.right.depth())

    def count_leaves(self) -> int:
        if self.is_leaf:
            return 1
        assert self.left is not None and self.right is not None
        return self.left.count_leaves() + self.right.count_leaves()

    def count_nodes(self) -> int:
        if self.is_leaf:
            return 1
        assert self.left is not None and self.right is not None
        return 1 + self.left.count_nodes() + self.right.count_nodes()


def best_split(
    X: np.ndarray,
    y: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float, float] | None:
    """Find the (feature, threshold) minimising children SSE.

    Returns ``(feature, threshold, sse_decrease)`` or ``None`` when no split
    satisfies ``min_samples_leaf`` on both sides (e.g. all feature values
    constant).

    The SSE of a group with sum ``s`` and count ``m`` is
    ``sum(y^2) - s^2/m``; since ``sum(y^2)`` is common to any partition of
    the node, minimising children SSE equals maximising
    ``s_l^2/m_l + s_r^2/m_r``, which we evaluate for every prefix of
    every feature's sort order at once, as one ``(n - 1, n_features)``
    matrix of cumulative sums.  Ties go to the first feature, then to
    the first split position within it.
    """
    n = y.size
    if n < 2 * min_samples_leaf:
        return None
    total_sum = float(y.sum())
    total_sq = float((y**2).sum())
    parent_sse = total_sq - total_sum**2 / n

    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    # Candidate split after row i of a column's sort order: valid where
    # both sides respect min_samples_leaf and xs strictly increases
    # across the boundary.
    left_sum = np.cumsum(y[order], axis=0)[:-1]
    k = np.arange(1, n)[:, None]  # left-group sizes
    right_sum = total_sum - left_sum
    children_sse = total_sq - left_sum**2 / k - right_sum**2 / (n - k)
    valid = (
        (k >= min_samples_leaf)
        & (k <= n - min_samples_leaf)
        & (xs[1:] > xs[:-1])
    )
    children_sse = np.where(valid, children_sse, np.inf)
    j = int(np.argmin(children_sse.min(axis=0)))
    i = int(np.argmin(children_sse[:, j]))
    if children_sse[i, j] == np.inf:
        return None
    lo, hi = xs[i, j], xs[i + 1, j]
    threshold = 0.5 * (lo + hi)
    if not threshold < hi:
        # the midpoint of adjacent doubles can round up onto ``hi`` (or
        # overflow): ``x <= threshold`` would then send the upper rows
        # left, applying a split other than the one scored
        threshold = lo
    return (j, float(threshold), parent_sse - float(children_sse[i, j]))


def build_tree(
    X: np.ndarray,
    y: np.ndarray,
    *,
    max_depth: int,
    min_samples_split: int,
    min_samples_leaf: int,
    min_sse_decrease: float,
    keep_sample_idx: bool = False,
    _idx: np.ndarray | None = None,
    _depth: int = 0,
) -> TreeNode:
    """Recursively grow a variance-reduction tree."""
    idx = np.arange(y.size) if _idx is None else _idx
    mean = float(y.mean())
    sse = float(((y - mean) ** 2).sum())
    node = TreeNode(
        value=mean,
        n_samples=int(y.size),
        sse=sse,
        sample_idx=idx if keep_sample_idx else None,
    )
    if _depth >= max_depth or y.size < min_samples_split:
        return node
    found = best_split(X, y, min_samples_leaf)
    if found is None:
        return node
    feature, threshold, decrease = found
    if decrease < min_sse_decrease:
        return node
    mask = X[:, feature] <= threshold
    node.feature = feature
    node.threshold = threshold
    node.left = build_tree(
        X[mask],
        y[mask],
        max_depth=max_depth,
        min_samples_split=min_samples_split,
        min_samples_leaf=min_samples_leaf,
        min_sse_decrease=min_sse_decrease,
        keep_sample_idx=keep_sample_idx,
        _idx=idx[mask],
        _depth=_depth + 1,
    )
    node.right = build_tree(
        X[~mask],
        y[~mask],
        max_depth=max_depth,
        min_samples_split=min_samples_split,
        min_samples_leaf=min_samples_leaf,
        min_sse_decrease=min_sse_decrease,
        keep_sample_idx=keep_sample_idx,
        _idx=idx[~mask],
        _depth=_depth + 1,
    )
    return node


#: Below this many rows :func:`tree_predict` walks each row down the tree
#: in plain Python; from here up it routes row subsets with NumPy masks.
#: The masked walk pays one fancy-index pair per node visited whatever
#: the batch size, so a region's 4-12 ACTIVE VMs are cheaper walked one
#: by one (the two cost the same at about 64 rows of the Fig. 4 tree).
ROW_WALK_MAX_ROWS = 64


def tree_predict(root: TreeNode, X: np.ndarray) -> np.ndarray:
    """Predict every row of ``X`` (bit-identical on either path).

    A small batch walks each row from the root in plain Python.  A large
    one is a depth-first stack over row subsets: each internal node
    splits the index array of the rows that reached it with one mask.
    Both paths make the same float64 ``<=`` compare at each node and
    return the same leaf values.
    """
    if X.shape[0] < ROW_WALK_MAX_ROWS:
        values = []
        for row in X.tolist():
            node = root
            while node.left is not None:
                node = (
                    node.left
                    if row[node.feature] <= node.threshold
                    else node.right
                )
            values.append(node.value)
        return np.array(values, dtype=float)
    out = np.empty(X.shape[0], dtype=float)
    stack: list[tuple[TreeNode, np.ndarray]] = [(root, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if rows.size == 0:
            continue
        if node.is_leaf:
            out[rows] = node.value
            continue
        assert node.left is not None and node.right is not None
        mask = X[rows, node.feature] <= node.threshold
        stack.append((node.left, rows[mask]))
        stack.append((node.right, rows[~mask]))
    return out
