"""Tests-only reference split search: one feature at a time.

Until the split search was vectorised, ``repro.ml.tree.best_split`` ran
this loop: per feature, sort, prefix-sum, mask and ``argmin``, keeping a
feature only when its best children SSE is strictly below every earlier
feature's.  It lives on here as the comparator of
``tests/ml/test_forced_training.py``: the production search must return
the same ``(feature, threshold, sse_decrease)`` floats, bit for bit.
Both fall back to the lower value when the midpoint threshold rounds onto
the upper one, so ``x <= threshold`` applies the partition that was scored.
"""

from __future__ import annotations

import numpy as np


def reference_best_split(
    X: np.ndarray,
    y: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float, float] | None:
    """The per-feature split search :func:`repro.ml.tree.best_split` replaces."""
    n = y.size
    if n < 2 * min_samples_leaf:
        return None
    total_sum = float(y.sum())
    total_sq = float((y**2).sum())
    parent_sse = total_sq - total_sum**2 / n

    best: tuple[int, float, float] | None = None
    best_children_sse = np.inf
    for j in range(X.shape[1]):
        col = X[:, j]
        order = np.argsort(col, kind="stable")
        xs = col[order]
        ys = y[order]
        csum = np.cumsum(ys)
        k = np.arange(1, n)  # left-group sizes
        left_sum = csum[:-1]
        right_sum = total_sum - left_sum
        children_sse = total_sq - left_sum**2 / k - right_sum**2 / (n - k)
        valid = (
            (k >= min_samples_leaf)
            & (k <= n - min_samples_leaf)
            & (xs[1:] > xs[:-1])
        )
        if not valid.any():
            continue
        children_sse = np.where(valid, children_sse, np.inf)
        i = int(np.argmin(children_sse))
        if children_sse[i] < best_children_sse:
            best_children_sse = float(children_sse[i])
            threshold = 0.5 * (xs[i] + xs[i + 1])
            if not threshold < xs[i + 1]:  # midpoint rounded onto xs[i + 1]
                threshold = xs[i]
            best = (j, float(threshold), parent_sse - float(children_sse[i]))
    return best
