"""Tests for the regression tree, REP-Tree, and M5P model tree.

The plain CART regression tree is ``build_tree`` + ``tree_predict``; an
unpruned :class:`REPTree` (``PRUNE_FRACTION = 0``) grows exactly that tree
on its whole training set, so it stands in wherever a test needs one
behind the ``Regressor`` interface.  The models' hyperparameters are
module constants; a test that needs other values patches them around the
fit (and, for M5P's smoothing, the predict).
"""

import numpy as np
import pytest

import repro.ml.m5p as m5p
import repro.ml.reptree as reptree
import repro.ml.tree as tree_module
from repro.ml import M5PModelTree, REPTree
from repro.ml.tree import ROW_WALK_MAX_ROWS, best_split, build_tree, tree_predict


class TestBestSplit:
    def test_obvious_split_found(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0.0, 0.0, 100.0, 100.0])
        feature, threshold, decrease = best_split(X, y, min_samples_leaf=1)
        assert feature == 0
        assert 1.0 < threshold < 10.0
        assert decrease > 0

    def test_constant_feature_returns_none(self):
        X = np.ones((10, 1))
        y = np.arange(10.0)
        assert best_split(X, y, min_samples_leaf=1) is None

    def test_min_samples_leaf_respected(self):
        # best raw split would isolate a single point
        X = np.array([[0.0], [1.0], [2.0], [100.0]])
        y = np.array([0.0, 0.0, 0.0, 50.0])
        found = best_split(X, y, min_samples_leaf=2)
        assert found is not None
        feature, threshold, _ = found
        left = np.sum(X[:, 0] <= threshold)
        assert left >= 2 and len(X) - left >= 2

    def test_too_few_samples_returns_none(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0.0, 1.0, 2.0])
        assert best_split(X, y, min_samples_leaf=2) is None

    def test_picks_most_informative_feature(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([rng.normal(size=100), np.linspace(0, 1, 100)])
        y = np.where(X[:, 1] > 0.5, 10.0, -10.0)
        feature, _, _ = best_split(X, y, min_samples_leaf=1)
        assert feature == 1

    def test_threshold_separates_adjacent_doubles(self):
        # the midpoint of these two adjacent doubles rounds up onto the
        # upper one; ``x <= threshold`` must still split them as scored
        lo, hi = 17.849999999999998, 17.85
        assert lo < hi and 0.5 * (lo + hi) == hi
        X = np.array([[lo], [lo], [hi], [hi]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        feature, threshold, _ = best_split(X, y, min_samples_leaf=1)
        assert feature == 0
        assert lo <= threshold < hi
        root = build_tree(
            X, y, max_depth=3, min_samples_split=2,
            min_samples_leaf=1, min_sse_decrease=0.0,
        )
        assert (root.left.n_samples, root.right.n_samples) == (2, 2)
        assert np.array_equal(tree_predict(root, X), y)

    def test_fig4_seed18_model_has_no_nan_leaf(self):
        from repro.experiments.runner import make_trained_predictor
        from repro.experiments.scenarios import three_region_scenario

        predictor = make_trained_predictor(
            three_region_scenario().instance_types(), seed=18
        )
        leaves, stack = [], [predictor.model.model.root_]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaves.append(node)
            else:
                stack += [node.left, node.right]
        assert all(node.n_samples > 0 for node in leaves)
        assert not np.isnan([node.value for node in leaves]).any()


def cart(X, y, **growth):
    """A plain (unpruned) CART regression tree behind ``Regressor``, fit
    on ``X, y``: a REPTree with ``PRUNE_FRACTION = 0`` and ``growth``
    (``max_depth=6``, ...) patched over its module constants."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reptree, "PRUNE_FRACTION", 0.0)
        for name, value in growth.items():
            patch.setattr(reptree, name.upper(), value)
        return REPTree().fit(X, y)


@pytest.fixture
def m5p_constants(monkeypatch):
    """Sets M5P's module constants for one test: ``m5p_constants(smoothing=0.0)``."""
    def patch(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(m5p, name.upper(), value)
    return patch


class TestRegressionTree:
    def test_fits_piecewise_function(self, piecewise_data):
        X, y = piecewise_data
        m = cart(X, y, max_depth=6)
        resid = y - m.predict(X)
        assert np.std(resid) < 0.5

    def test_max_depth_zero_predicts_mean(self, piecewise_data):
        X, y = piecewise_data
        m = cart(X, y, max_depth=0)
        assert np.allclose(m.predict(X), y.mean())
        assert m.depth() == 0
        assert m.n_leaves() == 1

    def test_depth_bounded(self, piecewise_data):
        X, y = piecewise_data
        m = cart(X, y, max_depth=3)
        assert m.depth() <= 3

    def test_min_sse_decrease_stops_splitting_noise(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 3))
        y = rng.normal(size=200)  # pure noise
        big_gate = cart(X, y, min_sse_decrease=1e9)
        assert big_gate.n_leaves() == 1

    def test_interpolates_training_data_when_unconstrained(self):
        X = np.arange(8.0).reshape(-1, 1)
        y = np.array([1.0, 5.0, 2.0, 8.0, 3.0, 9.0, 0.0, 4.0])
        m = cart(X, y, max_depth=10, min_samples_split=2, min_samples_leaf=1)
        assert np.allclose(m.predict(X), y)

    def test_introspection_before_fit(self):
        with pytest.raises(RuntimeError):
            REPTree().depth()

    def test_invalid_params(self, piecewise_data):
        X, y = piecewise_data
        with pytest.raises(ValueError):
            cart(X, y, max_depth=-1)
        with pytest.raises(ValueError):
            cart(X, y, min_samples_leaf=0)
        with pytest.raises(ValueError):
            cart(X, y, min_samples_split=1)

    def test_vectorised_predict_matches_manual_walk(self, piecewise_data):
        X, y = piecewise_data
        root = build_tree(
            X, y, max_depth=5, min_samples_split=4,
            min_samples_leaf=2, min_sse_decrease=0.0,
        )

        def walk(node, row):
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            return node.value

        pred = tree_predict(root, X[:25])
        manual = np.array([walk(root, r) for r in X[:25]])
        assert np.array_equal(pred, manual)


def _internal_nodes(root):
    stack, out = [root], []
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            out.append(node)
            stack += [node.left, node.right]
    return out


def _walk_corpus():
    """Training data whose root splits feature 0 at exactly 0.0."""
    rng = np.random.default_rng(30)
    X = rng.integers(-4, 5, size=(300, 4)).astype(float)
    X[:, 0] = rng.choice([-1.0, 1.0], size=300)
    y = 10.0 * (X[:, 0] > 0) + X[:, 1] - 0.5 * X[:, 2] + rng.normal(0, 0.3, 300)
    return X, y


def _query_rows(root, n, seed):
    """``n`` rows: one on every split threshold, then +-0.0 on feature 0,
    then uniform draws."""
    rng = np.random.default_rng(seed)
    special = []
    for node in _internal_nodes(root):
        row = rng.uniform(-5, 5, size=4)
        row[node.feature] = node.threshold
        special.append(row)
    row = rng.uniform(-5, 5, size=4)
    for zero in (0.0, -0.0):
        special.append(np.concatenate([[zero], row[1:]]))
    fill = rng.uniform(-5, 5, size=(max(n - len(special), 0), 4))
    return np.vstack([np.array(special), fill])[:n]


def _both_walks(monkeypatch, predict, X):
    """``predict(X)`` on the row walk and on the masked walk."""
    with monkeypatch.context() as m:
        m.setattr(tree_module, "ROW_WALK_MAX_ROWS", X.shape[0] + 1)
        walked = predict(X)
        m.setattr(tree_module, "ROW_WALK_MAX_ROWS", 0)
        masked = predict(X)
    return walked, masked


def _assert_same(walked, masked):
    assert walked.dtype == masked.dtype == np.float64
    assert np.array_equal(walked, masked)
    assert walked.tobytes() == masked.tobytes()


class TestRowWalk:
    """The small-batch row walk and the masked walk agree bit for bit."""

    MODELS = {
        "regression-tree": lambda X, y: cart(
            X, y, max_depth=10, min_samples_split=2, min_samples_leaf=1
        ),
        "rep-tree": lambda X, y: REPTree(seed=3).fit(X, y),
    }

    @pytest.fixture(scope="class", params=sorted(MODELS))
    def model(self, request):
        return self.MODELS[request.param](*_walk_corpus())

    def test_corpus_splits_at_signed_zero(self, model):
        assert any(
            n.feature == 0 and n.threshold == 0.0
            for n in _internal_nodes(model.root_)
        )

    @pytest.mark.parametrize(
        "n", [0, 1, ROW_WALK_MAX_ROWS, ROW_WALK_MAX_ROWS + 1, 10_000]
    )
    def test_batch_sizes(self, monkeypatch, model, n):
        X = _query_rows(model.root_, n, seed=n)
        assert X.shape == (n, 4)
        walked, masked = _both_walks(monkeypatch, model.predict, X)
        assert walked.shape == (n,)
        _assert_same(walked, masked)

    def test_threshold_and_signed_zero_rows(self, monkeypatch, model):
        root = model.root_
        X = _query_rows(root, len(_internal_nodes(root)) + 2, seed=1)
        walked, masked = _both_walks(
            monkeypatch, lambda rows: tree_predict(root, rows), X
        )
        _assert_same(walked, masked)
        # the last two rows differ only in the sign of feature 0's zero,
        # and both go left of the 0.0 split
        assert np.signbit(X[-2:, 0]).tolist() == [False, True]
        assert walked[-2] == walked[-1]

    @pytest.mark.parametrize("max_depth", [0, 1])
    def test_stump(self, monkeypatch, max_depth):
        X, y = _walk_corpus()
        m = cart(X, y, max_depth=max_depth)
        assert m.depth() == max_depth
        walked, masked = _both_walks(
            monkeypatch, m.predict, _query_rows(m.root_, 40, seed=2)
        )
        _assert_same(walked, masked)
        assert np.unique(walked).size == 2**max_depth


class TestREPTree:
    def test_pruning_reduces_leaves_on_noise(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(300, 5))
        y = np.where(X[:, 0] > 0, 5.0, -5.0) + rng.normal(0, 2.0, 300)
        unpruned = cart(X, y)
        pruned = REPTree(seed=3).fit(X, y)
        assert pruned.n_leaves() < unpruned.n_leaves()
        assert pruned.pruned_leaves_ > 0

    def test_pruned_tree_generalises_at_least_as_well(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(400, 5))
        y = np.where(X[:, 0] > 0, 5.0, -5.0) + rng.normal(0, 2.0, 400)
        X_test = rng.normal(size=(200, 5))
        y_test = np.where(X_test[:, 0] > 0, 5.0, -5.0)
        unpruned = cart(X, y)
        pruned = REPTree(seed=4).fit(X, y)
        err_u = np.mean((y_test - unpruned.predict(X_test)) ** 2)
        err_p = np.mean((y_test - pruned.predict(X_test)) ** 2)
        assert err_p <= err_u * 1.1  # pruning never much worse, usually better

    def test_still_fits_signal(self, piecewise_data):
        X, y = piecewise_data
        m = REPTree(seed=0).fit(X, y)
        assert np.std(y - m.predict(X)) < 1.0

    def test_deterministic_given_seed(self, piecewise_data):
        X, y = piecewise_data
        p1 = REPTree(seed=9).fit(X, y).predict(X)
        p2 = REPTree(seed=9).fit(X, y).predict(X)
        assert np.array_equal(p1, p2)

    def test_prune_fraction_validated(self, piecewise_data, monkeypatch):
        X, y = piecewise_data
        for bad in (1.0, -0.1):
            monkeypatch.setattr(reptree, "PRUNE_FRACTION", bad)
            with pytest.raises(ValueError):
                REPTree().fit(X, y)

    def test_tiny_dataset_skips_pruning(self):
        X = np.arange(4.0).reshape(-1, 1)
        y = np.arange(4.0)
        m = REPTree().fit(X, y)  # n - n_prune < 2 * MIN_SAMPLES_LEAF
        assert m.is_fitted


class TestM5P:
    def test_beats_plain_tree_on_smooth_function(self, m5p_constants):
        rng = np.random.default_rng(5)
        X = rng.uniform(-2, 2, size=(400, 2))
        # piecewise-LINEAR target: exactly M5P's sweet spot
        y = np.where(X[:, 0] > 0, 3.0 * X[:, 1] + 5.0, -2.0 * X[:, 1])
        X_test = rng.uniform(-2, 2, size=(200, 2))
        y_test = np.where(X_test[:, 0] > 0, 3.0 * X_test[:, 1] + 5.0, -2.0 * X_test[:, 1])
        m5p_constants(max_depth=4)
        m5 = M5PModelTree().fit(X, y)
        tree = cart(X, y, max_depth=4)
        err_m5 = np.mean((y_test - m5.predict(X_test)) ** 2)
        err_cart = np.mean((y_test - tree.predict(X_test)) ** 2)
        assert err_m5 < err_cart

    def test_reduces_to_linear_model_on_linear_data(self, linear_data):
        X, y = linear_data
        m = M5PModelTree().fit(X, y)
        # pruning should collapse to (nearly) a single linear model
        assert np.std(y - m.predict(X)) < 0.6

    def test_smoothing_zero_allowed(self, piecewise_data, m5p_constants):
        X, y = piecewise_data
        m5p_constants(smoothing=0.0)
        m = M5PModelTree().fit(X, y)
        assert np.isfinite(m.predict(X)).all()

    def test_no_prune_keeps_more_leaves(self):
        """The tree M5P grows before its pruning pass has at least as many
        leaves as the model tree it keeps."""
        rng = np.random.default_rng(6)
        X = rng.normal(size=(300, 4))
        y = rng.normal(size=300)
        pruned = M5PModelTree().fit(X, y)
        unpruned = build_tree(
            X, y, max_depth=m5p.MAX_DEPTH, min_samples_split=m5p.MIN_SAMPLES_SPLIT,
            min_samples_leaf=m5p.MIN_SAMPLES_LEAF, min_sse_decrease=0.0,
        )
        assert pruned.n_leaves() <= unpruned.count_leaves()

    def test_invalid_params(self, piecewise_data, m5p_constants):
        X, y = piecewise_data
        m5p_constants(smoothing=-1.0)
        with pytest.raises(ValueError):
            M5PModelTree().fit(X, y)
        m5p_constants(smoothing=m5p.SMOOTHING, ridge=-1.0)
        with pytest.raises(ValueError):
            M5PModelTree().fit(X, y)

    def test_introspection_before_fit(self):
        with pytest.raises(RuntimeError):
            M5PModelTree().n_leaves()
