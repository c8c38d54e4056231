"""Property-based tests (hypothesis) for the ML substrate invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.ml.reptree as reptree
from repro.ml import LinearRegression, REPTree
from repro.ml.lasso import soft_threshold
from repro.ml.validation import r2_score, root_mean_squared_error

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@given(v=finite, t=st.floats(min_value=0, max_value=1e6, allow_nan=False))
def test_soft_threshold_shrinks_toward_zero(v, t):
    out = soft_threshold(v, t)
    assert abs(out) <= abs(v)
    # never overshoots past zero
    assert out == 0.0 or np.sign(out) == np.sign(v)
    # shrinkage is exactly t when outside the dead zone
    if abs(v) > t:
        assert abs(out) == (abs(v) - t)


@given(
    y=arrays(np.float64, st.integers(2, 30), elements=finite),
)
def test_r2_of_mean_is_nonpositive_zero(y):
    pred = np.full(y.size, y.mean())
    r2 = r2_score(y, pred)
    assert r2 <= 1.0
    assert abs(r2) < 1e-8 or r2 == 1.0  # 1.0 when y constant


@given(
    y=arrays(np.float64, st.integers(1, 30), elements=finite),
    shift=finite,
)
def test_rmse_translation_invariance(y, shift):
    p = y + shift
    assert root_mean_squared_error(y, p) == np.abs(shift) or np.isclose(
        root_mean_squared_error(y, p), abs(shift), rtol=1e-9, atol=1e-9
    )


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(5, 40),
    seed=st.integers(0, 1000),
)
def test_tree_predictions_within_target_range(n, seed):
    """A regression tree predicts convex combinations of training targets."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = rng.uniform(-10, 10, size=n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reptree, "MAX_DEPTH", 6)
        patch.setattr(reptree, "PRUNE_FRACTION", 0.0)
        m = REPTree().fit(X, y)
    pred = m.predict(rng.normal(size=(50, 3)))
    assert pred.min() >= y.min() - 1e-9
    assert pred.max() <= y.max() + 1e-9


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 1000),
    a=st.floats(min_value=-5, max_value=5, allow_nan=False),
    b=st.floats(min_value=-5, max_value=5, allow_nan=False),
)
def test_ols_exact_on_noiseless_line(seed, a, b):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(20, 1))
    y = a * X[:, 0] + b
    m = LinearRegression().fit(X, y)
    assert np.allclose(m.predict(X), y, atol=1e-6)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000), scale=st.floats(0.1, 100.0))
def test_ols_prediction_scale_equivariance(seed, scale):
    """Scaling y scales OLS predictions by the same factor."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    p1 = LinearRegression().fit(X, y).predict(X)
    p2 = LinearRegression().fit(X, y * scale).predict(X)
    assert np.allclose(p2, p1 * scale, rtol=1e-6, atol=1e-6)
