"""Forced-model training does only the work its result depends on.

``F2PMToolchain.train_best(model_name=X)`` fits ``X`` once and
cross-validates it, on the first read of its report, on the folds
:meth:`~repro.ml.toolchain.F2PMToolchain.compare` would have given it.
A figure's policy runs share one training, while every call of
``make_trained_predictor`` trains.  ``select_features`` stops walking the
Lasso path once enough names have entered, ``best_split`` scores every
feature in one pass, and SciPy loads on the first LS-SVM fit.  Each test
here binds one of those shortcuts to the result of the full computation,
bit for bit.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.experiments.runner import make_trained_predictor
from repro.experiments.scenarios import three_region_scenario
from repro.ml import Dataset, LinearRegression
from repro.ml import toolchain as toolchain_module
from repro.ml.features import FEATURE_NAMES
from repro.ml.lasso import _lazy_path, select_features
from repro.ml.toolchain import DEFAULT_SUITE, F2PMToolchain
from repro.ml.tree import best_split

from .reference_split import reference_best_split


@pytest.fixture(scope="module")
def dataset():
    """A nonlinear RTTF-like target over the full feature schema."""
    rng = np.random.default_rng(7)
    n = 240
    X = rng.normal(size=(n, len(FEATURE_NAMES)))
    y = (
        400.0
        + 80.0 * np.tanh(X[:, 0])
        - 30.0 * X[:, 3]
        + np.where(X[:, 5] > 0.3, 60.0, 0.0)
        + rng.normal(0, 5.0, n)
    )
    return Dataset(X, y, FEATURE_NAMES)


@pytest.fixture(scope="module")
def toolchain():
    return F2PMToolchain(max_features=8, cv_folds=3)


@pytest.fixture(scope="module")
def full_comparison(dataset, toolchain):
    rng = np.random.default_rng(0)
    comparison = toolchain.compare(dataset, rng)
    return comparison, rng.bit_generator.state


class TestForcedMemberMatchesCompare:
    @pytest.mark.parametrize("name", list(DEFAULT_SUITE))
    def test_report_and_features_equal_compare(
        self, dataset, toolchain, full_comparison, name
    ):
        comparison, state_after = full_comparison
        rng = np.random.default_rng(0)
        trained = toolchain.train_best(dataset, rng, model_name=name)
        assert trained.report == comparison.reports[name]
        assert trained.feature_names == comparison.selected_features
        # every member drew its folds, so the caller's stream ends where
        # compare() leaves it
        assert rng.bit_generator.state == state_after

    def test_unforced_still_ranks_the_whole_suite(
        self, dataset, toolchain, full_comparison
    ):
        comparison, _ = full_comparison
        trained = toolchain.train_best(dataset, np.random.default_rng(0))
        assert trained.name == comparison.best_name
        assert trained.report == comparison.reports[comparison.best_name]


def _spy_suite(calls: list[str]) -> dict:
    def spy(name):
        def factory():
            calls.append(name)
            return LinearRegression()

        return factory

    return {name: spy(name) for name in ("a", "b", "c")}


class TestForcedMemberWork:
    def test_only_the_forced_member_is_built(self, dataset):
        calls: list[str] = []
        tc = F2PMToolchain(suite=_spy_suite(calls), cv_folds=3)
        trained = tc.train_best(
            dataset, np.random.default_rng(0), model_name="b"
        )
        assert trained.name == "b"
        assert calls == ["b"]  # the deployed fit, nothing else
        trained.report
        assert calls == ["b"] * 4  # then three folds, on the first read
        trained.report
        assert calls == ["b"] * 4

    @pytest.mark.parametrize("read_first", [False, True])
    def test_survives_copy_and_pickle(
        self, dataset, toolchain, full_comparison, read_first
    ):
        """With its report pending or read, a forced model copies and
        pickles to the same predictions and report."""
        comparison, _ = full_comparison
        trained = toolchain.train_best(
            dataset, np.random.default_rng(0), model_name="rep-tree"
        )
        if read_first:
            trained.report
        expected = trained.predict(dataset.X)
        for twin in (
            copy.deepcopy(trained),
            pickle.loads(pickle.dumps(trained)),
        ):
            assert np.array_equal(twin.predict(dataset.X), expected)
            assert twin.report == comparison.reports["rep-tree"]

    def test_unknown_model_fails_before_any_work(self, dataset, monkeypatch):
        calls: list[str] = []
        selections: list[int] = []

        def spy_select(*args, **kwargs):
            selections.append(1)
            return list(dataset.feature_names)

        monkeypatch.setattr(toolchain_module, "select_features", spy_select)
        tc = F2PMToolchain(suite=_spy_suite(calls), cv_folds=3)
        with pytest.raises(KeyError, match="bogus"):
            tc.train_best(dataset, np.random.default_rng(0), model_name="bogus")
        assert calls == []
        assert selections == []

    def test_unknown_model_through_the_runner(self):
        with pytest.raises(KeyError, match="bogus"):
            make_trained_predictor(["m3.medium"], seed=5, model_name="bogus")


def _entry_order(coefs: np.ndarray, names: list[str], limit: int) -> list[str]:
    """Names in the order they first go non-zero along a full path."""
    selected: list[str] = []
    for row in coefs:
        for j in np.flatnonzero(row != 0.0):
            if names[j] not in selected and len(selected) < limit:
                selected.append(names[j])
    return selected


class TestLazyLassoPath:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_early_exit_equals_full_path(self, seed):
        rng = np.random.default_rng(seed)
        n, d = 120, 10
        X = rng.normal(size=(n, d))
        X[:, 4] = X[:, 1] + rng.normal(0, 0.05, n)  # a correlated pair
        y = X @ (rng.normal(size=d) * np.arange(d)) + rng.normal(0, 0.5, n)
        names = [f"f{j}" for j in range(d)]
        _, rows = _lazy_path(X, y, n_alphas=50, alpha_min_ratio=1e-3)
        coefs = np.stack(list(rows))
        for max_features in (1, 4, 8, None):
            limit = max_features if max_features is not None else d
            assert select_features(
                X, y, names, max_features=max_features
            ) == _entry_order(coefs, names, limit), max_features


class TestMaxFeaturesRefused:
    @pytest.mark.parametrize("bad", [0, -1])
    def test_select_features(self, bad):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 6))
        y = X[:, 0] + rng.normal(0, 0.1, 50)
        with pytest.raises(ValueError, match="max_features"):
            select_features(X, y, [f"f{j + 1}" for j in range(6)], max_features=bad)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_toolchain(self, bad):
        with pytest.raises(ValueError, match="max_features"):
            F2PMToolchain(max_features=bad)

    def test_none_keeps_full_schema(self, dataset):
        tc = F2PMToolchain(max_features=None, cv_folds=3)
        trained = tc.train_best(
            dataset, np.random.default_rng(0), model_name="linear-regression"
        )
        assert trained.feature_names == FEATURE_NAMES


def _split_corpus():
    """Seeded split problems covering every branch of the search."""
    rng = np.random.default_rng(2024)
    for case in range(40):
        n = int(rng.integers(5, 401))
        d = int(rng.integers(1, 9))
        msl = int(rng.choice([1, 2, 3, 5]))
        if case % 4 == 0:  # heavy ties in X and y
            X = rng.integers(0, 4, size=(n, d)).astype(float)
            y = rng.integers(0, 3, size=n).astype(float)
        else:
            X = rng.normal(size=(n, d))
            y = rng.normal(size=n) * 10.0 + X[:, 0]
        if case % 5 == 1 and d > 1:  # a constant column
            X[:, int(rng.integers(0, d))] = 3.0
        if case % 7 == 2 and d > 1:  # a duplicated column: exact SSE tie
            X[:, d - 1] = X[:, 0]
        yield X, y, msl
    # n == 2 * min_samples_leaf: one admissible split position
    for msl in (1, 2, 3, 8):
        X = rng.normal(size=(2 * msl, 3))
        yield X, rng.normal(size=2 * msl), msl
    # a column whose only value change sits inside the leaf margin
    X = rng.normal(size=(30, 3))
    X[:, 1] = np.r_[np.zeros(29), 1.0]
    yield X, rng.normal(size=30), 3
    # no feature has a valid split
    yield np.full((12, 4), 1.5), rng.normal(size=12), 1
    X = np.zeros((10, 2))
    X[-1] = 1.0
    yield X, rng.normal(size=10), 2


class TestVectorisedSplitSearch:
    def test_equals_per_feature_reference(self):
        cases = list(_split_corpus())
        nones = 0
        for X, y, msl in cases:
            got = best_split(X, y, msl)
            want = reference_best_split(X, y, msl)
            assert got == want, (X.shape, msl)
            if got is not None:
                assert type(got[0]) is int
                assert type(got[1]) is float and type(got[2]) is float
            nones += want is None
        assert 0 < nones < len(cases)


def _nodes(root) -> list[tuple]:
    """Pre-order ``(value, n_samples, sse, feature, threshold)`` of a tree."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        out.append(
            (node.value, node.n_samples, node.sse, node.feature, node.threshold)
        )
        if not node.is_leaf:
            stack.append(node.right)
            stack.append(node.left)
    return out


def _fingerprint(predictor) -> str:
    trained = predictor.model
    payload = repr(
        (_nodes(trained.model.root_), trained.feature_names, trained.report)
    )
    return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()


#: ``make_trained_predictor`` REP-Tree fingerprints, recorded from the
#: six-model compare-then-fit pipeline: (three-region types, two types).
PINNED = {
    5: ("da429481e394b04f", "dd7bf054c1b9ec46"),
    6: ("5d8ba6b7e2d510e5", "9405df390a2c1973"),
    7: ("e3a077c0149b096e", "31a795973e7ebb63"),
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_trained_predictor_fingerprints(seed):
    types = (three_region_scenario().instance_types(), ["m3.medium", "private.small"])
    got = tuple(_fingerprint(make_trained_predictor(t, seed=seed)) for t in types)
    assert got == PINNED[seed]


_IMPORT_PROBE = """
import json, sys
import numpy as np
import repro.experiments.runner, repro.fleet.executor
after_import = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
random_loaded = "numpy.random" in sys.modules
from repro.ml.lssvm import LeastSquaresSVM
model = LeastSquaresSVM()
after_construct = "scipy.linalg" in sys.modules
X = np.arange(12.0).reshape(6, 2)
model.fit(X, X.sum(axis=1))
print(json.dumps([after_import, random_loaded, after_construct,
                  "scipy.linalg" in sys.modules]))
"""


def test_scipy_loads_on_first_lssvm_fit_only():
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    after_import, random_loaded, after_construct, after_fit = json.loads(
        out.stdout.strip().splitlines()[-1]
    )
    assert after_import == []
    assert random_loaded  # loaded before a fleet executor forks
    assert not after_construct
    assert after_fit
