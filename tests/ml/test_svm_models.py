"""Tests for linear SVR and kernel LS-SVM."""

import numpy as np
import pytest

import repro.ml.svr as svr
from repro.ml import LeastSquaresSVM, LinearSVR
from repro.ml.lssvm import rbf_kernel


@pytest.fixture
def svr_constants(monkeypatch):
    """Sets the SVR's module constants for one test: ``svr_constants(epsilon=0.1)``."""
    def patch(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(svr, name.upper(), value)
    return patch


class TestLinearSVR:
    def test_recovers_linear_signal(self, linear_data):
        X, y = linear_data
        m = LinearSVR(seed=0).fit(X, y)
        assert m.coef_[0] == pytest.approx(3.0, abs=0.4)
        assert m.coef_[3] == pytest.approx(-2.0, abs=0.4)
        resid = y - m.predict(X)
        assert np.std(resid) < 0.8

    def test_deterministic(self, linear_data):
        X, y = linear_data
        p1 = LinearSVR(seed=3).fit(X, y).predict(X)
        p2 = LinearSVR(seed=3).fit(X, y).predict(X)
        assert np.array_equal(p1, p2)

    def test_epsilon_tube_ignores_small_noise(self, svr_constants):
        rng = np.random.default_rng(0)
        X = np.linspace(0, 10, 200).reshape(-1, 1)
        y = 2.0 * X[:, 0] + rng.uniform(-0.05, 0.05, 200)
        svr_constants(epsilon=0.1)
        m = LinearSVR(seed=0).fit(X, y)
        assert m.coef_[0] == pytest.approx(2.0, abs=0.2)

    def test_scale_invariance_of_quality(self, linear_data):
        # y in "hours" vs "seconds" should fit equally well relative to scale
        X, y = linear_data
        m_small = LinearSVR(seed=0).fit(X, y)
        m_big = LinearSVR(seed=0).fit(X, y * 3600.0)
        rel_small = np.std(y - m_small.predict(X)) / np.std(y)
        rel_big = np.std(y * 3600 - m_big.predict(X)) / np.std(y * 3600)
        assert rel_big == pytest.approx(rel_small, abs=0.05)


    def test_invalid_params(self, linear_data):
        X, y = linear_data
        for name, bad in (("C", 0.0), ("EPSILON", -0.1), ("AVERAGE_LAST", 0.0)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(svr, name, bad)
                with pytest.raises(ValueError, match=name):
                    LinearSVR().fit(X, y)


class TestKernelMatrix:
    def test_rbf_diagonal_is_one(self):
        A = np.random.default_rng(0).normal(size=(5, 3))
        K = rbf_kernel(A, A, 0.5)
        assert np.allclose(np.diag(K), 1.0)
        assert np.all(K > 0) and np.all(K <= 1.0)

    def test_rbf_decays_with_distance(self):
        A = np.array([[0.0], [1.0], [10.0]])
        K = rbf_kernel(A, A, 1.0)
        assert K[0, 1] > K[0, 2]


class TestLeastSquaresSVM:
    def test_fits_nonlinear_function(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-3, 3, size=(300, 1))
        y = np.sin(X[:, 0]) * 5.0 + rng.normal(0, 0.1, 300)
        m = LeastSquaresSVM(gamma=100.0).fit(X, y)
        resid = y - m.predict(X)
        assert np.std(resid) < 0.5

    def test_generalises_not_just_memorises(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-3, 3, size=(300, 1))
        y = np.sin(X[:, 0]) * 5.0
        m = LeastSquaresSVM(gamma=100.0).fit(X, y)
        X_test = rng.uniform(-3, 3, size=(100, 1))
        y_test = np.sin(X_test[:, 0]) * 5.0
        assert np.std(y_test - m.predict(X_test)) < 0.8

    def test_gamma_controls_fit_tightness(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-3, 3, size=(200, 1))
        y = np.sin(X[:, 0]) + rng.normal(0, 0.3, 200)
        loose = LeastSquaresSVM(gamma=0.01).fit(X, y)
        tight = LeastSquaresSVM(gamma=1000.0).fit(X, y)
        err_loose = np.mean((y - loose.predict(X)) ** 2)
        err_tight = np.mean((y - tight.predict(X)) ** 2)
        assert err_tight < err_loose

    def test_n_support_equals_train_size(self):
        X = np.random.default_rng(0).normal(size=(50, 2))
        y = X[:, 0]
        m = LeastSquaresSVM().fit(X, y)
        assert m.n_support_ == 50

    def test_n_support_before_fit(self):
        with pytest.raises(RuntimeError):
            _ = LeastSquaresSVM().n_support_

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LeastSquaresSVM(gamma=0.0)
