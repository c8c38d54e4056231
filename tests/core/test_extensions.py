"""Tests for the gamma-routing extension of Eq. (2)."""

import numpy as np
import pytest

from repro.core import SensibleRoutingPolicy, get_policy


class TestGammaSensibleRouting:
    def test_gamma_one_is_paper_equation_two(self):
        p1 = SensibleRoutingPolicy(min_fraction=0.0)
        pg = SensibleRoutingPolicy(gamma=1.0, min_fraction=0.0)
        prev = np.array([0.5, 0.5])
        rmttf = np.array([300.0, 100.0])
        assert np.allclose(
            p1.compute(prev, rmttf, 1.0), pg.compute(prev, rmttf, 1.0)
        )

    def test_higher_gamma_more_aggressive(self):
        prev = np.array([0.5, 0.5])
        rmttf = np.array([300.0, 100.0])
        f1 = SensibleRoutingPolicy(gamma=1.0, min_fraction=0.0).compute(
            prev, rmttf, 1.0
        )
        f2 = SensibleRoutingPolicy(gamma=2.0, min_fraction=0.0).compute(
            prev, rmttf, 1.0
        )
        assert f2[0] > f1[0]  # healthy region gets even more

    def test_gamma_two_quadratic_weights(self):
        prev = np.array([0.5, 0.5])
        rmttf = np.array([300.0, 100.0])
        f = SensibleRoutingPolicy(gamma=2.0, min_fraction=0.0).compute(
            prev, rmttf, 1.0
        )
        assert f[0] == pytest.approx(9.0 / 10.0)

    def test_registry_passes_gamma(self):
        p = get_policy("sensible-routing", gamma=0.5)
        assert isinstance(p, SensibleRoutingPolicy)
        assert p.gamma == 0.5

    def test_gamma_validated(self):
        with pytest.raises(ValueError):
            SensibleRoutingPolicy(gamma=0.0)

    def test_gamma_fixed_point_theory(self):
        """On the C/(f*lam) model the fixed point is RMTTF ~ C^(1/(1+g)):
        larger gamma narrows the steady RMTTF gap (but never closes it)."""

        def steady_spread(gamma):
            # NOTE: the *undamped* iteration f <- policy(f) is a period-2
            # oscillator (which is precisely the oscillation the paper
            # observes for Policy 1); damping the update exposes the
            # underlying fixed point, like the EWMA of Eq. (1) does in
            # the real loop.
            policy = SensibleRoutingPolicy(gamma=gamma, min_fraction=1e-3)
            capacity = np.array([300.0, 100.0])
            lam = 20.0
            f = np.full(2, 0.5)
            for _ in range(400):
                rmttf = capacity / (f * lam)
                f = 0.7 * f + 0.3 * policy.compute(f, rmttf, lam)
                f = f / f.sum()
            rmttf = capacity / (f * lam)
            return (rmttf.max() - rmttf.min()) / rmttf.mean()

        s_half, s_one, s_two = (
            steady_spread(0.5), steady_spread(1.0), steady_spread(2.0)
        )
        assert s_half > s_one > s_two > 0.1
        # quantitative: RMTTF ratio should approach (C1/C2)^(1/(1+g))
        ratio_predicted = 3.0 ** (1.0 / 2.0)  # gamma=1
        spread_predicted = (
            2 * (ratio_predicted - 1.0) / (ratio_predicted + 1.0)
        )
        assert s_one == pytest.approx(spread_predicted, rel=0.1)
