"""Tests for the pluggable rejuvenation disciplines."""

import numpy as np
import pytest

import repro.pcam.predictor as predictor_module
from repro.pcam import (
    NoRejuvenation,
    OracleRttfPredictor,
    PeriodicRejuvenation,
    RttfThresholdRejuvenation,
    TrainedRttfPredictor,
    TrendAwareRttfPredictor,
    VirtualMachineController,
    VmcConfig,
    VmState,
)

from .conftest import build_vm
from repro.sim import RngRegistry


@pytest.fixture
def rngs():
    return RngRegistry(seed=17)


def make_vmc(rngs, discipline=None, n_vms=6, target=4):
    vms = [build_vm(rngs, name=f"rj/vm{i}") for i in range(n_vms)]
    return VirtualMachineController(
        "rj",
        vms,
        OracleRttfPredictor(),
        VmcConfig(target_active=target, rttf_threshold_s=240.0),
        discipline=discipline,
    )


def at_risk(discipline, rttf, uptime):
    """``discipline.at_risk`` over plain lists, as lists."""
    pos, urgency = discipline.at_risk(
        np.array(rttf, dtype=float), np.array(uptime, dtype=float)
    )
    assert len(pos) == len(urgency)
    return pos.tolist(), urgency.tolist()


class TestThresholdDiscipline:
    def test_triggers_below_threshold(self):
        d = RttfThresholdRejuvenation(threshold_s=100.0)
        assert at_risk(d, [99.0, 101.0, 100.0], [0.0] * 3)[0] == [0]

    def test_urgency_orders_by_rttf(self):
        d = RttfThresholdRejuvenation()
        assert at_risk(d, [100.0, 10.0], [5.0, 900.0]) == ([0, 1], [100.0, 10.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            RttfThresholdRejuvenation(threshold_s=-1.0)

    def test_is_the_vmc_default(self, rngs):
        vmc = make_vmc(rngs)
        assert isinstance(vmc.discipline, RttfThresholdRejuvenation)
        assert vmc.discipline.threshold_s == 240.0


class TestPeriodicDiscipline:
    def test_triggers_on_uptime(self):
        d = PeriodicRejuvenation(period_s=600.0)
        assert at_risk(d, [1e9, 1e9], [599.0, 600.0])[0] == [1]

    def test_ignores_prediction(self):
        d = PeriodicRejuvenation(period_s=600.0)
        assert at_risk(d, [0.001], [10.0]) == ([], [])

    def test_urgency_prefers_oldest(self):
        d = PeriodicRejuvenation(period_s=600.0)
        pos, urgency = at_risk(d, [0.0, 0.0], [650.0, 900.0])
        assert pos == [0, 1]
        assert urgency[1] < urgency[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicRejuvenation(period_s=0.0)


class TestNoRejuvenation:
    def test_never_triggers(self):
        assert at_risk(NoRejuvenation(), [0.0, -1.0], [1e9, 0.0]) == ([], [])


class TestDisciplineComparison:
    """The motivating result: predictive beats periodic beats nothing."""

    def run_discipline(self, rngs, discipline, eras=120, requests=600):
        vmc = make_vmc(rngs, discipline=discipline)
        for era in range(eras):
            vmc.process_era(requests, 30.0, era * 30.0)
        return vmc

    def test_no_rejuvenation_causes_failures(self, rngs):
        vmc = self.run_discipline(rngs, NoRejuvenation())
        assert vmc.total_failures > 0

    def test_predictive_prevents_failures(self, rngs):
        vmc = self.run_discipline(rngs, RttfThresholdRejuvenation(240.0))
        assert vmc.total_failures == 0

    def test_well_tuned_periodic_also_avoids_failures(self, rngs):
        # a period shorter than the true MTTF avoids failures -- but only
        # because we used oracle knowledge of the MTTF to pick it
        periodic = self.run_discipline(rngs, PeriodicRejuvenation(300.0))
        assert periodic.total_failures <= 2

    def test_mistuned_long_period_fails(self, rngs):
        # period far beyond the true MTTF at this load: VMs crash first
        vmc = self.run_discipline(rngs, PeriodicRejuvenation(5000.0))
        assert vmc.total_failures > 0

    def test_mistuned_short_period_churns_restarts(self, rngs):
        # period far below the MTTF: the pool lives in restart churn,
        # paying many times the predictive discipline's rejuvenations.
        # A deep standby pool (5 spares) is needed to expose this: the
        # paired-swap rule otherwise caps the churn rate.
        def run(discipline):
            vmc = make_vmc(rngs, discipline=discipline, n_vms=8, target=3)
            for era in range(120):
                vmc.process_era(450, 30.0, era * 30.0)
            return vmc

        predictive = run(RttfThresholdRejuvenation(240.0))
        churny = run(PeriodicRejuvenation(60.0))
        assert churny.total_rejuvenations > 2 * predictive.total_rejuvenations

    def test_periodic_tuning_is_load_sensitive_predictive_adapts(self, rngs):
        """The same 300 s period that was safe at 600 req/era collapses to
        purely reactive recovery at 1600 req/era, while the predictive
        discipline still front-runs a majority of failures."""
        periodic = self.run_discipline(
            rngs, PeriodicRejuvenation(300.0), requests=1600
        )
        predictive = self.run_discipline(
            rngs, RttfThresholdRejuvenation(240.0), requests=1600
        )
        # periodic: essentially every rejuvenation is after a crash
        assert periodic.total_failures >= periodic.total_rejuvenations * 0.9
        # predictive: a meaningful share of swaps happen before the crash
        proactive = predictive.total_rejuvenations - predictive.total_failures
        assert proactive > 0.2 * predictive.total_rejuvenations


NAN, INF = float("nan"), float("inf")


def floored(cls, floor_s):
    """Builds ``cls`` with :data:`FLOOR_S` patched to ``floor_s``."""
    def build():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(predictor_module, "FLOOR_S", floor_s)
            return cls(object())
    return build


@pytest.mark.parametrize(
    "build",
    [
        lambda: RttfThresholdRejuvenation(NAN),
        lambda: RttfThresholdRejuvenation(-INF),
        lambda: PeriodicRejuvenation(NAN),
        lambda: PeriodicRejuvenation(INF),
        lambda: PeriodicRejuvenation(-INF),
        floored(TrainedRttfPredictor, NAN),
        floored(TrainedRttfPredictor, INF),
        floored(TrainedRttfPredictor, -INF),
        floored(TrendAwareRttfPredictor, NAN),
        floored(TrendAwareRttfPredictor, INF),
        floored(TrendAwareRttfPredictor, -INF),
        lambda: OracleRttfPredictor(noise_std=NAN),
        lambda: OracleRttfPredictor(
            noise_std=INF, rng=np.random.default_rng(0)
        ),
        lambda: OracleRttfPredictor(noise_std=-INF),
    ],
    ids=[
        "threshold-nan", "threshold-neg-inf",
        "period-nan", "period-inf", "period-neg-inf",
        "trained-floor-nan", "trained-floor-inf", "trained-floor-neg-inf",
        "trend-floor-nan", "trend-floor-inf", "trend-floor-neg-inf",
        "noise-nan", "noise-inf", "noise-neg-inf",
    ],
)
def test_non_finite_knob_refused(build):
    """A NaN knob would switch its plug point off silently: a NaN threshold
    or period never fires, a NaN floor makes every prediction NaN, a NaN
    noise level draws no noise.  An infinite period, floor or noise level
    is no setting either."""
    with pytest.raises(ValueError):
        build()


def test_infinite_threshold_rejuvenates_every_vm():
    d = RttfThresholdRejuvenation(INF)
    assert at_risk(d, [1e12, 0.0], [0.0, 0.0])[0] == [0, 1]
