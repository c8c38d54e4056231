"""Acceptance tests for the resilience campaign suite (``repro chaos``)."""

import math

import pytest

from repro.chaos import ChaosEngine
from repro.cli import main
from repro.experiments.resilience import (
    CAMPAIGNS,
    MIN_CAMPAIGN_ERAS,
    recovery_bound_eras,
    report_campaign,
    run_campaign,
    run_campaign_suite,
)
from repro.sim.rng import derive_seed


class TestRegistry:
    def test_expected_campaigns_registered(self):
        assert set(CAMPAIGNS) == {
            "rolling-link-flaps",
            "message-loss",
            "leader-kill",
            "blackout-heal",
            "rack-blackout-flashcrowd",
            "az-partition",
            "partition",
            "crash-storm",
            "cooling",
            "predictor-corruption",
            "smoke",
        }

    def test_unknown_campaign_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign"):
            run_campaign("nope")
        with pytest.raises(ValueError, match="at least 4"):
            run_campaign("smoke", eras=2)


class TestSmoke:
    def test_smoke_recovers(self):
        result = run_campaign("smoke", seed=7)
        assert result.recovered
        assert result.message_stats["sent"] > 0
        assert result.message_stats["chaos_dropped"] > 0
        assert len(result.fault_log) == 4

    def test_report_renders(self):
        result = run_campaign("smoke", seed=7)
        text = report_campaign(result)
        assert "recovered: YES" in text
        assert "campaign : smoke" in text
        assert "MTTR" in text


class TestReplay:
    def test_seeded_campaign_replays_bit_identically(self):
        """Same campaign + same seed => same fault schedule, same
        degradation timeline, same message telemetry, same final mix."""
        a = run_campaign("leader-kill", eras=20, seed=11)
        b = run_campaign("leader-kill", eras=20, seed=11)
        assert a.fault_log == b.fault_log
        assert a.degradation == b.degradation
        assert a.leaders == b.leaders
        assert a.healthy == b.healthy
        assert a.message_stats == b.message_stats
        assert a.final_fractions == b.final_fractions

    def test_crash_storm_victims_follow_the_seed(self):
        """The seeded storms pick the same victims at the same seed and
        other victims at another."""

        def victims(seed):
            log = run_campaign("crash-storm", seed=seed).fault_log
            return [e.detail for e in log if e.kind == "crash_vms"]

        assert victims(11) == victims(11)
        assert victims(12) != victims(11)

    def test_different_seeds_differ(self):
        a = run_campaign("message-loss", eras=12, seed=11)
        b = run_campaign("message-loss", eras=12, seed=12)
        # the scripted schedule is seed-independent ...
        assert [e.kind for e in a.fault_log] == [
            e.kind for e in b.fault_log
        ]
        # ... but the stochastic loss pattern is not
        assert a.message_stats != b.message_stats


class TestSuite:
    def test_suite_cell_replays_as_one_campaign(self):
        """A suite cell's seed derives from the root as a sweep cell's
        does, and ``run_campaign`` at that seed replays the cell."""
        outcome = run_campaign_suite(seed=7, eras=MIN_CAMPAIGN_ERAS)
        assert [job.scenario for job in outcome.jobs] == list(CAMPAIGNS)
        job, payload = next(
            (job, payload)
            for job, payload in zip(outcome.jobs, outcome.payloads)
            if job.scenario == "smoke"
        )
        assert job.seed == derive_seed(7, "chaos/smoke/rep0")
        result = run_campaign("smoke", eras=MIN_CAMPAIGN_ERAS, seed=job.seed)
        assert payload["availability"] == result.availability
        assert payload["final_fractions"] == {
            k: float(v) for k, v in sorted(result.final_fractions.items())
        }


@pytest.mark.parametrize("name", list(CAMPAIGNS))
def test_every_send_is_acked_given_up_or_in_flight(name):
    """ROADMAP 14(a)'s conservation law for the channel, from a campaign
    report: ``sent == acked + gave_up + in_flight``."""
    stats = run_campaign(name, seed=7).message_stats
    assert stats["sent"] > 0
    assert stats["sent"] == (
        stats["acked"] + stats["gave_up"] + stats["in_flight"]
    )


class TestCampaignBehaviour:
    def test_rolling_flaps_are_fully_masked(self):
        """A full mesh reroutes around any single link failure."""
        result = run_campaign("rolling-link-flaps", eras=24, seed=7)
        assert result.availability == 1.0
        assert result.degraded_eras == 0
        assert any(e.kind == "fail_link" for e in result.fault_log)

    def test_message_loss_is_masked_by_retries(self):
        result = run_campaign("message-loss", seed=7)
        stats = result.message_stats
        assert stats["chaos_dropped"] > 0
        assert stats["retries"] > 0
        assert stats["acked"] > 0.8 * stats["sent"]
        assert result.degraded_eras <= 3
        assert result.recovered

    def test_leader_kill_recovers_within_documented_bound(self):
        """After the leader dies (under 30% loss), the surviving regions
        re-elect and resume normal planning within the detector bound."""
        result = run_campaign("leader-kill", seed=7)
        kill_era = next(
            era
            for era, kinds in result.era_faults.items()
            if "crash_node" in kinds
        )
        bound = recovery_bound_eras(era_s=result.era_s)
        window = range(kill_era + 1, kill_era + 1 + bound)
        assert any(
            result.views_agree[e]
            and result.degradation[e] == "normal"
            for e in window
        ), (
            f"control plane did not re-converge within {bound} eras: "
            f"agree={[result.views_agree[e] for e in window]} "
            f"modes={[result.degradation[e] for e in window]}"
        )
        # leadership moved off the dead node and the run ends recovered
        assert result.leaders[kill_era + 1] != "region1"
        assert result.recovered
        # fractions stay a valid mix throughout the outage
        assert sum(result.final_fractions.values()) == pytest.approx(1.0)

    def test_blackout_heal_reports_unavailability_and_mttr(self):
        result = run_campaign("blackout-heal", seed=7)
        assert result.unavailability_windows
        assert result.unavailable_eras > 0
        assert math.isfinite(result.mttr_s) and result.mttr_s > 0
        assert result.recovered
        dark_era = next(
            era
            for era, kinds in result.era_faults.items()
            if "region_blackout" in kinds
        )
        assert not result.healthy[dark_era]


    def test_partition_reaches_the_fallback_rung(self):
        """Cut off from the leader's reports, the plan holds, then falls
        back to the static prior, and returns to normal after the heal."""
        result = run_campaign("partition", seed=7)
        (cut,) = [e for e, k in result.era_faults.items() if k == ("partition",)]
        (heal,) = [
            e for e, k in result.era_faults.items() if k == ("heal_partition",)
        ]
        during = result.degradation[cut:heal]
        assert "hold" in during and "fallback" in during
        assert during.index("hold") < during.index("fallback")
        assert result.degradation[-1] == "normal"
        assert result.recovered

    def test_crash_storms_keep_every_region_serving(self):
        result = run_campaign("crash-storm", seed=7)
        assert result.availability == 1.0
        assert result.domain_faults == {
            "region2": 1,
            "region1/az1": 1,
            "region1/az0/rack0": 1,
        }
        assert result.recovered

    def test_cooling_failure_is_marked_and_restored(self):
        result = run_campaign("cooling", seed=7)
        assert [e.kind for e in result.fault_log] == [
            "cooling_failure",
            "cooling_restore",
        ]
        assert result.domain_faults == {"region1/az0": 1}
        assert result.recovered

    def test_nan_predictions_walk_the_ladder_and_recover(self):
        result = run_campaign("predictor-corruption", seed=7)
        modes = [e.detail[0] for e in result.fault_log]
        assert {"nan", "stale", "zero", "off"} <= set(modes)
        assert "fallback" in result.degradation
        assert result.recovered


class TestEveryPrimitiveRuns:
    def test_every_public_primitive_runs_from_a_campaign(self, monkeypatch):
        """Each public ChaosEngine method is called by a registered
        campaign at its default eras (the reach gate cannot list the ones
        under its line floor), and every campaign recovers."""
        public = {
            name
            for name, value in vars(ChaosEngine).items()
            if callable(value) and not name.startswith("_")
        }
        called = set()

        def recorded(name, method):
            def call(self, *args, **kwargs):
                called.add(name)
                return method(self, *args, **kwargs)

            return call

        for name in public:
            monkeypatch.setattr(
                ChaosEngine, name, recorded(name, getattr(ChaosEngine, name))
            )
        for name in CAMPAIGNS:
            assert run_campaign(name, seed=7).recovered, name
        assert called == public, sorted(public - called)


class TestHierarchicalCampaigns:
    def test_rack_blackout_flashcrowd_reports_domains(self):
        result = run_campaign("rack-blackout-flashcrowd", seed=7)
        assert result.recovered
        kinds = [e.kind for e in result.fault_log]
        assert "flash_crowd" in kinds
        assert "crash_vms" in kinds
        assert "domain_heal" in kinds
        assert "flash_crowd_end" in kinds
        # per-domain availability covers the whole hierarchy
        assert result.domain_availability["region1"] == 1.0
        assert "region1/az0/rack0" in result.domain_availability
        assert result.domain_faults == {"region1/az0/rack0": 1}
        text = report_campaign(result)
        assert "domains  :" in text
        assert "anti-affinity" in text

    def test_az_partition_recovers_and_tracks_the_az(self):
        result = run_campaign("az-partition", seed=7)
        assert result.recovered
        kinds = [e.kind for e in result.fault_log]
        assert kinds.count("crash_vms") == 1
        assert kinds.count("domain_heal") == 1
        assert result.domain_faults == {"region2/az1": 1}
        # region-level service never dropped: the other AZ kept serving
        assert result.domain_availability["region2"] == 1.0

    def test_flat_campaigns_report_no_domains(self):
        result = run_campaign("smoke", seed=7)
        assert result.domain_availability == {}
        assert result.domain_faults == {}
        assert result.spread_deferrals == 0
        assert "domains  :" not in report_campaign(result)

    def test_hierarchical_campaign_replays_bit_identically(self):
        a = run_campaign("rack-blackout-flashcrowd", seed=13)
        b = run_campaign("rack-blackout-flashcrowd", seed=13)
        assert a.fault_log == b.fault_log
        assert a.healthy == b.healthy
        assert a.domain_availability == b.domain_availability
        assert a.domain_mttr_s == b.domain_mttr_s
        assert a.spread_deferrals == b.spread_deferrals
        assert a.final_fractions == b.final_fractions


class TestCli:
    def test_chaos_smoke_exit_code_and_output(self, capsys):
        assert main(["chaos", "smoke", "--eras", "8", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "campaign : smoke" in out
        assert "recovered: YES" in out

    def test_chaos_list(self, capsys):
        assert main(["chaos", "list"]) == 0
        out = capsys.readouterr().out
        for name in CAMPAIGNS:
            assert name in out
