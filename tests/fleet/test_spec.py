"""SweepSpec expansion: grid shape, ordering, derived seeds, digests."""

import math

import pytest

from repro.fleet.jobs import JobSpec, execute_job, parse_scenario_key
from repro.fleet.spec import SweepSpec, listing
from repro.sim.rng import derive_seed


def small_spec(**overrides):
    base = dict(
        scenarios=("two-region", "three-region"),
        policies=("uniform", "available-resources"),
        loads=(0.5, 1.0),
        replicates=2,
        root_seed=11,
        eras=20,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestExpansion:
    def test_cartesian_count(self):
        spec = small_spec()
        jobs = spec.expand()
        assert len(jobs) == 2 * 2 * 2 * 2
        assert spec.job_count == len(jobs)
        assert spec.cell_count == 8

    def test_campaign_cells_appended(self):
        spec = small_spec(campaigns=("smoke",))
        jobs = spec.expand()
        chaos = [j for j in jobs if j.kind == "chaos"]
        assert len(chaos) == 2  # one campaign x two replicates
        # chaos cells come last, in replicate order
        assert jobs[-2:] == chaos
        assert chaos[0].scenario == "smoke"

    def test_order_is_deterministic_and_scenario_major(self):
        jobs1 = small_spec().expand()
        jobs2 = small_spec().expand()
        assert jobs1 == jobs2
        assert [j.scenario for j in jobs1[:8]] == ["two-region"] * 8
        assert [j.policy for j in jobs1[:4]] == ["uniform"] * 4

    def test_replicates_get_distinct_derived_seeds(self):
        jobs = small_spec().expand()
        seeds = [j.seed for j in jobs]
        assert len(set(seeds)) == len(seeds)
        expected = derive_seed(11, "two-region/uniform/load0.5/rep0")
        assert jobs[0].seed == expected

    def test_adding_an_axis_value_keeps_existing_seeds(self):
        """Cell names, not grid positions, feed the seed hash."""
        before = {j.label: j.seed for j in small_spec().expand()}
        after = {
            j.label: j.seed
            for j in small_spec(loads=(0.5, 1.0, 2.0)).expand()
        }
        for label, seed in before.items():
            assert after[label] == seed

    def test_digests_unique_and_stable(self):
        jobs = small_spec().expand()
        digests = [j.digest for j in jobs]
        assert len(set(digests)) == len(digests)
        assert digests == [j.digest for j in small_spec().expand()]

    def test_root_seed_changes_every_job_seed(self):
        a = [j.seed for j in small_spec().expand()]
        b = [j.seed for j in small_spec(root_seed=12).expand()]
        assert all(x != y for x, y in zip(a, b))


class TestDomainsAxis:
    def test_absent_axis_changes_nothing(self):
        """The default ("flat",) keeps names, seeds, and digests."""
        base = small_spec().expand()
        explicit = small_spec(domains=("flat",)).expand()
        assert base == explicit
        assert [j.digest for j in base] == [j.digest for j in explicit]
        assert all(j.domains == "flat" for j in base)
        assert "domains" not in small_spec().config()

    def test_flat_cells_keep_seeds_when_axis_added(self):
        before = {j.label: (j.seed, j.digest) for j in small_spec().expand()}
        after = {
            j.label: (j.seed, j.digest)
            for j in small_spec(domains=("flat", "2x2")).expand()
        }
        for label, ident in before.items():
            assert after[label] == ident

    def test_axis_multiplies_cells_and_labels_nonflat(self):
        spec = small_spec(domains=("flat", "2x2"))
        assert spec.cell_count == 16
        jobs = spec.expand()
        shaped = [j for j in jobs if j.domains == "2x2"]
        assert len(shaped) == len(jobs) // 2
        assert all("domains2x2" in j.label for j in shaped)
        assert all(j.config()["domains"] == "2x2" for j in shaped)

    def test_nonflat_job_round_trips(self):
        job = small_spec(domains=("2x2",)).expand()[0]
        assert JobSpec.from_config(job.config()) == job

    def test_garbage_shape_rejected(self):
        with pytest.raises(ValueError):
            small_spec(domains=("2x",))
        with pytest.raises(ValueError):
            small_spec(domains=())


class TestScenarioKey:
    """A scenario key may carry a ``+drift<factor>`` leak-rate suffix."""

    def test_bare_and_drifted(self):
        assert parse_scenario_key("three-region") == ("three-region", 1.0)
        assert parse_scenario_key("three-region+drift2.5") == (
            "three-region",
            2.5,
        )

    @pytest.mark.parametrize(
        "key", ["x+chaos", "x+drift", "x+driftzero", "x+drift0", "x+drift-1"]
    )
    def test_garbage_rejected(self, key):
        with pytest.raises(ValueError):
            parse_scenario_key(key)


class TestValidation:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            small_spec(scenarios=("mars-region",))

    def test_zero_replicates_rejected(self):
        with pytest.raises(ValueError, match="replicates"):
            small_spec(replicates=0)

    def test_nonpositive_load_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            small_spec(loads=(0.0,))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="zero jobs"):
            small_spec(scenarios=(), campaigns=())

    def test_too_few_eras_rejected(self):
        with pytest.raises(ValueError, match="eras"):
            small_spec(eras=5)

    @pytest.mark.parametrize(
        "overrides, match",
        [
            (dict(campaigns=("bogus",)), "unknown campaigns"),
            (dict(loads=(math.nan,)), "loads"),
            (dict(loads=(math.inf,)), "loads"),
            (dict(era_s=math.nan), "era_s"),
            (dict(era_s=0.0), "era_s"),
            (dict(campaigns=("smoke",), campaign_eras=1), "campaign_eras"),
            (dict(campaigns=("smoke",), campaign_eras=3), "campaign_eras"),
            (dict(campaign_eras=-1), "campaign_eras"),
            (dict(predictor="nosuch"), "unknown predictor"),
        ],
        ids=[
            "unknown-campaign", "nan-load", "inf-load", "nan-era",
            "zero-era", "one-campaign-era", "three-campaign-eras",
            "negative-campaign-eras", "unknown-predictor",
        ],
    )
    def test_bad_input_refused_when_built(self, overrides, match):
        """Each of these once expanded and failed only inside a worker,
        after a spawn and a retry."""
        with pytest.raises(ValueError, match=match):
            small_spec(**overrides)

    def test_unknown_job_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            JobSpec(
                kind="mystery",
                scenario="two-region",
                policy="uniform",
                load=1.0,
                seed=1,
                replicate=0,
                eras=20,
            )


class TestManifestAndListing:
    def test_manifest_digest_tracks_spec(self):
        m1 = small_spec().manifest()
        m2 = small_spec().manifest()
        m3 = small_spec(eras=30).manifest()
        assert m1.config_digest == m2.config_digest
        assert m1.config_digest != m3.config_digest
        assert m1.seed == 11
        assert m1.extra["jobs"] == 16

    def test_listing_covers_every_job(self):
        jobs = small_spec().expand()
        text = listing(jobs)
        for job in jobs:
            assert job.label in text
            assert job.digest in text

    def test_from_config_round_trip(self):
        job = small_spec().expand()[3]
        assert JobSpec.from_config(job.config()) == job


class TestClientSweep:
    def test_rmttf_falls_with_load(self):
        """Sec. VI-A's client sweep is the load axis on the Figure 3
        deployment: region 1's 160 clients at 0.2x and 0.8x are 32 and
        128 clients, and more clients age the VMs faster."""
        spec = SweepSpec(
            scenarios=("two-region",),
            policies=("available-resources",),
            loads=(0.2, 0.8),
            root_seed=3,
            eras=40,
        )
        low, high = (execute_job(job) for job in spec.expand())
        assert low["mean_rmttf_s"] > high["mean_rmttf_s"]
