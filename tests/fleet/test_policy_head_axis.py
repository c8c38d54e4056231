"""The ``policy_head`` sweep axis: digest stability and aggregation.

The contract mirrors the domains axis: adding the axis to a
spec must never perturb the names, seeds, or store digests of the
head-less cells, and a job's config carries ``policy_head`` only when
one is set.
"""

import pytest

from repro.fleet.aggregate import cell_key
from repro.fleet.axes import head_label
from repro.fleet.jobs import JobSpec, parse_scenario_key
from repro.fleet.spec import SweepSpec


def _job(**overrides):
    kwargs = dict(
        kind="policy",
        scenario="two-region",
        policy="uniform",
        load=1.0,
        seed=1,
        replicate=0,
        eras=12,
    )
    kwargs.update(overrides)
    return JobSpec(**kwargs)


def _spec(**overrides):
    kwargs = dict(
        scenarios=("two-region",),
        policies=("uniform",),
        loads=(1.0,),
        replicates=2,
        eras=12,
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestDigestStability:
    def test_headless_cells_unchanged_by_adding_the_axis(self):
        before = {j.label: j for j in _spec().expand()}
        spec = _spec(policy_heads=("", "static:sensible-routing"))
        after = {j.label: j for j in spec.expand()}
        assert set(before) < set(after)
        for label, job in before.items():
            twin = after[label]
            assert twin.seed == job.seed
            assert twin.digest == job.digest
            assert "head:" not in label

    def test_config_key_only_when_head_set(self):
        plain = _job()
        headed = _job(policy_head="static:uniform")
        assert "policy_head" not in plain.config()
        assert headed.config()["policy_head"] == "static:uniform"
        assert plain.digest != headed.digest
        # round trip through the store's config document
        assert JobSpec.from_config(headed.config()) == headed

    def test_spec_config_key_only_when_non_default(self):
        assert "policy_heads" not in _spec().config()
        spec = _spec(policy_heads=("", "static:uniform"))
        assert spec.config()["policy_heads"] == ["", "static:uniform"]

    def test_cell_names_and_counts(self):
        spec = _spec(policy_heads=("", "static:uniform"))
        assert spec.cell_count == 2
        assert spec.job_count == 4
        labels = [j.label for j in spec.expand()]
        assert (
            "policy/two-region/uniform/load1/head:static:uniform/rep0"
            in labels
        )

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="policy_heads"):
            _spec(policy_heads=())


class TestAggregation:
    def test_cell_key_separates_heads(self):
        plain = _job()
        headed = _job(seed=2, policy_head="static:uniform")
        assert cell_key(plain) != cell_key(headed)
        assert cell_key(headed)[-2] == "static:uniform"
        assert len(cell_key(plain)) == 7


class TestHeadLabel:
    def test_forms(self):
        assert head_label("") == ""
        assert head_label("static:uniform") == "static:uniform"
        assert (
            head_label("frozen:/deep/dir/head-abc.json")
            == "frozen:head-abc.json"
        )
        assert head_label("/deep/dir/head-abc.json") == "head-abc.json"


class TestScenarioKey:
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
