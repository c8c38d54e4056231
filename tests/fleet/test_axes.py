"""The optional sweep axes, tested once for every row of ``AXES``.

Each per-axis check is parametrised over the table, so an axis added to
it is covered (and must supply samples below) without a new test file;
the Hypothesis property holds the digest rule over arbitrary subsets of
axes switched on at once.
"""

import csv
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.aggregate import (
    CellStats,
    aggregate,
    cell_key,
    write_cells_csv,
)
from repro.fleet.axes import ALL_OFF, AXES
from repro.fleet.jobs import JobSpec
from repro.fleet.spec import SweepSpec, listing
from repro.sim.rng import derive_seed
from repro.sim.tracing import read_csv_manifest

#: spec_field -> (on values, a value the validator rejects or None,
#: the label fragment of the first on value)
SAMPLES = {
    "domains": (("2x2", "3x1"), "2x", "domains2x2"),
    "slo": (("p95:0.5", "p95:0.5+dwell:120"), "p95:abc", "slo:p95:0.5"),
}

each_axis = pytest.mark.parametrize("axis", AXES, ids=lambda a: a.spec_field)


def _spec(**kw) -> SweepSpec:
    defaults = dict(
        scenarios=("two-region",),
        policies=("uniform",),
        loads=(1.0,),
        replicates=2,
        eras=12,
    )
    defaults.update(kw)
    return SweepSpec(**defaults)


def _job(**kw) -> JobSpec:
    defaults = dict(
        kind="policy",
        scenario="two-region",
        policy="uniform",
        load=1.0,
        seed=1,
        replicate=0,
        eras=12,
    )
    defaults.update(kw)
    return JobSpec(**defaults)


def _on(axis):
    return SAMPLES[axis.spec_field][0][0]


def _fragment(axis):
    return SAMPLES[axis.spec_field][2]


def _identity(jobs):
    return {j.label: (j.seed, j.digest) for j in jobs}


def test_every_axis_has_samples():
    assert set(SAMPLES) == {axis.spec_field for axis in AXES}
    assert [a.spec_field for a in AXES] == [
        "domains", "slo"
    ]  # order contract: append, never reorder


@each_axis
class TestEachAxis:
    def test_defaults_are_the_off_value(self, axis):
        assert getattr(_spec(), axis.spec_field) == (axis.off,)
        assert getattr(_job(), axis.job_field) == axis.off

    def test_off_cells_keep_name_seed_and_digest(self, axis):
        before = _identity(_spec().expand())
        after = _identity(
            _spec(**{axis.spec_field: (axis.off, _on(axis))}).expand()
        )
        assert set(before) < set(after)
        for label, identity in before.items():
            assert after[label] == identity

    def test_on_cells_get_the_fragment_and_distinct_seeds(self, axis):
        value = _on(axis)
        jobs = _spec(**{axis.spec_field: (axis.off, value)}).expand()
        on = [j for j in jobs if getattr(j, axis.job_field) == value]
        assert len(on) == len(jobs) // 2
        assert all(f"/{_fragment(axis)}/rep" in j.label for j in on)
        assert all(axis.tag not in j.label for j in jobs if j not in on)
        assert len({j.seed for j in jobs}) == len(jobs)

    def test_job_config_keyed_only_when_on(self, axis):
        value = _on(axis)
        on = _job(**{axis.job_field: value})
        assert axis.job_field not in _job().config()
        assert on.config()[axis.job_field] == value
        assert on.digest != _job().digest
        assert JobSpec.from_config(on.config()) == on
        assert JobSpec.from_config(_job().config()) == _job()

    def test_spec_config_keyed_only_when_used(self, axis):
        assert axis.spec_field not in _spec().config()
        values = (axis.off, _on(axis))
        used = _spec(**{axis.spec_field: values})
        assert used.config()[axis.spec_field] == list(values)
        assert (
            used.manifest().config_digest != _spec().manifest().config_digest
        )

    def test_unused_is_by_value_not_tuple_identity(self, axis):
        """A list-valued ``[off]`` is still the default grid."""
        listed = _spec(**{axis.spec_field: [axis.off]})
        assert axis.spec_field not in listed.config()
        assert (
            listed.manifest().config_digest
            == _spec().manifest().config_digest
        )
        assert listed.expand() == _spec().expand()

    def test_cell_count_multiplies(self, axis):
        values = (axis.off, *SAMPLES[axis.spec_field][0])
        spec = _spec(**{axis.spec_field: values})
        assert spec.cell_count == 3 * _spec().cell_count
        assert spec.job_count == len(spec.expand())

    def test_empty_axis_rejected(self, axis):
        with pytest.raises(ValueError, match=axis.spec_field):
            _spec(**{axis.spec_field: ()})

    def test_garbage_value_rejected(self, axis):
        garbage = SAMPLES[axis.spec_field][1]
        with pytest.raises(ValueError):
            _spec(**{axis.spec_field: (garbage,)})
        with pytest.raises(ValueError):
            _job(**{axis.job_field: garbage})

    def test_repeated_value_rejected(self, axis):
        with pytest.raises(ValueError, match="repeats"):
            _spec(**{axis.spec_field: (axis.off, axis.off)})
        with pytest.raises(ValueError, match="repeats"):
            _spec(**{axis.spec_field: (_on(axis), axis.off, _on(axis))})

    def test_cell_key_separates(self, axis):
        value = _on(axis)
        plain, on = _job(), _job(seed=2, **{axis.job_field: value})
        assert cell_key(plain) != cell_key(on)
        assert len(cell_key(plain)) == 4 + len(AXES)
        assert cell_key(on)[4 + AXES.index(axis)] == value
        assert cell_key(plain)[4:] == ALL_OFF

    def test_cell_label_carries_the_fragment(self, axis):
        value = _on(axis)
        plain, on = aggregate(
            [_job(), _job(seed=2, **{axis.job_field: value})],
            [{"mean_rmttf_s": 1.0}, {"mean_rmttf_s": 2.0}],
        )
        assert axis.tag not in plain.label
        assert on.label.endswith("/" + _fragment(axis))
        assert CellStats(
            kind="policy", scenario="two-region", policy="uniform",
            load=1.0, n=1,
        ).label == plain.label

    def test_cli_token_round_trip(self, axis):
        assert axis.parse(axis.off_token) == axis.off
        for value in SAMPLES[axis.spec_field][0]:
            assert axis.parse(str(value)) == value


def test_the_flat_deployment_has_one_spelling():
    """``with_domains("1x1")`` is the scenario unchanged; as an axis value
    it was a second cell name, seed and digest for the ``flat`` cell."""
    with pytest.raises(ValueError, match="'flat'"):
        _spec(domains=("flat", "1x1"))
    with pytest.raises(ValueError, match="'flat'"):
        _job(domains="1x1")


def test_cell_names_carry_the_raw_value_and_labels_the_display_form():
    """The seed hashes the cell name, which carries the value as typed;
    no axis shortens it for display, so the label shows the same."""
    raw = "p95:0.5+dwell:120"
    (job,) = _spec(replicates=1, slo=(raw,)).expand()
    assert job.label.endswith("/slo:p95:0.5+dwell:120/rep0")
    assert job.seed == derive_seed(
        7, "two-region/uniform/load1/slo:p95:0.5+dwell:120/rep0"
    )


class TestRepeatedGridValues:
    """Two equal values on any grid axis are two jobs with one digest."""

    @pytest.mark.parametrize(
        "kw",
        [
            {"scenarios": ("two-region", "two-region")},
            {"policies": ("uniform", "uniform")},
            {"loads": (1, 1.0)},
            {"campaigns": ("smoke", "smoke")},
        ],
        ids=lambda kw: next(iter(kw)),
    )
    def test_rejected(self, kw):
        with pytest.raises(ValueError, match="repeats"):
            _spec(**kw)

    def test_the_reported_case(self):
        with pytest.raises(ValueError, match="repeats"):
            _spec(policies=("uniform", "uniform"), slo=("", "", "p95:0.5"))


# ------------------------------------------------------------------ #
# the digest rule over arbitrary subsets of axes
# ------------------------------------------------------------------ #

_BASE_GRIDS = st.fixed_dictionaries(
    {
        "scenarios": st.lists(
            st.sampled_from(
                ["two-region", "three-region", "three-region+drift2.5"]
            ),
            min_size=1, max_size=2, unique=True,
        ),
        "policies": st.lists(
            st.sampled_from(["uniform", "exploration", "sensible-routing"]),
            min_size=1, max_size=2, unique=True,
        ),
        "loads": st.lists(
            st.sampled_from([0.5, 1.0, 2.0]),
            min_size=1, max_size=2, unique=True,
        ),
        "replicates": st.integers(1, 2),
        "campaigns": st.sampled_from([(), ("smoke",)]),
    }
)

_AXIS_GRIDS = st.fixed_dictionaries(
    {},
    optional={
        axis.spec_field: st.lists(
            st.sampled_from([axis.off, *SAMPLES[axis.spec_field][0]]),
            min_size=1, max_size=3, unique=True,
        )
        for axis in AXES
    },
)


@settings(max_examples=60, deadline=None)
@given(base=_BASE_GRIDS, axes=_AXIS_GRIDS)
def test_digest_rule_over_any_subset_of_axes(base, axes):
    off_spec = SweepSpec(eras=12, **base)
    spec = SweepSpec(eras=12, **base, **axes)
    jobs = spec.expand()

    ident = {(j.label, j.seed, j.digest) for j in jobs}
    every_axis_includes_off = all(
        axis.off in axes.get(axis.spec_field, [axis.off]) for axis in AXES
    )
    if every_axis_includes_off:
        # every job of the all-off grid reappears untouched
        assert {
            (j.label, j.seed, j.digest) for j in off_spec.expand()
        } <= ident

    assert len({j.digest for j in jobs}) == len(jobs)
    assert len({j.label for j in jobs}) == len(jobs)
    assert len(jobs) == spec.job_count
    assert spec.cell_count == len({cell_key(j) for j in jobs})
    for job in jobs:
        stored = json.loads(json.dumps(job.config()))
        assert JobSpec.from_config(stored) == job

    config = spec.config()
    for axis in AXES:
        used = axes.get(axis.spec_field, [axis.off]) != [axis.off]
        assert (axis.spec_field in config) == used
    if not any(axis.spec_field in config for axis in AXES):
        assert (
            spec.manifest().config_digest
            == off_spec.manifest().config_digest
        )


# ------------------------------------------------------------------ #
# expansion order, pinned from the commit before the table existed
# ------------------------------------------------------------------ #

_ALL_AXES_SPEC = dict(
    domains=("flat", "2x2"),
    slo=("", "p95:0.5"),
    campaigns=("smoke",),
)

_P = "policy/two-region/uniform/load1"
_RECORDED_CELLS = [
    f"{_P}",
    f"{_P}/slo:p95:0.5",
    f"{_P}/domains2x2",
    f"{_P}/domains2x2/slo:p95:0.5",
    "chaos/smoke/load1",
]


def test_expansion_order_is_the_recorded_one():
    """Scenario -> policy -> load -> domains -> slo -> replicate, chaos
    last: labels as the five-deep loop produced them, and the whole
    ``--dry-run`` table (seeds and digests) by hash."""
    spec = _spec(**_ALL_AXES_SPEC)
    jobs = spec.expand()
    assert [j.label for j in jobs] == [
        f"{cell}/rep{rep}" for cell in _RECORDED_CELLS for rep in (0, 1)
    ]
    assert hashlib.sha256(listing(jobs).encode()).hexdigest() == (
        # the listing of the cells that had the retired retrain and
        # policy-head axes off, as the grids that still carried them
        # expanded them
        "37b6fa2887b7f21235e46dad63abab4f52dcba284f75c99417c7126c3a1d29dd"
    )
    assert spec.cell_count == 5
    assert spec.manifest().config_digest == "e3d778ec2c7b5379"


# ------------------------------------------------------------------ #
# --csv carries the axes
# ------------------------------------------------------------------ #


def test_csv_key_columns_separate_cells_that_differ_on_an_axis(tmp_path):
    spec = _spec(
        replicates=1,
        domains=("flat", "2x2"),
        slo=("", "p95:0.5+dwell:120"),
    )
    jobs = spec.expand()
    cells = aggregate(jobs, [{"mean_rmttf_s": float(i)} for i in range(4)])
    path = tmp_path / "cells.csv"
    write_cells_csv(cells, str(path), spec.manifest())

    assert read_csv_manifest(str(path))["seed"] == spec.root_seed
    with open(path, newline="", encoding="utf-8") as fh:
        assert fh.readline().startswith("# manifest: ")
        rows = list(csv.DictReader(fh))
    header = list(rows[0])
    assert header == (
        ["kind", "scenario", "policy", "load"]
        + [axis.job_field for axis in AXES]
        + ["n", "metric", "mean", "std", "ci95"]
    )
    keys = {tuple(row[c] for c in header[: 4 + len(AXES)]) for row in rows}
    assert len(keys) == len(rows) == 4
    assert {row["slo"] for row in rows} == set(spec.slo)
    assert {row["domains"] for row in rows} == set(spec.domains)
    assert [float(row["mean"]) for row in rows] == [0.0, 1.0, 2.0, 3.0]
