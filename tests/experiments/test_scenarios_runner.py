"""Tests for the evaluation scenarios and the experiment runner."""

import numpy as np
import pytest


import repro.ml.tree as tree_module
from repro.experiments import runner
from repro.experiments import (
    PAPER_POLICIES,
    compare_policies,
    make_trained_predictor,
    run_policy_experiment,
    three_region_scenario,
    two_region_scenario,
)
from repro.experiments.runner import paper_shape_holds
from repro.ml.toolchain import F2PMToolchain
from repro.sim import INSTANCE_CATALOG


def profiled_every_15s(*args, **kwargs):
    """:func:`make_trained_predictor` with its profiling runs sampled
    every 15 s (``runner.SAMPLE_PERIOD_S`` patched for the call)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "SAMPLE_PERIOD_S", 15.0)
        return make_trained_predictor(*args, **kwargs)


class TestScenarios:
    def test_two_region_matches_paper(self):
        sc = two_region_scenario()
        by_name = {r.name: r for r in sc.regions}
        assert set(by_name) == {"region1-ireland", "region3-munich"}
        assert by_name["region1-ireland"].instance_type == "m3.medium"
        assert by_name["region1-ireland"].n_vms == 6
        assert by_name["region3-munich"].instance_type == "private.small"
        assert by_name["region3-munich"].n_vms == 4

    def test_three_region_matches_paper(self):
        sc = three_region_scenario()
        by_name = {r.name: r for r in sc.regions}
        assert by_name["region2-frankfurt"].instance_type == "m3.small"
        assert by_name["region2-frankfurt"].n_vms == 12

    def test_client_counts_in_paper_range_and_different(self):
        sc = three_region_scenario()
        counts = [r.clients for r in sc.regions]
        assert all(16 <= c <= 512 for c in counts)
        assert len(set(counts)) == len(counts)

    def test_instance_types_exist_in_catalog(self):
        for sc in (two_region_scenario(), three_region_scenario()):
            for t in sc.instance_types():
                assert t in INSTANCE_CATALOG

    def test_overlay_built_with_latencies(self):
        sc = three_region_scenario()
        net = sc.build_overlay()
        assert set(net.nodes()) == {r.name for r in sc.regions}
        assert net.link_latency("region1-ireland", "region2-frankfurt") == 25.0
        assert net.link_latency("region2-frankfurt", "region3-munich") == 15.0

    def test_paper_policies_tuple(self):
        assert PAPER_POLICIES == (
            "sensible-routing",
            "available-resources",
            "exploration",
        )


class TestRunner:
    def test_run_policy_experiment_produces_figure_series(self):
        res = run_policy_experiment(
            two_region_scenario(), "available-resources", eras=40, seed=2
        )
        assert res.policy == "available-resources"
        assert len(res.traces.series("rmttf/region1-ireland")) == 40
        assert len(res.traces.series("fraction/region3-munich")) == 40
        assert len(res.traces.series("response_time")) == 40
        assert res.assessment.sla_met

    def test_eras_floor(self):
        with pytest.raises(ValueError):
            run_policy_experiment(two_region_scenario(), "uniform", eras=5)

    def test_compare_runs_all_policies(self):
        results = compare_policies(
            two_region_scenario(), eras=30, seed=2
        )
        assert set(results) == set(PAPER_POLICIES)

    def test_paper_shape_holds_requires_all_policies(self):
        results = compare_policies(
            two_region_scenario(),
            policies=("sensible-routing",),
            eras=30,
        )
        with pytest.raises(ValueError, match="missing"):
            paper_shape_holds(results)

    def test_same_seed_reproducible(self):
        r1 = run_policy_experiment(
            two_region_scenario(), "exploration", eras=30, seed=4
        )
        r2 = run_policy_experiment(
            two_region_scenario(), "exploration", eras=30, seed=4
        )
        assert np.allclose(
            r1.traces.series("rmttf/region1-ireland").values,
            r2.traces.series("rmttf/region1-ireland").values,
        )

    def test_instrumented_run_is_of_the_cell_it_is_given(self, monkeypatch):
        """One deploy -> drive -> assess body: the drifted leak rate and
        the SLO the manifest names are in force in the instrumented
        deployment, and their metrics are in its dump."""
        from repro.experiments import runner
        from repro.workload.anomalies import DEFAULT_LEAK_PROBABILITY

        built = []

        class Spy(runner.AcmManager):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(runner, "AcmManager", Spy)
        cell = dict(eras=10, seed=3, slo="p95:0.5")
        drifted = two_region_scenario().with_drift(6)
        result, telemetry = runner.run_instrumented_experiment(
            drifted, "uniform", **cell
        )
        plain = run_policy_experiment(drifted, "uniform", **cell)
        instrumented, _ = built
        # one manifest (its config digest covers leak_multiplier and
        # slo) -- and the deployment it describes
        assert result.manifest == plain.manifest
        assert instrumented.leak_probability == DEFAULT_LEAK_PROBABILITY * 6
        assert instrumented.slo_controller is not None
        assert result.slo_stats and result.cost_stats
        names = {
            sample["name"]
            for kind in telemetry.snapshot()["metrics"].values()
            for sample in kind
        }
        assert "slo_level" in names


class TestTrainedPredictorPath:
    @pytest.fixture(scope="class")
    def predictor(self):
        return profiled_every_15s(
            ["m3.medium", "private.small"],
            seed=1,
            profile_rates=(4.0, 8.0, 16.0),
            runs_per_rate=2,
            )

    def test_trained_model_quality(self, predictor):
        # the REP-Tree must have real skill on the profiling data
        assert predictor.model.name == "rep-tree"
        assert predictor.model.report.r2 > 0.5

    def test_feature_selection_happened(self, predictor):
        assert 0 < len(predictor.model.feature_names) <= 8

    def test_ml_in_the_loop_runs(self, predictor):
        res = run_policy_experiment(
            two_region_scenario(),
            "available-resources",
            eras=40,
            seed=2,
            predictor=predictor,
        )
        assert res.assessment.sla_met
        assert res.assessment.total_failures <= 5

    def test_validation(self):
        with pytest.raises(ValueError):
            make_trained_predictor([])



@pytest.fixture
def training_spy(monkeypatch):
    """Every ``make_trained_predictor`` call the runner makes, by its
    arguments; the runner's one-entry training cache starts empty."""
    calls: list[tuple] = []
    real = runner.make_trained_predictor

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "make_trained_predictor", spy)
    runner._trained_predictor.cache_clear()
    yield calls
    runner._trained_predictor.cache_clear()


class TestOneTrainingPerFigure:
    def test_compare_policies_trains_once(self, tmp_path, training_spy):
        """The policies of a figure share one training, and run exactly
        as three runs that each train their own model."""
        scenario = three_region_scenario()
        run = dict(eras=10, seed=5, predictor="rep-tree")
        shared = compare_policies(scenario, **run)
        assert len(training_spy) == 1
        for policy in PAPER_POLICIES:
            runner._trained_predictor.cache_clear()
            alone = run_policy_experiment(scenario, policy, **run)
            assert alone.manifest == shared[policy].manifest
            for tag, result in (("alone", alone), ("shared", shared[policy])):
                result.traces.to_csv(str(tmp_path / f"{tag}.csv"))
            assert (tmp_path / "alone.csv").read_bytes() == (
                tmp_path / "shared.csv"
            ).read_bytes()
        assert len(training_spy) == 1 + len(PAPER_POLICIES)

    def test_every_call_of_make_trained_predictor_trains(self, monkeypatch):
        trainings: list[str] = []
        real = F2PMToolchain.train_best

        def spy(self, *args, **kwargs):
            trainings.append(kwargs["model_name"])
            return real(self, *args, **kwargs)

        monkeypatch.setattr(F2PMToolchain, "train_best", spy)
        first = make_trained_predictor(["m3.medium"], seed=5)
        second = make_trained_predictor(["m3.medium"], seed=5)
        assert trainings == ["rep-tree", "rep-tree"]
        assert first is not second

class TestTreeWalksEndToEnd:
    """Fig. 4 traces are the same bytes whichever walk the REP-Tree takes.

    The tier-1 twin of the CI pins on ``fig4_fluid``'s ``trace_digest``:
    as shipped, every region's 4-12 ACTIVE VMs take the row walk; with
    ``ROW_WALK_MAX_ROWS`` at 0 every batch takes the masked walk.
    """

    @pytest.mark.parametrize("seed", [5, 6])
    def test_trace_csv_bytes_equal(self, tmp_path, monkeypatch, seed):
        scenario = three_region_scenario()
        assert (
            max(r.n_vms for r in scenario.regions)
            < tree_module.ROW_WALK_MAX_ROWS
        )
        predictor = make_trained_predictor(
            scenario.instance_types(), seed=seed
        )
        assert predictor.model.name == "rep-tree"

        def trace_bytes(tag):
            out = []
            for policy in PAPER_POLICIES:
                result = run_policy_experiment(
                    three_region_scenario(),
                    policy,
                    eras=30,
                    seed=seed,
                    predictor=predictor,
                )
                path = tmp_path / f"{tag}-{policy}.csv"
                result.traces.to_csv(str(path))
                out.append(path.read_bytes())
            return out

        shipped = trace_bytes("shipped")
        monkeypatch.setattr(tree_module, "ROW_WALK_MAX_ROWS", 0)
        assert trace_bytes("masked") == shipped
