"""Tests for the command-line interface and the top-level package API."""

import pytest

import repro
from repro.cli import build_parser, main


class TestPackageApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_top_level_exports(self):
        assert callable(repro.AcmManager)
        assert callable(repro.RegionSpec)
        assert callable(repro.get_policy)


class TestParser:
    def test_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["fig3", "--eras", "50"])
        assert args.command == "fig3"
        assert args.eras == 50

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.regions == 3
        assert "sensible-routing" in args.policies

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_invalid_regions(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--regions", "5"])


class TestUnifiedSeedOption:
    """Every seeded subcommand shares one --seed definition (same
    default, same semantics) via `repro.cli.add_seed_option`."""

    SEEDED_INVOCATIONS = [
        ["fig3"],
        ["fig4"],
        ["compare"],
        ["export", "fig3"],
        ["plot", "fig3"],
        ["reproduce"],
        ["robustness", "fig3"],
        ["chaos", "smoke"],
        ["sweep"],
        ["models"],
        ["policy", "train"],
        ["policy", "eval"],
    ]

    def test_documented_default_everywhere(self):
        from repro.cli import DEFAULT_SEED

        parser = build_parser()
        for argv in self.SEEDED_INVOCATIONS:
            args = parser.parse_args(argv)
            assert args.seed == DEFAULT_SEED, argv

    def test_override_parses_everywhere(self):
        parser = build_parser()
        for argv in self.SEEDED_INVOCATIONS:
            args = parser.parse_args(argv + ["--seed", "123"])
            assert args.seed == 123, argv


class TestSweepCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.workers == 1
        assert args.replicates == 3
        assert not args.resume and not args.dry_run and not args.gc
        assert "available-resources" in args.policies

    def test_dry_run_lists_jobs_without_executing(self, capsys, tmp_path):
        rc = main(
            ["sweep", "--scenarios", "two-region", "--policies",
             "uniform", "--loads", "0.25", "--replicates", "2",
             "--eras", "12", "--dry-run",
             "--store", str(tmp_path / "store")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 cells x 2 replicates = 2 jobs" in out
        assert "policy/two-region/uniform/load0.25/rep0" in out
        assert not (tmp_path / "store").exists()

    def test_invalid_spec_exits_2(self, capsys):
        rc = main(["sweep", "--scenarios", "mars", "--dry-run"])
        assert rc == 2
        assert "invalid sweep spec" in capsys.readouterr().err

    def test_repeated_axis_value_exits_2(self, capsys):
        rc = main(
            ["sweep", "--scenarios", "two-region", "--policies", "uniform",
             "--slo", "none,none", "--dry-run"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "invalid sweep spec" in err and "slo repeats" in err

    def test_axis_flags_default_to_their_off_token(self):
        args = build_parser().parse_args(["sweep"])
        assert (args.retrain, args.domains) == ("0", "flat")
        assert (args.policy_heads, args.slo) == ("none", "none")

    def test_dry_run_with_every_axis_flag_is_the_spec_listing(self, capsys):
        from repro.fleet.spec import SweepSpec, listing

        rc = main(
            ["sweep", "--scenarios", "two-region", "--policies", "uniform",
             "--loads", "0.5,1", "--replicates", "2", "--eras", "12",
             "--retrain", "0,8", "--domains", "flat,2x2",
             "--policy-heads", "none,static:uniform,frozen:/tmp/a/ckpt.json",
             "--slo", "none,p95:0.5+dwell:120", "--dry-run"]
        )
        assert rc == 0
        spec = SweepSpec(
            scenarios=("two-region",),
            policies=("uniform",),
            loads=(0.5, 1.0),
            replicates=2,
            eras=12,
            retrain=(0, 8),
            domains=("flat", "2x2"),
            policy_heads=("", "static:uniform", "frozen:/tmp/a/ckpt.json"),
            slo=("", "p95:0.5+dwell:120"),
        )
        head, _, table = capsys.readouterr().out.partition("\n")
        assert head == "sweep: 48 cells x 2 replicates = 96 jobs (root seed 7)"
        assert table == listing(spec.expand()) + "\n"

    def test_obs_dump_instruments_the_cell_it_names(
        self, capsys, tmp_path, monkeypatch
    ):
        """The dump's run gets the first cell's domain shape and retrain
        interval, and says which axes it cannot carry."""
        from repro.experiments import runner

        seen = {}

        class _Telemetry:
            def dump_json(self, path):
                seen["path"] = path

        def fake(scenario, policy, **kw):
            seen.update(kw, scenario=scenario, policy=policy)
            return None, _Telemetry()

        monkeypatch.setattr(runner, "run_instrumented_experiment", fake)
        dump = str(tmp_path / "dump.json")
        rc = main(
            ["sweep", "--scenarios", "two-region", "--policies", "uniform",
             "--loads", "0.25", "--replicates", "1", "--eras", "12",
             "--retrain", "8", "--domains", "2x2", "--slo", "p95:0.5",
             "--store", str(tmp_path / "store"), "--obs-dump", dump]
        )
        assert rc == 0
        assert seen["path"] == dump
        assert seen["online_retrain"] == 8
        assert {
            (r.n_azs, r.racks_per_az) for r in seen["scenario"].regions
        } == {(2, 2)}
        err = capsys.readouterr().err
        assert "--obs-dump" in err and "slo:p95:0.5" in err
        assert "retrain8" in err  # names the cell; only slo is dropped
        assert "without slo:p95:0.5\n" in err

    def test_run_resume_and_gc(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        base = [
            "sweep", "--scenarios", "two-region", "--policies", "uniform",
            "--loads", "0.25", "--replicates", "1", "--eras", "12",
            "--store", store,
        ]
        assert main(base) == 0
        out = capsys.readouterr().out
        assert "1 executed, 0 store hits" in out
        assert "| cell |" in out

        assert main(base + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "0 executed, 1 store hits" in out

        # an edited spec plus --gc prunes the now-stale entry
        edited = [
            "sweep", "--scenarios", "two-region", "--policies", "uniform",
            "--loads", "0.5", "--replicates", "1", "--eras", "12",
            "--store", store, "--dry-run", "--gc",
        ]
        # gc runs only on real invocations; drop dry-run
        edited.remove("--dry-run")
        assert main(edited + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "gc: pruned 1 stale store entries" in out

    def test_csv_export_embeds_manifest(self, tmp_path):
        from repro.sim.tracing import read_csv_manifest

        csv_path = str(tmp_path / "cells.csv")
        rc = main(
            ["sweep", "--scenarios", "two-region", "--policies",
             "uniform", "--loads", "0.25", "--replicates", "1",
             "--eras", "12", "--store", str(tmp_path / "store"),
             "--csv", csv_path]
        )
        assert rc == 0
        manifest = read_csv_manifest(csv_path)
        assert manifest is not None
        assert manifest["seed"] == 7


class TestChaosSuite:
    def test_chaos_all_parses(self):
        args = build_parser().parse_args(
            ["chaos", "all", "--workers", "2"]
        )
        assert args.campaign == "all"
        assert args.workers == 2


class TestExecution:
    def test_compare_runs(self, capsys):
        rc = main(
            [
                "compare",
                "--regions",
                "2",
                "--eras",
                "30",
                "--policies",
                "uniform",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fig3-two-regions" in out
        assert "uniform" in out

    @pytest.mark.slow
    def test_models_runs(self, capsys):
        rc = main(["models", "--seed", "3", "--instance-type", "m3.small"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rep-tree" in out
        assert "selected features" in out


class TestExport:
    def test_export_writes_csv_per_policy(self, tmp_path):
        prefix = str(tmp_path / "tr")
        rc = main(
            ["export", "fig3", "--eras", "15", "--seed", "2",
             "--prefix", prefix]
        )
        assert rc == 0
        from repro.sim import TraceRecorder

        path = f"{prefix}_fig3_available-resources.csv"
        rec = TraceRecorder.from_csv(path)
        assert "rmttf/region1-ireland" in rec.names()
        assert len(rec.series("response_time")) == 15

    def test_export_requires_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["export"])


class TestPlanCommand:
    def test_plan_prints_recommendation(self, capsys):
        rc = main(["plan", "--rate", "30", "--target", "600"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ACTIVE" in out and "STANDBY" in out
        assert "expected RMTTF" in out

    def test_plan_requires_rate_and_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan"])


class TestRobustnessCommand:
    def test_robustness_runs_and_reports(self, capsys):
        rc = main(
            ["robustness", "fig3", "--eras", "60", "--seeds", "7"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "seed" in out and "ALL PASS" in out
