"""Tests for the command-line interface and the top-level package API."""

import argparse
import dataclasses
import re

import pytest

import repro
from repro.cli import DEFAULT_SEED, _typed, build_parser, main


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


@pytest.mark.parametrize(
    "argv, named",
    [
        (["serve", "--scenario", "mars"], "mars"),
        (["loadtest", "--scenario", "mars"], "mars"),
        (
            ["compare", "--policies", "uniform, available-resources"],
            "' available-resources'",
        ),
        (["robustness", "fig3", "--seeds", "7,"], "'7,'"),
        (["fig3", "--eras", "2"], ">= 10 for a meaningful assessment, got 2"),
        pytest.param(
            ["chaos", "smoke", "--eras", "2"],
            "campaigns need at least 4 eras, got 2",
            id="chaos-eras",
        ),
        pytest.param(
            ["plan", "--rate", "-5", "--target", "600"],
            "--rate: must be positive and finite, got -5",
            id="plan-rate",
        ),
        pytest.param(
            ["serve", "--era-s", "0"],
            "--era-s: must be positive and finite, got 0",
            id="serve-era-s",
        ),
        pytest.param(
            ["plan", "--rate", "30", "--target", "-5"],
            "--target: must be positive and finite, got -5",
            id="plan-target",
        ),
        pytest.param(
            ["loadtest", "--rate", "-5", "--duration", "1"],
            "--rate: must be positive and finite, got -5",
            id="loadtest-rate",
        ),
        pytest.param(
            ["loadtest", "--duration", "0"],
            "--duration: must be positive and finite, got 0",
            id="loadtest-duration",
        ),
        pytest.param(
            ["loadtest", "--era-s", "0", "--duration", "1"],
            "--era-s: must be positive and finite, got 0",
            id="loadtest-era-s",
        ),
        pytest.param(
            ["loadtest", "--speed", "inf"],
            "--speed: must be positive and finite, got inf",
            id="loadtest-speed",
        ),
        *(
            pytest.param(
                argv, "--predictor: unknown predictor 'nosuch'",
                id=f"{argv[0]}-predictor",
            )
            for argv in (
                ["fig3", "--predictor", "nosuch"],
                ["sweep", "--predictor", "nosuch", "--dry-run"],
            )
        ),
        *(
            pytest.param(
                ["serve", "--port", port],
                f"--port: must be a port in 0-65535, got {port}",
                id=f"serve-port{port}",
            )
            for port in ("-1", "70000")
        ),
        *(
            pytest.param(
                ["obs", "dump.json", "--top", top],
                f"--top: must be >= 1, got {top}",
                id=f"obs-top{top}",
            )
            for top in ("0", "-1")
        ),
        pytest.param(
            ["serve", "--speed", "0"],
            "--speed: must be positive and finite, got 0",
            id="serve-speed",
        ),
        pytest.param(
            ["serve", "--window-s", "-1"],
            "--window-s: must be positive and finite, got -1",
            id="serve-window-s",
        ),
        pytest.param(
            ["serve", "--duration", "nan"],
            "--duration: must be positive and finite, got nan",
            id="serve-duration",
        ),
        pytest.param(
            ["serve", "--admission-rps", "0"],
            "--admission-rps: must be positive and finite, got 0",
            id="serve-admission-rps",
        ),
        pytest.param(
            ["serve", "--slo-p95", "-1"],
            "--slo-p95: must be positive and finite, got -1",
            id="serve-slo-p95",
        ),
        pytest.param(
            ["serve", "--slo-p95", "1", "--slo-window", "-1"],
            "--slo-window: must be positive and finite, got -1",
            id="serve-slo-window",
        ),
        pytest.param(
            ["serve", "--slo-p95", "1", "--slo-dwell", "-3"],
            "--slo-dwell: must be non-negative and finite, got -3",
            id="serve-slo-dwell",
        ),
        pytest.param(
            ["plan", "--rate", "30", "--target", "600", "--threshold", "-5"],
            "--threshold: must be non-negative and finite, got -5",
            id="plan-threshold",
        ),
        pytest.param(
            ["plan", "--rate", "30", "--target", "600", "--threshold", "nan"],
            "--threshold: must be non-negative and finite, got nan",
            id="plan-threshold-nan",
        ),
        pytest.param(
            ["plan", "--rate", "30", "--target", "600",
             "--rejuvenation-time", "-1"],
            "--rejuvenation-time: must be non-negative and finite, got -1",
            id="plan-rejuvenation-time",
        ),
        *(
            pytest.param(
                [*argv, "--seed", "-1"],
                "--seed: must be >= 0, got -1",
                id=f"{argv[0]}-seed",
            )
            for argv in (["fig3"], ["compare"], ["chaos", "smoke"], ["models"])
        ),
        pytest.param(
            ["robustness", "fig3", "--seeds", "7,-1"],
            "--seeds: must be >= 0, got -1",
            id="robustness-seeds",
        ),
        pytest.param(
            ["sweep", "--workers", "0", "--dry-run"],
            "--workers: must be >= 1, got 0",
            id="sweep-workers-dry-run",
        ),
        pytest.param(
            ["sweep", "--retries", "-1", "--dry-run"],
            "--retries: must be >= 0, got -1",
            id="sweep-retries-dry-run",
        ),
        pytest.param(
            ["chaos", "all", "--workers", "-3"],
            "--workers: must be >= 1, got -3",
            id="chaos-workers",
        ),
        pytest.param(
            ["loadtest", "--connections", "0", "--duration", "1",
             "--rate", "10"],
            "--connections: must be >= 1, got 0",
            id="loadtest-connections",
        ),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else "",
)
def test_bad_names_are_a_one_line_exit_2(argv, named, capsys):
    """Scenario, policy and predictor names, seed lists, seeds, worker and
    era counts, ports, row counts, and every rate, target, duration, speed
    and window are checked where they are parsed,
    so a bad one never reaches a command body (a traceback, before)."""
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"repro {argv[0]}: error:" in err and named in err
    assert "Traceback" not in err


def _leaves(parser, path=()):
    """Every runnable subcommand of ``parser``, as a tuple of names."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaves(sub, (*path, name))
            return
    yield path


def _leaf_parser(*path):
    parser = build_parser()
    for name in path:
        (subs,) = (
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        parser = subs.choices[name]
    return parser


class TestEverySubcommandRuns:
    """One invocation of each subcommand through ``main([...])``, at its
    smallest legal size, found by walking the parser -- a new subcommand
    without a row here fails the walk."""

    SWEEP = ["--scenarios", "two-region", "--policies", "uniform",
             "--loads", "0.25", "--replicates", "1", "--eras", "12"]
    #: subcommand -> (argv tail with {tmp}, documented exit codes)
    SMALLEST = {
        "fig3": (
            ["--eras", "16", "--obs-dump", "{tmp}/dump.json"],
            {0},
        ),
        "fig4": (["--eras", "10"], {0}),
        "compare": (
            ["--regions", "2", "--eras", "10", "--policies", "uniform"], {0}
        ),
        "export": (["fig3", "--eras", "10", "--prefix", "{tmp}/tr"], {0}),
        "plot": (["fig4", "--eras", "10", "--prefix", "{tmp}/fig"], {0}),
        "reproduce": (["--eras", "12", "--out", "{tmp}/bundle"], {0, 1}),
        "plan": (["--rate", "30", "--target", "600"], {0}),
        "robustness": (["fig3", "--eras", "10", "--seeds", "7"], {0, 1}),
        "chaos": (["list"], {0}),
        "obs": (["{tmp}/dump.json"], {0}),
        "sweep": (
            [*SWEEP, "--domains", "flat,2x2", "--store", "{tmp}/store"], {0}
        ),
        "models": (["--seed", "3", "--instance-type", "m3.small"], {0}),
        "serve": (["--port", "0", "--duration", "2", "--speed", "60"], {0}),
        "loadtest": (["--duration", "1.5"], {0, 1}),
    }
    #: whose output files a subcommand reads
    NEEDS = {"obs": "fig3"}

    @pytest.fixture(scope="class")
    def tmp(self, tmp_path_factory):
        return tmp_path_factory.mktemp("cli")

    @pytest.fixture(scope="class")
    def ran(self, tmp):
        """Run a subcommand once per class: name -> (exit code, stdout)."""
        done = {}

        def run(name, capsys):
            if name in self.NEEDS:
                run(self.NEEDS[name], capsys)
            if name not in done:
                tail, _ = self.SMALLEST[name]
                argv = name.split() + [a.format(tmp=tmp) for a in tail]
                done[name] = (main(argv), capsys.readouterr().out)
            return done[name]

        return run

    @pytest.mark.parametrize(
        "name", [" ".join(path) for path in _leaves(build_parser())]
    )
    def test_runs(self, name, ran, tmp, capsys, monkeypatch):
        from repro.serve import AcmService

        assert name in self.SMALLEST, f"no smallest invocation of {name!r}"
        shut_down = []
        shutdown = AcmService.shutdown
        monkeypatch.setattr(
            AcmService,
            "shutdown",
            lambda self: (shutdown(self), shut_down.append(self)),
        )
        code, out = ran(name, capsys)
        assert code in self.SMALLEST[name][1]
        assert out
        if name == "fig3":
            # the dump carries the run's manifest and VMC counters
            dump = (tmp / "dump.json").read_text()
            assert "fig3-two-regions" in dump and "rejuvenations_total" in dump
        if name == "sweep":
            assert "| two-region/uniform/load0.25/domains2x2 |" in out
        if name == "serve":
            # the frozen harness reads the port off the first line ...
            ready = out.splitlines()[0]
            assert re.search(r" on http://127\.0\.0\.1:[1-9]\d*$", ready)
            # ... and the teardown cancelled the periodic control events
            (service,) = shut_down
            assert not [
                event for event in service.clock.pending_events()
                if event.label.startswith("serve-")
            ]


class TestDefaultsLiveOnTheConfig:
    """The parser built with ``argument_default=SUPPRESS``: the config
    dataclass is the only place a default is written down."""

    #: flags that keep a parser default because they are not config fields
    NOT_CONFIG = {"host", "port", "speed", "duration", "scenario"}

    @staticmethod
    def _cases():
        from repro.serve import ServeConfig, SloConfig

        return [(("serve",), {"": ServeConfig, "slo.": SloConfig})]

    def test_every_dest_is_a_field_of_the_config_it_feeds(self):
        for path, configs in self._cases():
            for action in _leaf_parser(*path)._actions:
                dest = action.dest
                if dest == "help" or dest in self.NOT_CONFIG:
                    continue
                prefix = "slo." if dest.startswith("slo.") else ""
                fields = {
                    f.name for f in dataclasses.fields(configs[prefix])
                }
                assert dest[len(prefix):] in fields, (path, dest)
                # only the shared --seed carries a default of its own
                assert action.default is argparse.SUPPRESS or (
                    dest == "seed" and action.default == DEFAULT_SEED
                ), (path, dest)

    def test_the_bare_command_builds_the_default_config(self):
        for path, configs in self._cases():
            args = build_parser().parse_args(list(path))
            for prefix, config_cls in configs.items():
                typed = _typed(args, config_cls, prefix)
                assert config_cls(**typed) == config_cls(), path
            assert set(vars(args)) - {"command", "func"} <= (
                self.NOT_CONFIG | {"seed"}
            ), path

    def test_a_typed_flag_reaches_its_field(self):
        from repro.serve import SloConfig

        args = build_parser().parse_args(
            ["serve", "--slo-p95", ".2", "--slo-dwell", "5", "--window-s", "1"]
        )
        slo = SloConfig(**_typed(args, SloConfig, "slo."))
        assert (slo.p95_target_s, slo.min_dwell_s) == (0.2, 5.0)
        assert slo.window_s == SloConfig().window_s  # not --window-s


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

    def test_nan_slo_target_exits_2(self, capsys):
        """A NaN target would list a cell whose SLO gate never fires."""
        rc = main(["sweep", "--slo", "p95:nan", "--dry-run"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "invalid sweep spec: p95_target_s must be finite" in err

    @pytest.mark.parametrize("timeout", ["inf", "nan", "0"])
    def test_bad_timeout_exits_2_before_any_job(
        self, timeout, capsys, tmp_path, monkeypatch
    ):
        from repro.fleet.executor import FleetExecutor

        def run(self, jobs):
            raise AssertionError("a job ran")

        monkeypatch.setattr(FleetExecutor, "run", run)
        rc = main(
            ["sweep", "--scenarios", "two-region", "--policies", "uniform",
             "--loads", "0.25", "--replicates", "1", "--eras", "12",
             "--store", str(tmp_path / "store"), "--timeout", timeout]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "invalid sweep options" in err and "job_timeout_s" in err

    @pytest.mark.parametrize("timeout", ["-5", "0", "nan", "inf"])
    def test_bad_timeout_dry_run_exits_as_the_run_does(
        self, timeout, capsys, tmp_path, monkeypatch
    ):
        from repro.fleet.executor import FleetExecutor

        def run(self, jobs):
            raise AssertionError("a job ran")

        monkeypatch.setattr(FleetExecutor, "run", run)
        argv = ["sweep", "--scenarios", "two-region", "--policies", "uniform",
                "--loads", "0.25", "--replicates", "1", "--eras", "12",
                "--store", str(tmp_path / "store"), "--timeout", timeout]
        outcomes = []
        for extra in ([], ["--dry-run"]):
            rc = main(argv + extra)
            outcomes.append((rc, capsys.readouterr().err))
        assert outcomes[1] == outcomes[0]
        assert outcomes[1][0] == 2
        assert "invalid sweep options: job_timeout_s" in outcomes[1][1]
        assert not (tmp_path / "store").exists()

    def test_axis_flags_default_to_their_off_token(self):
        args = build_parser().parse_args(["sweep"])
        assert args.domains == "flat"
        assert args.slo == "none"

    def test_dry_run_with_every_axis_flag_is_the_spec_listing(self, capsys):
        from repro.fleet.spec import SweepSpec, listing

        rc = main(
            ["sweep", "--scenarios", "two-region", "--policies", "uniform",
             "--loads", "0.5,1", "--replicates", "2", "--eras", "12",
             "--domains", "flat,2x2",
             "--slo", "none,p95:0.5+dwell:120", "--dry-run"]
        )
        assert rc == 0
        spec = SweepSpec(
            scenarios=("two-region",),
            policies=("uniform",),
            loads=(0.5, 1.0),
            replicates=2,
            eras=12,
            domains=("flat", "2x2"),
            slo=("", "p95:0.5+dwell:120"),
        )
        head, _, table = capsys.readouterr().out.partition("\n")
        assert head == "sweep: 8 cells x 2 replicates = 16 jobs (root seed 7)"
        assert table == listing(spec.expand()) + "\n"

    def test_obs_dump_instruments_the_cell_it_names(
        self, capsys, tmp_path, monkeypatch
    ):
        """The dump's run is the first cell's: domain shape, SLO and era
        length all reach it, so there is no axis it has to say it
        dropped."""
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
             "--domains", "2x2", "--slo", "p95:0.5",
             "--store", str(tmp_path / "store"), "--obs-dump", dump]
        )
        assert rc == 0
        assert seen["path"] == dump
        assert {
            (r.n_azs, r.racks_per_az) for r in seen["scenario"].regions
        } == {(2, 2)}
        assert seen["slo"] == "p95:0.5"
        assert seen["era_s"] == 30.0
        assert "--obs-dump" not in capsys.readouterr().err

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

    def test_every_registered_policy_runs_by_name(self, capsys, tmp_path):
        """A registered policy is one `--policies` name can run, in
        `compare` and in a sweep cell: one that needs constructor
        arguments takes them from ``bind``."""
        from repro.core.policy import POLICY_REGISTRY

        names = sorted(POLICY_REGISTRY)
        rc = main(
            ["compare", "--regions", "2", "--eras", "10",
             "--policies", ",".join(names)]
        )
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()
        for name in names:
            assert any(row.startswith(name + " ") for row in rows), name
        rc = main(
            ["sweep", "--scenarios", "two-region", "--policies",
             ",".join(names), "--replicates", "1", "--eras", "10",
             "--workers", "1", "--store", str(tmp_path / "store")]
        )
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()
        for name in names:
            cell = f"| two-region/{name}/load1 |"
            assert any(row.startswith(cell) for row in rows), name

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
