"""Command-line interface: regenerate the paper's experiments.

Usage::

    python -m repro fig3 [--eras N] [--seed S] [--predictor oracle|rep-tree]
    python -m repro fig4 [--eras N] [--seed S] [--predictor oracle|rep-tree]
    python -m repro compare --regions 2|3 [--policies p1,p2,...]
    python -m repro sweep [--workers N] [--resume] [--dry-run] [--gc]
    python -m repro chaos <campaign>|all|list [--eras N] [--seed S]
    python -m repro obs <dump.json> [--chrome out.json] [--top N]
    python -m repro models          # F2PM model-selection table

``fig3``, ``fig4``, ``chaos`` and ``sweep`` accept ``--obs-dump PATH``
to write a telemetry dump (metrics, spans, flight events, run manifest)
that ``repro obs`` summarises.

Parsers, dispatch and printing only: figure, scenario and campaign names
and a config-built command's defaults are read from the tables and
dataclasses that own them (DESIGN.md, "The driver layer").
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

#: The canonical root seed every subcommand defaults to.  All stochastic
#: streams of a run (arrivals, anomalies, chaos faults, ML splits, fleet
#: job seeds) derive from this one value, so two invocations with the
#: same seed and settings are bit-identical.
DEFAULT_SEED = 7


def add_seed_option(parser: argparse.ArgumentParser) -> None:
    """The one shared ``--seed`` definition (identical help + default
    across fig3/fig4/compare/chaos/sweep/models/...)."""
    parser.add_argument(
        "--seed",
        type=_arg(_int_at_least(0)),
        default=DEFAULT_SEED,
        help=(
            f"root RNG seed (default {DEFAULT_SEED}); every stochastic "
            "stream of the run derives from it"
        ),
    )


def _split_csv(text: str) -> tuple[str, ...]:
    """The elements of a comma-list flag, as typed: an empty or
    space-padded element is an error, not a guess."""
    parts = tuple(text.split(",")) if text else ()
    for part in parts:
        if not part or part != part.strip():
            raise ValueError(
                f"empty or padded element {part!r} in comma list {text!r}"
            )
    return parts


def _arg(parse, item=None):
    """An argparse ``type=`` from ``parse`` (for a comma list:
    ``_split_csv``, and ``item`` for what each element goes through).
    The ValueError or KeyError a bad value raises is a one-line exit 2
    carrying its message, so a bad name never reaches a command body."""

    def convert(text: str):
        try:
            value = parse(text)
            return value if item is None else tuple(map(item, value))
        except (ValueError, KeyError) as exc:
            raise argparse.ArgumentTypeError(exc.args[0]) from None

    return convert


def _scenario_name(name: str) -> str:
    from repro.experiments.scenarios import resolve_scenario

    resolve_scenario(name)  # ValueError naming the registered ones
    return name


def _policy_name(name: str) -> str:
    from repro.core.policy import get_policy

    get_policy(name)  # KeyError naming the registered ones
    return name


def _predictor_name(name: str) -> str:
    from repro.experiments.runner import check_predictor

    return check_predictor(name)  # ValueError naming the choices


def _eras(text: str) -> int:
    from repro.core.metrics import MIN_ASSESS_ERAS

    eras = int(text)
    if eras < MIN_ASSESS_ERAS:
        raise ValueError(
            f"eras must be >= {MIN_ASSESS_ERAS} for a meaningful "
            f"assessment, got {eras}"
        )
    return eras


def _campaign_eras(text: str) -> int:
    from repro.experiments.resilience import MIN_CAMPAIGN_ERAS

    eras = int(text)
    if eras < MIN_CAMPAIGN_ERAS:
        raise ValueError(
            f"campaigns need at least {MIN_CAMPAIGN_ERAS} eras, got {eras}"
        )
    return eras


def _int_at_least(minimum: int):
    """A parser of integers ``>= minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise ValueError(f"must be >= {minimum}, got {text}")
        return value

    return parse


def _port(text: str) -> int:
    value = int(text)
    if not 0 <= value <= 65535:
        raise ValueError(f"must be a port in 0-65535, got {text}")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise ValueError(f"must be positive and finite, got {text}")
    return value


def _non_negative(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise ValueError(f"must be non-negative and finite, got {text}")
    return value


def _typed(args: argparse.Namespace, config_cls, prefix: str = "") -> dict:
    """The fields of ``config_cls`` a parser built with
    ``argument_default=SUPPRESS`` saw typed (dest = ``prefix`` + field
    name); every other field keeps the dataclass's own default."""
    names = (f.name for f in dataclasses.fields(config_cls))
    typed = vars(args)
    return {n: typed[prefix + n] for n in names if prefix + n in typed}


def _run_flags(args: argparse.Namespace) -> dict:
    """The ``common()`` flags, as ``run_policy_experiment`` keywords."""
    return dict(eras=args.eras, seed=args.seed, predictor=args.predictor)


def _write_obs_dump(
    path: str, scenario, policy: str = "available-resources", **run
) -> None:
    """Make the instrumented twin of the policy run ``run`` names
    (``run_policy_experiment`` keywords) and dump its telemetry."""
    from repro.experiments.runner import run_instrumented_experiment

    _, telemetry = run_instrumented_experiment(scenario, policy, **run)
    telemetry.dump_json(path)
    print(f"wrote telemetry dump: {path}")


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.figures import FIGURES, report_figure, run_figure
    from repro.experiments.scenarios import resolve_scenario

    run = _run_flags(args)
    print(report_figure(args.command, run_figure(args.command, **run)))
    if args.obs_dump:
        scenario = resolve_scenario(FIGURES[args.command].scenario)
        _write_obs_dump(args.obs_dump, scenario, **run)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments import compare_policies
    from repro.experiments.reporting import assessment_table
    from repro.experiments.scenarios import SCENARIOS, resolve_scenario

    scenario = next(
        s
        for s in map(resolve_scenario, SCENARIOS)
        if len(s.regions) == args.regions
    )
    results = compare_policies(
        scenario, policies=args.policies, **_run_flags(args)
    )
    print(f"scenario: {scenario.name}")
    print(assessment_table([r.assessment for r in results.values()]))
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    from repro.experiments.runner import profiling_harness
    from repro.ml import F2PMToolchain
    from repro.sim.instances import get_instance_type
    from repro.sim.rng import RngRegistry

    rngs = RngRegistry(seed=args.seed)
    itype = get_instance_type(args.instance_type)
    harness = profiling_harness(rngs, itype, "cli-prof", anomaly_stream="a")
    print(f"profiling {itype.name} to failure ...")
    ds = harness.collect(
        [4.0, 8.0, 14.0, 22.0], runs_per_rate=3, rng=rngs.stream("prof")
    )
    print(f"dataset: {len(ds)} samples")
    tc = F2PMToolchain(max_features=8, cv_folds=5)
    comparison = tc.compare(ds, np.random.default_rng(args.seed))
    print(f"selected features: {', '.join(comparison.selected_features)}")
    print(comparison.table())
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.experiments.figures import run_figure
    from repro.experiments.report_bundle import write_csvs

    results = run_figure(args.figure, **_run_flags(args))
    for path in write_csvs(results, f"{args.prefix}_{args.figure}"):
        print(f"wrote {path}")
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    from repro.experiments.figures import run_figure
    from repro.experiments.svgplot import render_figure

    results = run_figure(args.figure, **_run_flags(args))
    written = render_figure(results, args.figure, args.prefix)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments.report_bundle import reproduce_all

    manifest = reproduce_all(args.out, **_run_flags(args))
    print(f"report : {manifest.report_path}")
    print(f"CSVs   : {len(manifest.csv_files)}")
    print(f"SVGs   : {len(manifest.svg_files)}")
    print(
        "verdict:",
        "all paper-shape checks PASS"
        if manifest.all_checks_pass
        else "CHECK FAILURES -- see the report",
    )
    return 0 if manifest.all_checks_pass else 1


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.core.planner import recommend_pool

    plan = recommend_pool(
        args.instance_type,
        args.rate,
        target_rmttf_s=args.target,
        rejuvenation_time_s=args.rejuvenation_time,
        rttf_threshold_s=args.threshold,
    )
    print(
        f"{plan.instance_type} @ {plan.request_rate:.1f} req/s, "
        f"target RMTTF {plan.target_rmttf_s:.0f}s:"
    )
    print(
        f"  ACTIVE {plan.active_vms} + STANDBY {plan.standby_vms} "
        f"(total {plan.total_vms})"
    )
    print(
        f"  expected RMTTF {plan.expected_rmttf_s:.0f}s at "
        f"{plan.expected_utilisation:.0%} utilisation"
    )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments.resilience import (
        CAMPAIGNS,
        report_campaign,
        report_campaign_suite,
        run_campaign,
        run_campaign_suite,
    )

    if args.campaign == "all":
        outcome = run_campaign_suite(
            seed=args.seed, eras=args.eras, workers=args.workers
        )
        print(report_campaign_suite(outcome))
        all_recovered = outcome.ok and all(
            payload["recovered"] for payload in outcome.payloads
        )
        return 0 if all_recovered else 1
    if args.campaign == "list":
        for spec in CAMPAIGNS.values():
            print(f"{spec.name:<20} {spec.description}  "
                  f"[default {spec.default_eras} eras]")
        return 0
    telemetry = None
    if args.obs_dump:
        from repro.obs.telemetry import Telemetry

        telemetry = Telemetry(enabled=True)
        telemetry.autodump_path = args.obs_dump
    result = run_campaign(
        args.campaign, eras=args.eras, seed=args.seed, telemetry=telemetry
    )
    print(report_campaign(result))
    if telemetry is not None:
        print(f"wrote telemetry dump: {args.obs_dump}")
    return 0 if result.recovered else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.fleet import (
        FleetExecutor,
        ResultStore,
        SweepSpec,
        aggregate,
        frontier_report,
        listing,
        markdown_report,
        write_cells_csv,
    )
    from repro.fleet.axes import AXES
    from repro.fleet.jobs import policy_run_args

    try:
        spec = SweepSpec(
            scenarios=_split_csv(args.scenarios),
            policies=_split_csv(args.policies),
            loads=tuple(float(x) for x in _split_csv(args.loads)),
            replicates=args.replicates,
            root_seed=args.seed,
            eras=args.eras,
            predictor=args.predictor,
            campaigns=_split_csv(args.campaigns),
            **{
                axis.spec_field: tuple(
                    map(axis.parse, _split_csv(getattr(args, axis.spec_field)))
                )
                for axis in AXES
            },
        )
    except ValueError as exc:
        print(f"invalid sweep spec: {exc}", file=sys.stderr)
        return 2
    jobs = spec.expand()
    print(
        f"sweep: {spec.cell_count} cells x {spec.replicates} replicates "
        f"= {len(jobs)} jobs (root seed {spec.root_seed})"
    )
    try:
        executor = FleetExecutor(
            workers=args.workers,
            resume=args.resume,
            job_timeout_s=args.timeout,
            max_retries=args.retries,
            progress=lambda line: print(f"  {line}"),
        )
    except ValueError as exc:
        print(f"invalid sweep options: {exc}", file=sys.stderr)
        return 2
    if args.dry_run:
        print(listing(jobs))
        return 0

    # made only now: a dry run creates no store directory
    store = executor.store = ResultStore(args.store)
    if args.gc:
        pruned = store.gc(keep=[job.digest for job in jobs])
        print(
            f"gc: pruned {len(pruned)} stale store entries "
            f"({len(store)} kept) in {store.root}"
        )
    outcome = executor.run(jobs)
    print(
        f"done: {outcome.executed} executed, {outcome.store_hits} store "
        f"hits, {outcome.retried} retries, {len(outcome.failures)} failures"
    )
    for digest, message in sorted(outcome.failures.items()):
        print(f"  FAILED {digest}: {message}", file=sys.stderr)

    completed = [p for p in outcome.payloads if p is not None]
    if completed:
        cells = aggregate(outcome.jobs, outcome.payloads)
        manifest = spec.manifest()
        print()
        print(markdown_report(cells, manifest))
        frontier = frontier_report(cells)
        if frontier:
            print()
            print("cost/SLO frontier ('*' = Pareto-efficient in its "
                  "scenario/load group):")
            print(frontier)
        if args.csv:
            write_cells_csv(cells, args.csv, manifest)
            print(f"wrote {args.csv}")

    if args.obs_dump:
        first_policy = next((j for j in jobs if j.kind == "policy"), None)
        if first_policy is None:
            print(
                "--obs-dump: no policy cells in this sweep", file=sys.stderr
            )
        else:
            scenario, run = policy_run_args(first_policy)
            _write_obs_dump(
                args.obs_dump, scenario, first_policy.policy, **run
            )
    return 0 if outcome.ok else 1


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    from repro.obs.exporters import write_chrome_trace
    from repro.obs.manifest import RunManifest
    from repro.obs.spans import validate_nesting
    from repro.obs.summary import summarize_dump

    try:
        with open(args.dump, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read telemetry dump {args.dump!r}: {exc}",
              file=sys.stderr)
        return 1
    if not isinstance(doc, dict) or not doc.get("enabled", False):
        print(
            f"{args.dump}: not an enabled-telemetry dump "
            "(run with --obs-dump to produce one)",
            file=sys.stderr,
        )
        return 1
    print(summarize_dump(doc, top=args.top))
    if args.chrome:
        manifest = (
            RunManifest.from_dict(doc["manifest"])
            if doc.get("manifest")
            else None
        )
        write_chrome_trace(args.chrome, doc.get("spans", []), manifest)
        print(f"wrote Chrome trace: {args.chrome}")
    return 1 if validate_nesting(doc.get("spans", [])) else 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    from repro.experiments.figures import run_figure
    from repro.experiments.runner import paper_shape_holds

    all_pass = True
    for seed in args.seeds:
        checks = paper_shape_holds(
            run_figure(args.figure, **dict(_run_flags(args), seed=seed))
        )
        verdicts = " ".join(
            f"{k}={'PASS' if v else 'FAIL'}" for k, v in checks.items()
        )
        print(f"seed {seed:>5}: {verdicts}")
        all_pass = all_pass and all(checks.values())
    print("overall:", "ALL PASS" if all_pass else "SOME FAILURES")
    return 0 if all_pass else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.experiments.scenarios import resolve_scenario
    from repro.serve import (
        AcmService,
        ServeConfig,
        SloConfig,
        WallClock,
        serving,
    )

    scenario = resolve_scenario(args.scenario)
    slo = _typed(args, SloConfig, prefix="slo.")
    config = ServeConfig(
        **_typed(args, ServeConfig),
        # the gate is armed by --slo-p95; the other two only tune it
        slo=SloConfig(**slo) if "p95_target_s" in slo else None,
    )
    service = AcmService(scenario, WallClock(speed=args.speed), config)

    async def run() -> None:
        async with serving(service, args.host, args.port) as ingress:
            print(
                f"serving {scenario.name} ({len(service.regions)} regions, "
                f"policy {config.policy}, era {config.era_s:g}s, "
                f"speed {args.speed:g}x) on "
                f"http://{args.host}:{ingress.port}",
                flush=True,
            )
            print(
                "endpoints: /  /healthz  /metrics  /plan  /regions  /slo  "
                "/chaos/{blackout,heal}?region=NAME",
                flush=True,
            )
            if args.duration is None:
                await asyncio.Event().wait()  # until ^C
            else:
                await asyncio.sleep(args.duration / args.speed)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nshutdown")
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import asyncio
    import json

    if args.url is not None:
        # external server: pure load generation, no chaos
        from repro.serve import LoadConfig, run_load

        report = asyncio.run(
            run_load(
                LoadConfig(
                    url=args.url,
                    rate=args.rate,
                    duration_s=args.duration,
                    schedule=args.schedule,
                    connections=args.connections,
                    seed=args.seed,
                )
            )
        )
        print(json.dumps(report.as_dict(), indent=2))
        return 0 if report.errors == 0 else 1

    # self-contained campaign: boot in-process, load, blackout, measure
    from repro.experiments.serve_campaign import run_blackout_campaign

    report = asyncio.run(
        run_blackout_campaign(
            scenario_name=args.scenario,
            victim=args.victim,
            rate=args.rate,
            phase_s=args.duration / 3.0,
            speed=args.speed,
            era_s=args.era_s,
            connections=args.connections,
            seed=args.seed,
            schedule=args.schedule,
        )
    )
    compact = {
        "scenario": report["scenario"],
        "victim": report["victim"],
        "failover_mttr_s": report["failover_mttr_s"],
        "detector_bound_s": report["detector_bound_s"],
        "plan_propagation": report["plan_propagation"],
        "phases": report["phases"],
    }
    print(json.dumps(compact, indent=2, default=str))
    mttr = report["failover_mttr_s"]
    within = mttr is not None and mttr <= report["detector_bound_s"]
    print(
        f"failover MTTR {mttr if mttr is None else round(mttr, 2)}s "
        f"(bound {report['detector_bound_s']:g}s): "
        f"{'OK' if within else 'MISSED'}"
    )
    return 0 if within else 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ACM Framework reproduction experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the tables the subcommands take their names and choices from
    from repro.experiments.figures import FIGURES
    from repro.experiments.resilience import CAMPAIGNS
    from repro.fleet.axes import AXES

    def common(p: argparse.ArgumentParser, eras: int = 240) -> None:
        p.add_argument("--eras", type=_arg(_eras), default=eras)
        add_seed_option(p)
        p.add_argument(
            "--predictor",
            type=_arg(_predictor_name),
            default="oracle",
            help="'oracle' or an F2PM model name ('rep-tree', 'm5p', ...)",
        )

    def obs_dump_opt(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--obs-dump",
            default=None,
            metavar="PATH",
            help="write a telemetry dump (summarise it with 'repro obs')",
        )

    for name, figure in FIGURES.items():
        pf = sub.add_parser(
            name, help=f"reproduce {figure.label} ({figure.deployment})"
        )
        common(pf)
        obs_dump_opt(pf)
        pf.set_defaults(func=_cmd_figure)

    pc = sub.add_parser("compare", help="compare policies on a scenario")
    common(pc)
    pc.add_argument("--regions", type=int, choices=(2, 3), default=3)
    pc.add_argument(
        "--policies",
        type=_arg(_split_csv, _policy_name),
        default="sensible-routing,available-resources,exploration,uniform",
    )
    pc.set_defaults(func=_cmd_compare)

    pe = sub.add_parser(
        "export", help="dump a figure's series to CSV for external plotting"
    )
    common(pe)
    pe.add_argument("figure", choices=tuple(FIGURES))
    pe.add_argument("--prefix", default="acm_traces")
    pe.set_defaults(func=_cmd_export)

    pp = sub.add_parser(
        "plot", help="render a figure's series as standalone SVG charts"
    )
    common(pp)
    pp.add_argument("figure", choices=tuple(FIGURES))
    pp.add_argument("--prefix", default="acm_figure")
    pp.set_defaults(func=_cmd_plot)

    prr = sub.add_parser(
        "reproduce",
        help="run both figures and write the full artefact bundle",
    )
    common(prr)
    prr.add_argument("--out", default="results")
    prr.set_defaults(func=_cmd_reproduce)

    pl = sub.add_parser(
        "plan", help="capacity planning: size a pool for a target RMTTF"
    )
    pl.add_argument("--instance-type", default="m3.medium")
    pl.add_argument("--rate", type=_arg(_positive), required=True,
                    help="expected request rate (req/s)")
    pl.add_argument("--target", type=_arg(_positive), required=True,
                    help="target RMTTF in seconds")
    pl.add_argument("--rejuvenation-time", type=_arg(_non_negative),
                    default=120.0)
    pl.add_argument("--threshold", type=_arg(_non_negative), default=240.0)
    pl.set_defaults(func=_cmd_plan)

    pr = sub.add_parser(
        "robustness",
        help="run the paper-shape checks across several seeds",
    )
    common(pr)
    pr.add_argument("figure", choices=tuple(FIGURES))
    pr.add_argument(
        "--seeds", type=_arg(_split_csv, _int_at_least(0)), default="7,11,23"
    )
    pr.set_defaults(func=_cmd_robustness)

    pk = sub.add_parser(
        "chaos",
        help="run a seeded resilience campaign under fault injection",
    )
    pk.add_argument("campaign", choices=(*CAMPAIGNS, "all", "list"))
    pk.add_argument("--eras", type=_arg(_campaign_eras), default=None,
                    help="override the campaign's default era count")
    add_seed_option(pk)
    pk.add_argument(
        "--workers",
        type=_arg(_int_at_least(1)),
        default=1,
        help="worker processes for 'chaos all' (fleet executor)",
    )
    obs_dump_opt(pk)
    pk.set_defaults(func=_cmd_chaos)

    po = sub.add_parser(
        "obs", help="summarise a telemetry dump written by --obs-dump"
    )
    po.add_argument("dump", help="path to the JSON telemetry dump")
    po.add_argument(
        "--chrome",
        default=None,
        metavar="PATH",
        help="also export the spans as a Chrome/Perfetto trace",
    )
    po.add_argument("--top", type=_arg(_int_at_least(1)), default=5,
                    help="rows per summary section")
    po.set_defaults(func=_cmd_obs)

    ps = sub.add_parser(
        "sweep",
        help="parallel, resumable grid sweep on the fleet executor",
    )
    ps.add_argument(
        "--scenarios",
        default="three-region",
        help="comma list of scenario keys: two-region,three-region",
    )
    ps.add_argument(
        "--policies",
        default="sensible-routing,available-resources,exploration",
        help="comma list of routing policies (one grid axis)",
    )
    ps.add_argument(
        "--loads",
        default="1.0",
        help="comma list of client multipliers (one grid axis)",
    )
    ps.add_argument(
        "--replicates",
        type=int,
        default=3,
        help="seed replicates per cell (seeds derive from --seed)",
    )
    common(ps, eras=60)
    for axis in AXES:
        flag = "--" + axis.spec_field.replace("_", "-")
        ps.add_argument(flag, default=axis.off_token, help=axis.help)
    ps.add_argument(
        "--campaigns",
        default="",
        help="comma list of chaos campaigns appended as extra cells",
    )
    ps.add_argument("--workers", type=_arg(_int_at_least(1)), default=1)
    ps.add_argument(
        "--store",
        default="results/fleet-store",
        metavar="DIR",
        help="content-addressed result store directory",
    )
    ps.add_argument(
        "--resume",
        action="store_true",
        help="reuse completed jobs already in the store",
    )
    ps.add_argument(
        "--dry-run",
        action="store_true",
        help="list the expanded jobs (order, seeds, digests) and exit",
    )
    ps.add_argument(
        "--gc",
        action="store_true",
        help="prune store entries not matching this spec's digests",
    )
    ps.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-job wall-clock timeout (hung workers are killed)",
    )
    ps.add_argument(
        "--retries",
        type=_arg(_int_at_least(0)),
        default=1,
        help="retries per crashed/hung/failed job",
    )
    ps.add_argument(
        "--csv",
        default=None,
        metavar="PATH",
        help="write the aggregate cell table as CSV (with manifest)",
    )
    obs_dump_opt(ps)
    ps.set_defaults(func=_cmd_sweep)

    pm = sub.add_parser("models", help="F2PM model-selection table")
    add_seed_option(pm)
    pm.add_argument("--instance-type", default="m3.medium")
    pm.set_defaults(func=_cmd_models)

    # Built with argument_default=SUPPRESS and dest = the field name: the
    # namespace holds only what was typed, and every default lives on the
    # config dataclass the command builds (ServeConfig; SloConfig under an
    # "slo." dest prefix).  The flags that keep a default here are not
    # config fields.
    psv = sub.add_parser(
        "serve",
        argument_default=argparse.SUPPRESS,
        help="serve a deployment on the wall clock (HTTP ingress + MAPE)",
    )
    psv.add_argument(
        "--scenario",
        type=_arg(_scenario_name),
        default="two-region",
        help="'two-region' or 'three-region'",
    )
    psv.add_argument("--host", default="127.0.0.1")
    psv.add_argument(
        "--port",
        type=_arg(_port),
        default=8080,
        help="listen port (0 = ephemeral)",
    )
    psv.add_argument(
        "--policy", help="forward-fraction policy run at the leader"
    )
    psv.add_argument(
        "--era-s", type=_arg(_positive), help="MAPE period, clock seconds"
    )
    psv.add_argument(
        "--window-s",
        type=_arg(_positive),
        help="Analyze report-gather window, clock seconds",
    )
    psv.add_argument(
        "--speed",
        type=_arg(_positive),
        default=1.0,
        help="clock seconds per wall second (compress eras for demos)",
    )
    psv.add_argument(
        "--duration",
        type=_arg(_positive),
        default=None,
        help="stop after this many clock seconds (default: run until ^C)",
    )
    psv.add_argument(
        "--admission-rps",
        type=_arg(_positive),
        help="per-region token-bucket admission rate (real req/s)",
    )
    psv.add_argument(
        "--slo-p95",
        dest="slo.p95_target_s",
        type=_arg(_positive),
        metavar="S",
        help=(
            "enable the SLO ladder with this p95 latency target in "
            "seconds (default: no SLO gate)"
        ),
    )
    psv.add_argument(
        "--slo-window",
        dest="slo.window_s",
        type=_arg(_positive),
        metavar="S",
        help="SLO rolling-window length, clock seconds",
    )
    psv.add_argument(
        "--slo-dwell",
        dest="slo.min_dwell_s",
        type=_arg(_non_negative),
        metavar="S",
        help="minimum dwell before a degraded region may recover",
    )
    add_seed_option(psv)
    psv.set_defaults(func=_cmd_serve)

    plt = sub.add_parser(
        "loadtest",
        help=(
            "open-loop load test; without --url boots an in-process "
            "deployment and measures failover MTTR under a mid-run "
            "region blackout"
        ),
    )
    plt.add_argument(
        "--url",
        default=None,
        help="target an external 'repro serve' (skips the chaos phases)",
    )
    plt.add_argument(
        "--scenario",
        type=_arg(_scenario_name),
        default="two-region",
        help="in-process deployment",
    )
    plt.add_argument(
        "--victim",
        default=None,
        help="region to black out mid-run (default: last region)",
    )
    plt.add_argument(
        "--rate",
        type=_arg(_positive),
        default=300.0,
        help="mean arrival rate, req/s",
    )
    plt.add_argument(
        "--duration",
        type=_arg(_positive),
        default=6.0,
        help="total wall seconds (in-process mode: 3 equal phases)",
    )
    plt.add_argument(
        "--schedule",
        default="poisson",
        choices=["poisson", "diurnal", "flash"],
        help="arrival schedule shape",
    )
    plt.add_argument("--connections", type=_arg(_int_at_least(1)), default=4)
    plt.add_argument(
        "--era-s",
        type=_arg(_positive),
        default=30.0,
        help="in-process mode: MAPE period, clock seconds",
    )
    plt.add_argument(
        "--speed",
        type=_arg(_positive),
        default=60.0,
        help="in-process mode: clock compression factor",
    )
    add_seed_option(plt)
    plt.set_defaults(func=_cmd_loadtest)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)

