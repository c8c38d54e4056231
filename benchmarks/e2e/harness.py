"""What every workload shares: the result record and the sim repeat loop."""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
from dataclasses import dataclass, field

import probes
from catalogue import OUT_DIR
from spans import Tracer

#: Calibration may drift this much across a workload before it is "noisy".
NOISY_DRIFT = 0.15


@dataclass
class Result:
    """One workload's pass: counts, metric values, the samples behind them."""

    workload: str
    trace: bool
    attempted: int = 0
    failed: int = 0
    #: metric name -> reported value
    metrics: dict = field(default_factory=dict)
    #: metric name -> the sample the value summarises
    samples: dict = field(default_factory=dict)
    #: exact simulated statistics / server counters
    counts: dict = field(default_factory=dict)
    #: failed output checks
    problems: list = field(default_factory=list)
    #: measurement caveats (noisy host, generator ran late, ...)
    flags: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def put(self, name: str, values) -> None:
        """Report ``name`` as the median of ``values`` and keep the sample."""
        values = [float(v) for v in values]
        self.samples[name] = values
        self.metrics[name] = statistics.median(values)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def trace_digest(recorders) -> str:
    """blake2b over the recorders' long-format CSV rows, series,time,value."""
    h = hashlib.blake2b(digest_size=16)
    for traces in recorders:
        for name in traces.names():
            series = traces.series(name)
            rows = zip(series.times.tolist(), series.values.tolist())
            for t, v in rows:
                h.update(f"{name},{t!r},{v!r}\n".encode("utf-8"))
    return h.hexdigest()


def json_digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=float)
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


@dataclass
class Repeat:
    """One timed repeat of a sim workload."""

    #: host seconds of each timed slice; slice k is the same work every repeat
    slices: list
    #: the host-speed factors sampled beside the slices (1 = reference host)
    calib: list
    #: units of work in the whole repeat (eras, requests, VM-eras, jobs)
    units: float
    #: (p50, p95) of the simulated client response time, clock ms
    latency_ms: tuple
    #: exact simulated statistics; must not differ between repeats
    stats: dict
    operations: int = 1
    failed: int = 0
    problems: list = field(default_factory=list)

    @property
    def timed_s(self) -> float:
        return sum(self.slices)


class Stopwatch:
    """Times the slices of one repeat, sampling host speed before each."""

    def __init__(self, calibrate=probes.one_core_factor) -> None:
        self.calibrate = calibrate
        self.slices: list[float] = []
        self.calib: list[float] = []

    def time(self, fn, *args, **kwargs):
        """Run ``fn`` as the next slice, a calibration just before it."""
        self.calib.append(self.calibrate())
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.slices.append(time.perf_counter() - t0)
        return out


def host_factor(repeats: list[Repeat]) -> float:
    """How much slower than the reference host the repeats ran (1 = equal)."""
    return statistics.median(c for r in repeats for c in r.calib)


def steady_seconds(repeats: list[Repeat]) -> float:
    """Host seconds of one repeat, each slice at its median over the repeats.

    A neighbour's burst slows different slices in different repeats; taking
    the median per slice before summing drops it, where the median of whole
    repeats would keep whichever burst hit the middle repeat.
    """
    columns = zip(*(r.slices for r in repeats))
    return sum(statistics.median(column) for column in columns)


def put_setup(
    result: Result, import_s: float, setups: list, factors: list
) -> None:
    """``setup_s``: imports + the median set-up, in reference seconds.

    ``factors`` are one-core host factors sampled before each set-up.
    """
    factor = statistics.median(factors)
    host_s = import_s + statistics.median(setups)
    result.samples["setup_s"] = [(import_s + s) / factor for s in setups]
    result.metrics["setup_s"] = host_s / factor
    result.info["setup_host_s"] = host_s


def calibration(result: Result, before_ms: float, after_ms: float) -> None:
    """Record the calibration either side of the timed region; flag drift."""
    drift = abs(after_ms - before_ms) / before_ms
    if result.trace:
        result.metrics["bench.calib_ms"] = (before_ms + after_ms) / 2.0
        result.metrics["bench.calib_drift_share"] = drift
    result.info["calib_ms"] = [before_ms, after_ms]
    result.info["noisy"] = drift > NOISY_DRIFT
    if drift > NOISY_DRIFT:
        result.flags.append(
            f"noisy: calibration drifted {drift:.0%} across the workload"
        )


def _fold(result: Result, first: Repeat | None, rep: Repeat) -> Repeat:
    """Count ``rep`` into ``result``; returns the first repeat of the run."""
    result.attempted += rep.operations
    result.problems.extend(rep.problems)
    failed = rep.failed
    if first is not None and rep.stats != first.stats:
        result.problems.append(
            "simulated statistics differ between repeats of one seed"
        )
        failed = max(failed, 1)
    if rep.problems:
        failed = max(failed, 1)
    result.failed += failed
    return first or rep


def run_sim(
    workload,
    seed: int,
    seconds: float,
    trace: bool,
    import_s: float,
    smoke: bool = False,
) -> Result:
    """Set-up (several times), warm-up, then timed repeats for ``seconds``.

    Untraced: every repeat is timed bare and yields the end-to-end metrics.
    Traced: bare and wrapped repeats alternate, so the per-layer spans and
    their bare reference share the same minute of host weather.
    """
    result = Result(workload.name, trace)
    tracer = Tracer()
    clock = time.perf_counter

    if trace:
        workload.install_setup(tracer)
    setups = []
    factors = []
    ctx = None
    for _ in range(1 if trace or smoke else workload.setup_repeats):
        factors.append(probes.one_core_factor())
        t0 = clock()
        ctx = workload.setup(seed, tracer)
        setups.append(clock() - t0)
    tracer.uninstall()
    setup_spans = len(tracer.spans)
    workload.warm_up(ctx, seed)
    # after set-up and warm-up, not at process start: this host runs faster
    # for its first second or so after idling
    calib_before = probes.calibrate_ms()

    first = None
    bare: list[Repeat] = []
    wrapped: list[Repeat] = []
    budget = seconds * (0.7 if trace else 1.0)
    t_start = clock()
    while clock() - t_start < budget or len(bare) < (1 if smoke else 2):
        rep = workload.repeat(ctx, seed)
        first = _fold(result, first, rep)
        bare.append(rep)
        if trace:
            workload.install(tracer)
            try:
                rep = workload.repeat(ctx, seed)
            finally:
                tracer.uninstall()
            first = _fold(result, first, rep)
            wrapped.append(rep)
    result.info["wall_s"] = clock() - t_start
    calibration(result, calib_before, probes.calibrate_ms())
    result.counts.update(first.stats)

    if not trace:
        factor = host_factor(bare)
        per_host_s = first.units / steady_seconds(bare)
        result.samples["work_per_s"] = [
            rep.units / rep.timed_s * host_factor([rep]) for rep in bare
        ]
        result.metrics["work_per_s"] = per_host_s * factor
        result.info["host_factor"] = factor
        result.info["work_per_host_s"] = per_host_s
        p50, p95 = first.latency_ms
        result.metrics["latency_p50_ms"] = p50
        result.metrics["latency_p95_ms"] = p95
        result.metrics["peak_rss_mb"] = workload.peak_rss_mb()
        put_setup(result, import_s, setups, factors)
        return result

    # The wrappers' cost as spans recorded x the measured cost of one span:
    # the plain difference of the two walls is kept beside it, but on a
    # shared host it is mostly the neighbours'.
    traced_s = sum(r.timed_s for r in wrapped)
    n_spans = len(tracer.spans) - setup_spans
    result.metrics["bench.trace_overhead_share"] = (
        n_spans * probes.span_cost_s() / traced_s
    )
    result.info["traced_over_bare_share"] = (
        steady_seconds(wrapped) / steady_seconds(bare) - 1.0
    )
    # self times partition the top-level spans, so this is the share of the
    # traced repeats' timed wall that the per-layer table accounts for
    result.info["span_coverage"] = tracer.top_level_s(setup_spans) / traced_s
    workload.layer_metrics(result, tracer, ctx, seed)
    result.metrics["bench.failed_share"] = result.failed / result.attempted
    write_trace(workload.name, tracer, seed)
    return result


def write_trace(workload: str, tracer: Tracer, seed: int) -> None:
    """Chrome-trace JSON and the per-layer self-time table, under out/."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload}-seed{seed}"
    tracer.write_chrome_trace(f"{stem}.trace.json")
    with open(f"{stem}.selftime.json", "w", encoding="utf-8") as fh:
        json.dump(tracer.table(), fh, indent=1, sort_keys=True)
