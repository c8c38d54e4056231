"""Per-layer probes: timed loops over public functions, run from the harness.

Costs too fine for a span (a wrapper on ``Simulator.step`` would dominate it)
are measured here instead.  Each probe returns the median over batches of the
time per call, in the unit its metric name carries.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import time

import numpy as np

PROBE_BUDGET_S = 0.15

#: What the two calibrations below take on a quiet host of this class.  The
#: shared host's speed swings by tens of percent for seconds at a time; a
#: calibration taken beside every timed slice tracks most of it, so sim
#: throughput is reported per *reference* second: host seconds scaled by
#: (calibration now / calibration on the quiet host).
SPIN_REF_S = 0.00125
ALL_CORES_SPINS = 120
ALL_CORES_REF_S = 0.19

#: The SLO gate of ``serve_fault_slo``: on every request, never degrading.
SLO_KWARGS = {"p95_target_s": 10.0, "window_s": 5.0, "min_dwell_s": 5.0}


def per_call_s(fn, batch: int, budget_s: float = PROBE_BUDGET_S) -> float:
    """Median over batches of seconds per call of ``fn``."""
    clock = time.perf_counter
    samples = []
    t_end = clock() + budget_s
    while len(samples) < 5 or clock() < t_end:
        t0 = clock()
        for _ in range(batch):
            fn()
        samples.append((clock() - t0) / batch)
    return statistics.median(samples)


def spin_s() -> float:
    """A fixed pure-Python spin (~1 ms): the host's speed right now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(20_000):
        x += i * i
    return time.perf_counter() - t0


def one_core_factor() -> float:
    """How much slower than the reference host this core runs right now."""
    return spin_s() / SPIN_REF_S


def _burn() -> None:
    for _ in range(ALL_CORES_SPINS):
        spin_s()


def all_cores_factor() -> float:
    """The same, with every core busy: one spinning child per core at once.

    For a workload that keeps all cores busy.  The one-core spin runs while
    the other core idles and does not track that regime (scaling
    ``sweep_grid`` by it tripled its run-to-run spread; this one halves it).
    Forked, not spawned: a fresh interpreter would take longer to start than
    the spin takes to run.
    """
    ctx = multiprocessing.get_context("fork")
    t0 = time.perf_counter()
    children = [ctx.Process(target=_burn) for _ in os.sched_getaffinity(0)]
    for child in children:
        child.start()
    for child in children:
        child.join()
    return (time.perf_counter() - t0) / ALL_CORES_REF_S


def calibrate_ms() -> float:
    """The spin plus a fixed matmul, median of 15; taken around a workload."""
    a = np.full((96, 96), 1.0001)
    samples = []
    for _ in range(15):
        t0 = time.perf_counter()
        spin_s()
        (a @ a).sum()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def span_cost_s() -> float:
    """What one wrapper span adds to a call: wrapped no-op minus bare no-op."""
    from spans import Tracer

    class Target:
        def noop(self) -> None:
            return None

    target = Target()
    bare = per_call_s(target.noop, 5000, 0.05)
    tracer = Tracer()
    tracer.wrap(Target, "noop", "probe")
    try:
        wrapped = per_call_s(target.noop, 5000, 0.05)
    finally:
        tracer.uninstall()
    return max(wrapped - bare, 0.0)


def sim_event_ns(seed: int) -> float:
    """``Simulator.schedule_pooled`` + ``step`` with 10 000 events pending."""
    from repro.sim import Simulator

    sim = Simulator()
    rng = np.random.default_rng([seed, 11])
    delays = rng.uniform(0.5, 1.5, size=4096).tolist()

    def noop() -> None:
        return None

    for k in range(10_000):
        sim.schedule_pooled(delays[k % 4096], noop)
    state = {"k": 0}

    def one() -> None:
        k = state["k"] = (state["k"] + 1) % 4096
        sim.schedule_pooled(delays[k], noop)
        sim.step()

    return per_call_s(one, 2000) * 1e9


def anomaly_inject_us(seed: int) -> float:
    """``AnomalyInjector.inject`` at pcam_fleet_10k's requests per VM-era."""
    from repro.workload.anomalies import AnomalyInjector

    injector = AnomalyInjector(np.random.default_rng([seed, 12]))
    return per_call_s(lambda: injector.inject(22), 2000) * 1e6


def predict_us_per_krow(model, rows: np.ndarray) -> float:
    """``TrainedModel.predict`` on 1 k and 10 k rows: us per 1 000 rows."""
    small = np.resize(rows, (1_000, rows.shape[1]))
    large = np.resize(rows, (10_000, rows.shape[1]))
    per_krow = [
        per_call_s(lambda: model.predict(small), 5) * 1e6,
        per_call_s(lambda: model.predict(large), 1) * 1e6 / 10.0,
    ]
    return statistics.mean(per_krow)


def channel_msg_us(seed: int) -> float:
    """``ReliableChannel.send`` -> deliver -> ack on a simulated clock."""
    from repro.overlay import (
        MessageBus,
        OverlayNetwork,
        ReliableChannel,
        Router,
    )
    from repro.sim import Simulator
    from repro.sim.rng import RngRegistry

    net = OverlayNetwork.full_mesh({("a", "b"): 10.0})
    sim = Simulator()
    bus = MessageBus(sim=sim, router=Router(net))
    jitter = RngRegistry(seed=seed).stream("reliable/jitter")
    channel = ReliableChannel(bus, jitter)
    channel.attach("a", lambda msg: None)
    channel.attach("b", lambda msg: None)

    def one() -> None:
        channel.send("a", "b", "rmttf-report", {"rmttf": 410.0})
        sim.run()

    return per_call_s(one, 200) * 1e6


def slo_probes() -> tuple[float, float]:
    """(observe+status us, ladder update us) at a 2 500-sample window."""
    from repro.slo import PriorityLadder, SloConfig, SloEvaluator

    cfg = SloConfig(**SLO_KWARGS)
    evaluator = SloEvaluator(cfg)
    step = cfg.window_s / 2500.0
    state = {"now": 0.0}

    def observe() -> None:
        now = state["now"] = state["now"] + step
        evaluator.observe_latency(now, 0.0002 + (now % 0.001))
        evaluator.observe_outcome(now, True)
        evaluator.status(now)

    for _ in range(3000):
        observe()
    observe_us = per_call_s(observe, 1000) * 1e6
    ladder = PriorityLadder(cfg, 0.0)
    status = evaluator.status(state["now"])
    now = state["now"]
    ladder_us = per_call_s(lambda: ladder.update(now, status), 2000) * 1e6
    return observe_us, ladder_us


def telemetry_probes() -> tuple[float, float]:
    """(counter inc ns, histogram observe ns) on enabled handles."""
    from repro.obs.telemetry import Telemetry

    tel = Telemetry(enabled=True)
    counter = tel.counter("bench_probe_total", region="r")
    histogram = tel.histogram("bench_probe_seconds")
    return (
        per_call_s(counter.inc, 5000) * 1e9,
        per_call_s(lambda: histogram.observe(0.0003), 5000) * 1e9,
    )


def handle_request_probes(scenario: str, seed: int, slo: bool) -> dict:
    """In-process ``AcmService.handle_request`` and the Prometheus render.

    With ``slo`` the gate is armed, and a second figure is taken with one
    region blacked out (the failover branch).
    """
    from repro.experiments.serve_campaign import resolve_scenario
    from repro.obs.exporters import to_prometheus_text
    from repro.serve import AcmService, ServeConfig, WallClock
    from repro.slo import SloConfig

    service = AcmService(
        resolve_scenario(scenario),
        WallClock(speed=30.0),
        ServeConfig(
            seed=seed,
            admission_rps=1e9,
            slo=SloConfig(**SLO_KWARGS) if slo else None,
        ),
    )
    state = {"k": 0}

    def cycle(regions):
        def one() -> None:
            k = state["k"] = state["k"] + 1
            status, _ = service.handle_request(regions[k % len(regions)])
            if status != 200:
                raise RuntimeError(f"handle_request returned {status}")

        return one

    out = {"plain_us": per_call_s(cycle(service.regions), 1000) * 1e6}
    snap = service.telemetry.snapshot()["metrics"]
    manifest = service.telemetry.manifest
    out["prometheus_text_ms"] = (
        per_call_s(lambda: to_prometheus_text(snap, manifest), 3) * 1e3
    )
    if slo:
        service.chaos.region_blackout(service.regions[-1])
        # arrivals at live regions only: a sampled dead target takes the
        # failover branch
        live = service.regions[:-1]
        out["failover_us"] = per_call_s(cycle(live), 1000) * 1e6
    return out
