"""The two serving workloads: a ``repro serve`` child driven over loopback.

The child is pinned to one core and this process (the generator) to the
other.  Untraced: closed-loop legs give capacity and one open-loop leg at a
fixed rate gives latency from the due instant, both read against the
reference server (``reference_server.py``) loaded beside the child.  Traced:
nothing can be wrapped inside the child, so the per-layer numbers are
in-process probes of the same public functions, ``/proc`` CPU shares,
``/metrics`` counter deltas and the ladder, all in host time.
"""

from __future__ import annotations

import contextlib
import os
import re
import statistics
import time
from dataclasses import dataclass

import numpy as np

import loadgen
import probes
from catalogue import E2E_DIR, SRC_DIR
from harness import Result, calibration, put_setup
from stats import highest_supported, knee, percentile, step_passes

CONNECTIONS = 2
OPEN_RATE_RPS = 1500.0
LADDER_RPS = (1500.0, 3000.0, 4500.0, 6000.0, 7500.0)
#: An open-loop leg is cut into windows by due instant and a closed-loop
#: phase into short legs; each window and leg is read as a ratio to the
#: reference server's, and a metric is the median of those ratios, so a stall
#: or a slow spell of the host moves both sides of a ratio, or one ratio of
#: many.
WINDOW_S = 0.2
CLOSED_LEG_S = 0.05
#: The reference server on a quiet host of this class; ratios are reported in
#: these units (requests per reference second, reference milliseconds).
REF_CAPACITY_RPS = 20_000.0
REF_P50_MS = 0.20
REF_P95_MS = 0.37
SPEED = 30.0  # clock seconds per wall second: one 30 s era per wall second
ERA_S = 30.0
#: A leg whose generator ran later than this (p99) measured the generator.
MAX_LAG_P99_MS = 1.0
SETUP_REPEATS = 3

_METRIC_LINE = re.compile(r"^([a-zA-Z_:][\w:]*)(?:\{[^}]*\})?\s+(\S+)$")
_clock = time.perf_counter


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    scenario: str
    slo: bool
    fault_region: str | None

    def argv(self, seed: int) -> list[str]:
        args = [
            "--scenario", self.scenario,
            "--speed", f"{SPEED:g}",
            "--era-s", f"{ERA_S:g}",
            "--admission-rps", "100000",
            "--seed", str(seed),
        ]
        if self.slo:
            # evaluator + ladder on every request; 10 s never degrades
            slo = probes.SLO_KWARGS
            args += [
                "--slo-p95", f"{slo['p95_target_s']:g}",
                "--slo-window", f"{slo['window_s']:g}",
                "--slo-dwell", f"{slo['min_dwell_s']:g}",
            ]
        return loadgen.repro_serve_argv(args)


SERVE_WORKLOADS = {
    w.name: w
    for w in (
        ServeWorkload("serve_steady", "two-region", False, None),
        ServeWorkload(
            "serve_fault_slo", "three-region", True, "region3-munich"
        ),
    )
}


def scrape(admin: loadgen.Connection) -> tuple[dict[str, float], float]:
    """``GET /metrics``: (value per metric over its labels, round trip s)."""
    status, body, rtt_s = admin.call("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"GET /metrics -> {status}")
    totals: dict[str, float] = {}
    for line in body.decode("utf-8").splitlines():
        match = _METRIC_LINE.match(line)
        if match:
            name, value = match.groups()
            totals[name] = totals.get(name, 0.0) + float(value)
    return totals, rtt_s


def check_plan(admin: loadgen.Connection, result: Result, when: str) -> None:
    matrix = np.array(admin.call_json("GET", "/plan")["matrix"])
    stochastic = np.allclose(matrix.sum(axis=1), 1.0, atol=1e-6)
    result.check(
        bool(stochastic and (matrix >= 0).all()),
        f"{when}: plan rows are not stochastic",
    )


class Session:
    """A booted child, the generator's connections, and counts of what it sent.

    Untraced, the reference server runs beside the child.  Both servers sit
    on one core and the generator on the other.
    """

    def __init__(
        self, workload: ServeWorkload, seed: int, reference: bool
    ) -> None:
        self.workload = workload
        self.seed = seed
        child_cpu, self.gen_cpu = loadgen.split_cpus()
        # spin for replies only on a core of the generator's own
        self.poll = self.gen_cpu is not None
        self.child = loadgen.ServeChild(
            workload.argv(seed), child_cpu, str(SRC_DIR)
        )
        self.ref_child = (
            loadgen.ServeChild(
                [str(E2E_DIR / "reference_server.py")], child_cpu
            )
            if reference
            else None
        )
        self._stack = contextlib.ExitStack()
        self.client_ok = 0
        self.client_refused = 0
        self.attempted = 0
        self.failed = 0

    def _connect(self, child: loadgen.ServeChild, n: int) -> list:
        conns = [loadgen.Connection(child.host, child.port) for _ in range(n)]
        for conn in conns:
            self._stack.callback(conn.close)
        return conns

    def __enter__(self) -> "Session":
        with contextlib.ExitStack() as stack:
            self._stack = stack  # unwound right here if anything below fails
            for child in filter(None, (self.child, self.ref_child)):
                stack.enter_context(child)
            stack.callback(os.sched_setaffinity, 0, os.sched_getaffinity(0))
            if self.gen_cpu is not None:
                os.sched_setaffinity(0, {self.gen_cpu})
            (self.admin,) = self._connect(self.child, 1)
            regions = self.admin.call_json("GET", "/regions")["regions"]
            regions = sorted(regions)
            rng = np.random.default_rng([self.seed, 1])
            self.target = loadgen.Target.data_path(
                self._connect(self.child, CONNECTIONS),
                regions,
                rng.integers(0, len(regions), size=8192),
            )
            self.ref_target = (
                loadgen.Target.reference(
                    self._connect(self.ref_child, CONNECTIONS)
                )
                if self.ref_child is not None
                else None
            )
            self.before, _ = scrape(self.admin)
            self._stack = stack.pop_all()
        return self

    def __exit__(self, *exc) -> None:
        self._stack.close()

    def _account(self, leg: loadgen.Leg) -> loadgen.Leg:
        self.client_ok += leg.ok
        self.client_refused += leg.refused
        self.attempted += leg.scheduled
        self.failed += leg.failed
        return leg

    @staticmethod
    def _reference_ok(leg: loadgen.Leg) -> loadgen.Leg:
        if leg.failed:
            raise RuntimeError(
                f"the reference server failed {leg.failed} of {leg.scheduled}"
            )
        return leg

    def closed(
        self, seconds: float, connections: int = CONNECTIONS
    ) -> loadgen.Leg:
        return self._account(
            loadgen.closed_loop(self.target, seconds, self.poll, connections)
        )

    def closed_pair(self) -> tuple[float, float]:
        """A short closed-loop leg on the child, then one on the reference.

        Returns (child req/s, reference req/s).
        """
        leg = self.closed(CLOSED_LEG_S)
        ref = self._reference_ok(
            loadgen.closed_loop(self.ref_target, CLOSED_LEG_S, self.poll)
        )
        return leg.ok / leg.wall_s, ref.ok / ref.wall_s

    def open(
        self, rate_rps: float, seconds: float, tag: int, actions=None
    ) -> loadgen.Leg:
        """An open-loop leg on the child alone."""
        schedule = loadgen.poisson_schedule(rate_rps, seconds, self.seed, tag)
        (leg,) = loadgen.open_loop(
            [self.target], schedule, seconds, self.poll, actions
        )
        return self._account(leg)

    def open_pair(self, rate_rps: float, seconds: float, tag: int, actions):
        """An open-loop leg sending each due request to child and reference."""
        schedule = loadgen.poisson_schedule(rate_rps, seconds, self.seed, tag)
        leg, ref = loadgen.open_loop(
            [self.target, self.ref_target],
            schedule,
            seconds,
            self.poll,
            actions,
        )
        return self._account(leg), self._reference_ok(ref)

    def fault_actions(self, leg_s: float, timings: dict) -> list | None:
        """Blackout at 0.3 of the leg and heal at 0.7, for the fault workload.

        Waits first, so that the blackout lands at mid-era.
        """
        region = self.workload.fault_region
        if region is None:
            return None
        blackout_s = 0.3 * leg_s
        now = self.admin.call_json("GET", "/healthz")["clock_now"]
        start_phase = ERA_S / 2.0 - blackout_s * SPEED
        time.sleep(((start_phase - now) % ERA_S) / SPEED)

        def post(path: str, key: str):
            def fire() -> None:
                status, _, rtt_s = self.admin.call(
                    "POST", f"{path}?region={region}"
                )
                if status != 200:
                    raise RuntimeError(f"POST {path} -> {status}")
                timings[key] = rtt_s * 1e3

            return fire

        return [
            (blackout_s, post("/chaos/blackout", "blackout_ms")),
            (0.7 * leg_s, post("/chaos/heal", "heal_ms")),
        ]

    def conservation(self, result: Result) -> dict[str, float]:
        """Check client counts against the server's counter deltas.

        Fills the result's counts and operations; returns the deltas.
        """
        after, _ = scrape(self.admin)
        delta = {k: after[k] - self.before.get(k, 0.0) for k in after}
        served = delta.get("acm_ingress_served_total", 0.0)
        shed = delta.get("acm_ingress_shed_total", 0.0)
        result.check(
            served == self.client_ok,
            f"client 200s {self.client_ok} != served {served:g}",
        )
        result.check(
            shed == self.client_refused,
            f"client 429s {self.client_refused} != shed {shed:g}",
        )
        result.counts.update(
            {
                k: int(v)
                for k, v in delta.items()
                if k.startswith("acm_ingress_") and k.endswith("_total")
            }
        )
        result.attempted, result.failed = self.attempted, self.failed
        return delta


def _lag_p99(result: Result, leg: loadgen.Leg, what: str) -> float:
    lag_p99 = percentile(leg.lag_ms, 0.99)
    if lag_p99 > MAX_LAG_P99_MS:
        result.flags.append(
            f"{what}: generator lag p99 {lag_p99:.2f} ms, not server latency"
        )
    return lag_p99


def _windows(leg: loadgen.Leg, seconds: float) -> list[list]:
    """The leg's 200 latencies, grouped by the window they were due in."""
    n_windows = max(1, int(round(seconds / WINDOW_S)))
    windows: list[list] = [[] for _ in range(n_windows)]
    for due_s, ms in zip(leg.due_s, leg.latencies_ms):
        windows[min(int(due_s / WINDOW_S), n_windows - 1)].append(ms)
    return windows


def run_serve(
    workload: ServeWorkload,
    seed: int,
    seconds: float,
    trace: bool,
    import_s: float,
    smoke: bool = False,
) -> Result:
    if trace:
        return _run_traced(workload, seed, seconds)
    result = Result(workload.name, trace=False)
    boots = []
    factors = []
    for _ in range(0 if smoke else SETUP_REPEATS - 1):
        factors.append(probes.one_core_factor())
        with loadgen.ServeChild(
            workload.argv(seed), None, str(SRC_DIR)
        ) as child:
            boots.append(child.boot_s)
    factors.append(probes.one_core_factor())
    t_start = _clock()
    with Session(workload, seed, reference=True) as s:
        boots.append(s.child.boot_s)
        s.closed(0.05 * seconds)  # warm-up
        loadgen.closed_loop(s.ref_target, 0.05 * seconds, s.poll)
        calib_before = probes.calibrate_ms()
        check_plan(s.admin, result, "before load")

        # half the closed-loop pairs before the open-loop leg and half after,
        # so that they sample the host over the whole run
        n_pairs = max(1, int(0.1 * seconds / CLOSED_LEG_S))
        pairs = [s.closed_pair() for _ in range(n_pairs)]

        open_s = 0.5 * seconds
        timings: dict = {}
        actions = s.fault_actions(open_s, timings)
        leg, ref = s.open_pair(OPEN_RATE_RPS, open_s, 2, actions)
        _lag_p99(result, leg, "open loop")
        if actions is not None:
            result.check(
                len(timings) == 2, "fault: blackout and heal did not both land"
            )
        pairs += [s.closed_pair() for _ in range(n_pairs)]
        check_plan(s.admin, result, "after load")
        calibration(result, calib_before, probes.calibrate_ms())

        result.put(
            "work_per_s",
            [REF_CAPACITY_RPS * rps / ref_rps for rps, ref_rps in pairs],
        )
        both = [
            (w, r)
            for w, r in zip(_windows(leg, open_s), _windows(ref, open_s))
            if min(len(w), len(r)) >= 20
        ]
        host = {
            "capacity_rps": statistics.median(rps for rps, _ in pairs),
            "reference_capacity_rps": statistics.median(r for _, r in pairs),
        }
        for name, q, unit_ms in (
            ("latency_p50_ms", 0.50, REF_P50_MS),
            ("latency_p95_ms", 0.95, REF_P95_MS),
        ):
            mine = [percentile(w, q) for w, _ in both]
            theirs = [percentile(r, q) for _, r in both]
            result.put(name, [unit_ms * a / b for a, b in zip(mine, theirs)])
            host[name] = statistics.median(mine)
            host[f"reference_{name}"] = statistics.median(theirs)
        result.info["host"] = host
        s.conservation(result)
        result.metrics["peak_rss_mb"] = s.child.peak_rss_mb()
    result.info["wall_s"] = _clock() - t_start
    put_setup(result, import_s, boots, factors)
    return result


def _ladder(s: Session, result: Result, seconds: float) -> loadgen.Leg:
    """Open-loop steps up the ladder until one fails; returns the first leg."""
    steps = []
    first = None
    for k, rate in enumerate(LADDER_RPS):
        for attempt in range(2):
            leg = s.open(rate, 0.1 * seconds, tag=10 + 2 * k + attempt)
            step = {
                "rate_rps": rate,
                "offered_rps": leg.offered_rps,
                "achieved_rps": leg.achieved_rps,
                "scheduled": leg.scheduled,
                "ok_in_limit": leg.ok_in_limit,
                "lag_p99_ms": percentile(leg.lag_ms, 0.99),
            }
            # a step lost while the generator itself ran late says nothing
            # about the server: measure it once more
            if step_passes(step) or step["lag_p99_ms"] <= MAX_LAG_P99_MS:
                break
        first = first or leg
        steps.append(step)
        if not step_passes(step):
            break  # higher rates only queue deeper
    result.metrics["serve.knee_rps"] = knee(steps)
    result.info["ladder"] = steps
    return first


def _run_traced(workload: ServeWorkload, seed: int, seconds: float) -> Result:
    result = Result(workload.name, trace=True)
    m = result.metrics

    in_process = probes.handle_request_probes(
        workload.scenario, seed, workload.slo
    )
    handle_us = in_process["plain_us"]
    if workload.slo:
        m["serve.handle_request_slo_us"] = handle_us
        m["serve.handle_request_failover_us"] = in_process["failover_us"]
        observe_us, ladder_us = probes.slo_probes()
        m["slo.observe_status_us"] = observe_us
        m["slo.ladder_update_us"] = ladder_us
    else:
        m["serve.handle_request_us"] = handle_us
    m["obs.prometheus_text_ms"] = in_process["prometheus_text_ms"]
    counter_ns, histogram_ns = probes.telemetry_probes()
    m["obs.counter_inc_ns"] = counter_ns
    m["obs.histogram_observe_ns"] = histogram_ns
    m["overlay.channel_msg_us"] = probes.channel_msg_us(seed)

    t_start = _clock()
    with Session(workload, seed, reference=False) as s:
        m["serve.boot_s"] = s.child.boot_s
        s.closed(0.05 * seconds)
        calib_before = probes.calibrate_ms()

        leg = s.closed(0.1 * seconds, connections=1)
        m["serve.http_rtt_us"] = statistics.median(leg.latencies_ms) * 1e3
        m["serve.ingress_overhead_us"] = m["serve.http_rtt_us"] - handle_us

        child_cpu0 = s.child.cpu_seconds()
        self_cpu0 = loadgen.self_cpu_seconds()
        leg = s.closed(0.2 * seconds)
        child_cpu = s.child.cpu_seconds() - child_cpu0
        m["serve.cpu_share"] = child_cpu / leg.wall_s
        m["loadgen.cpu_share"] = (
            loadgen.self_cpu_seconds() - self_cpu0
        ) / leg.wall_s
        if m["serve.cpu_share"] < 0.9:
            result.flags.append(
                f"serve.cpu_share {m['serve.cpu_share']:.2f} < 0.9: "
                "the child was not saturated"
            )

        if workload.fault_region is None:
            leg = _ladder(s, result, seconds)
        else:
            leg_s = 0.45 * seconds
            timings: dict = {}
            actions = s.fault_actions(leg_s, timings)
            leg = s.open(OPEN_RATE_RPS, leg_s, tag=2, actions=actions)
            m["chaos.blackout_apply_ms"] = timings.get("blackout_ms", 0.0)
        m["loadgen.sched_lag_p99_ms"] = _lag_p99(
            result, leg, "open loop at 1500 req/s"
        )
        m["loadgen.sent"] = leg.scheduled
        tail = highest_supported(len(leg.latencies_ms))
        m["loadgen.latency_p99_ms"] = percentile(
            leg.latencies_ms, min(tail, 0.99)
        )

        calibration(result, calib_before, probes.calibrate_ms())
        _, scrape_s = scrape(s.admin)
        m["serve.metrics_scrape_ms"] = scrape_s * 1e3
        delta = s.conservation(result)
        for metric, counter in (
            ("serve.served_total", "acm_ingress_served_total"),
            ("serve.shed_total", "acm_ingress_shed_total"),
            ("serve.failover_total", "acm_ingress_failover_total"),
            ("serve.errors_total", "acm_ingress_errors_total"),
            ("serve.eras_ticked", "acm_eras_total"),
            # the gauge keeps the last blackout's dead -> routed-around time
            # after the heal has cleared /regions
            ("serve.failover_mttr_clock_s", "acm_failover_mttr_seconds"),
        ):
            m[metric] = delta.get(counter, 0.0)
        lag_count = delta.get("acm_plan_propagation_seconds_count", 0.0)
        if lag_count:
            m["serve.plan_propagation_mean_clock_s"] = (
                delta["acm_plan_propagation_seconds_sum"] / lag_count
            )
    result.info["wall_s"] = _clock() - t_start
    m["bench.failed_share"] = result.failed / result.attempted
    # nothing is wrapped: the child runs bare
    m["bench.trace_overhead_share"] = 0.0
    return result
