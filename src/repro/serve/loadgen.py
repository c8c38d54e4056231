"""Open-loop HTTP load generator for the serve ingress.

Open-loop means the arrival schedule is fixed *before* the run (sampled
from a Poisson/diurnal/flash-crowd process, reusing the same workload
curves as the simulations) and does not slow down when the server does.
A request's latency is therefore measured from its **scheduled arrival
instant** to response completion -- queueing delay caused by a slow or
failing server counts against it, exactly as a real user would
experience it.  Closed-loop generators (issue the next request after
the previous response) famously hide overload; see the coordinated
omission literature.

Transport: ``connections`` raw asyncio TCP connections with HTTP/1.1
keep-alive, arrivals dealt round-robin.  Each connection pipelines
nothing -- one request in flight per connection -- so `connections`
bounds concurrency the way a load balancer's upstream pool does.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro.sim.rng import RngRegistry
from repro.slo.evaluator import nearest_rank_quantile
from repro.workload.arrivals import PoissonArrivals
from repro.workload.profiles import DiurnalProfile

#: Supported arrival schedules.
SCHEDULES = ("poisson", "diurnal", "flash")
#: flash: the spike multiplies the rate by this factor from this fraction
#: of the run to that one.
FLASH_FACTOR = 4.0
FLASH_START = 0.4
FLASH_END = 0.7
#: diurnal: peak/trough rate ratio.
DIURNAL_RATIO = 3.0


@dataclass(frozen=True)
class LoadConfig:
    """One load-test run against a serve ingress."""

    url: str  #: base URL, e.g. ``http://127.0.0.1:8080``
    rate: float = 200.0  #: mean arrival rate, requests/second
    duration_s: float = 5.0  #: wall-clock test length
    schedule: str = "poisson"  #: one of :data:`SCHEDULES`
    connections: int = 4  #: concurrent keep-alive connections
    seed: int = 7


@dataclass
class LoadReport:
    """Client-side results of one run (JSON-ready via ``as_dict``)."""

    scheduled: int = 0  #: arrivals in the schedule
    #: responses received (any status)
    completed: int = field(default=0, init=False)
    #: HTTP 200
    ok: int = field(default=0, init=False)
    #: HTTP 429 (admission)
    shed: int = field(default=0, init=False)
    #: HTTP 5xx or transport failure
    errors: int = field(default=0, init=False)
    #: 200s served by a non-arrival region
    forwarded: int = field(default=0, init=False)
    #: 200s that failed over past a dead region
    failover: int = field(default=0, init=False)
    duration_s: float = field(default=0.0, init=False)
    latencies_s: list = field(default_factory=list, repr=False, init=False)
    error_times_s: list = field(default_factory=list, repr=False, init=False)

    def quantile(self, q: float) -> float:
        """Nearest-rank latency quantile (NaN on an empty sample).

        Delegates to the SLO evaluator's estimator so client-side and
        server-side percentiles agree -- including the float-epsilon
        guard (a bare ``ceil(q * n)`` overshoots when the product lands
        just above an integer, e.g. ``0.07 * 100 == 7.000...001``,
        and would report the next order statistic).
        """
        return nearest_rank_quantile(self.latencies_s, q)

    def as_dict(self) -> dict:
        rps = self.completed / self.duration_s if self.duration_s else 0.0
        return {
            "scheduled": self.scheduled,
            "completed": self.completed,
            "ok": self.ok,
            "shed": self.shed,
            "errors": self.errors,
            "forwarded": self.forwarded,
            "failover": self.failover,
            "duration_s": round(self.duration_s, 3),
            "achieved_rps": round(rps, 1),
            "shed_rate": round(self.shed / max(self.completed, 1), 4),
            "forward_rate": round(self.forwarded / max(self.ok, 1), 4),
            "latency_p50_s": self.quantile(0.50),
            "latency_p95_s": self.quantile(0.95),
            "latency_p99_s": self.quantile(0.99),
        }


def build_schedule(cfg: LoadConfig) -> np.ndarray:
    """Arrival instants in ``[0, duration_s)`` for the configured shape."""
    if cfg.schedule not in SCHEDULES:
        raise ValueError(
            f"unknown schedule {cfg.schedule!r}; pick from {SCHEDULES}"
        )
    rng = RngRegistry(seed=cfg.seed).stream("loadgen/arrivals")
    if cfg.schedule == "poisson":
        proc = PoissonArrivals(rng, cfg.rate)
        return proc.sample_window(0.0, cfg.duration_s)
    if cfg.schedule == "flash":
        lo, hi = FLASH_START * cfg.duration_s, FLASH_END * cfg.duration_s

        def flash_rate(t: float) -> float:
            return cfg.rate * FLASH_FACTOR if lo <= t < hi else cfg.rate

        proc = PoissonArrivals(
            rng, flash_rate, rate_max=cfg.rate * FLASH_FACTOR
        )
        return proc.sample_window(0.0, cfg.duration_s)
    # diurnal: one full day compressed into the run, trough->peak->trough
    trough = max(1.0, 2.0 * cfg.rate / (1.0 + DIURNAL_RATIO))
    peak = max(trough, trough * DIURNAL_RATIO)
    profile = DiurnalProfile(
        trough_clients=trough,
        peak_clients=peak,
        period_s=cfg.duration_s,
    )
    proc = PoissonArrivals(
        rng, lambda t: profile.clients_at(t), rate_max=peak
    )
    return proc.sample_window(0.0, cfg.duration_s)


def _split_url(url: str) -> tuple[str, int, str]:
    rest = url.split("://", 1)[-1]
    hostport, _, path = rest.partition("/")
    host, _, port = hostport.partition(":")
    return host, int(port or "80"), "/" + path if path else "/"


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    """Minimal HTTP/1.1 response parse (status + Content-Length body)."""
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if not line:
            raise ConnectionError("truncated headers")
        text = line.decode("latin-1").strip()
        if not text:
            break
        name, _, value = text.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, body


async def _worker(
    host: str,
    port: int,
    path: str,
    queue: "asyncio.Queue[float | None]",
    t0: float,
    report: LoadReport,
) -> None:
    """One keep-alive connection draining its share of the schedule."""
    reader = writer = None
    request = (
        f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
        "Connection: keep-alive\r\n\r\n"
    ).encode("latin-1")
    while True:
        arrival = await queue.get()
        if arrival is None:
            break
        # open-loop: wait for the scheduled instant (never issue early)
        delay = (t0 + arrival) - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        try:
            if writer is None:
                reader, writer = await asyncio.open_connection(host, port)
            writer.write(request)
            await writer.drain()
            status, body = await _read_response(reader)
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            report.errors += 1
            report.completed += 1
            report.error_times_s.append(time.perf_counter() - t0)
            if writer is not None:
                writer.close()
            reader = writer = None
            continue
        # latency is measured from the *scheduled* arrival: queueing
        # behind a slow server counts (coordinated-omission-free)
        latency = time.perf_counter() - (t0 + arrival)
        report.completed += 1
        if status == 200:
            report.ok += 1
            report.latencies_s.append(latency)
            try:
                payload = json.loads(body)
            except (ValueError, UnicodeDecodeError):
                payload = {}
            if payload.get("forwarded"):
                report.forwarded += 1
            if "failover_from" in payload:
                report.failover += 1
        elif status == 429:
            report.shed += 1
        else:
            report.errors += 1
            report.error_times_s.append(time.perf_counter() - t0)
    if writer is not None:
        writer.close()


async def run_load(cfg: LoadConfig) -> LoadReport:
    """Run one open-loop load test; returns the client-side report."""
    host, port, path = _split_url(cfg.url)
    schedule = build_schedule(cfg)
    report = LoadReport(scheduled=len(schedule))
    queues = [
        asyncio.Queue() for _ in range(max(1, cfg.connections))
    ]
    for i, arrival in enumerate(schedule):
        queues[i % len(queues)].put_nowait(float(arrival))
    for q in queues:
        q.put_nowait(None)
    t0 = time.perf_counter()
    await asyncio.gather(
        *(
            _worker(host, port, path, q, t0, report)
            for q in queues
        )
    )
    report.duration_s = time.perf_counter() - t0
    return report
