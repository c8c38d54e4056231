"""The benchmark's own HTTP load generator and server-child handling.

One process, one thread, at most ``nproc`` keep-alive connections per server
with one request in flight each.  ``repro.serve.loadgen`` is not used: its
per-request ``asyncio.sleep`` rounds to the selector's millisecond tick, so
it measures itself.  Here the generator sleeps until shortly before the next
due instant and then polls, and an open-loop latency runs from the instant a
request was *due*, so a stall is charged to every request it delays.
"""

from __future__ import annotations

import json
import os
import select
import socket
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from stats import KNEE_LIMIT_MS

#: Poll instead of sleeping once the next due instant is this close.
SPIN_S = 0.0003
#: A leg gives up on outstanding requests this long after its schedule ends.
DRAIN_S = 5.0
BOOT_TIMEOUT_S = 60.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_READY_MARK = b" on http://"


def split_cpus() -> tuple[int | None, int | None]:
    """(server cpu, generator cpu) if two are available, else (None, None)."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[0], cpus[1]


def poisson_schedule(
    rate_rps: float, duration_s: float, seed: int, tag: int
) -> np.ndarray:
    """Due instants in ``[0, duration_s)`` of a Poisson process, per seed."""
    rng = np.random.default_rng([seed, tag])
    n = int(rate_rps * duration_s * 1.2) + 64
    times = np.cumsum(rng.exponential(1.0 / rate_rps, size=n))
    while times[-1] < duration_s:  # vanishingly rare: extend, never truncate
        more = np.cumsum(rng.exponential(1.0 / rate_rps, size=n))
        times = np.concatenate([times, more + times[-1]])
    return times[times < duration_s]


def repro_serve_argv(serve_args: list[str]) -> list[str]:
    return ["-m", "repro", "serve", "--port", "0", *serve_args]


class ServeChild:
    """A server child process, ready when it prints ``... on http://h:port``.

    The child is always reaped: terminated on exit, killed if it lingers.
    """

    def __init__(
        self, argv: list[str], cpu: int | None, pythonpath: str = ""
    ) -> None:
        self._argv = [sys.executable, *argv]
        self._env = {**os.environ, "PYTHONPATH": pythonpath}
        self._cpu = cpu
        self.proc: subprocess.Popen | None = None
        self.host = ""
        self.port = 0
        self.boot_s = 0.0

    def __enter__(self) -> "ServeChild":
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            self._argv,
            env=self._env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            if self._cpu is not None:
                os.sched_setaffinity(self.proc.pid, {self._cpu})
            self._await_ready(t0 + BOOT_TIMEOUT_S)
        except BaseException:
            self._reap()
            raise
        self.boot_s = time.perf_counter() - t0
        return self

    def _await_ready(self, deadline: float) -> None:
        out = self.proc.stdout
        seen = b""
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([out], [], [], 0.25)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            chunk = os.read(out.fileno(), 4096)
            if not chunk:
                break
            seen += chunk
            mark = seen.find(_READY_MARK)
            if mark >= 0 and b"\n" in seen[mark:]:
                url = seen[mark + len(_READY_MARK):].split(b"\n", 1)[0]
                host, _, port = url.decode("ascii").strip().rpartition(":")
                self.host, self.port = host, int(port)
                return
        raise RuntimeError(
            f"{self._argv[1:3]} did not become ready: "
            + seen.decode("utf-8", "replace")[-2000:]
        )

    def __exit__(self, *exc) -> None:
        self._reap()

    def _reap(self) -> None:
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
        self.proc = None

    def cpu_seconds(self) -> float:
        """User + system CPU time the child has used so far."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")


def self_cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


class Connection:
    """One keep-alive HTTP/1.1 connection, at most one request in flight."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = bytearray()
        #: when the request in flight was due (open loop) or sent (closed)
        self.due = 0.0

    def fileno(self) -> int:
        return self.sock.fileno()

    def close(self) -> None:
        self.sock.close()

    def send(self, request: bytes) -> None:
        self.sock.sendall(request)

    def read(self) -> tuple[int, bytes] | None:
        """Consume what arrived; (status, body) once a response is whole."""
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buf = self._buf
        buf += chunk
        end = buf.find(b"\r\n\r\n")
        if end < 0:
            return None
        head = bytes(buf[:end]).lower()
        at = head.find(b"content-length:")
        length = int(head[at + 15:].split(b"\r\n", 1)[0]) if at >= 0 else 0
        total = end + 4 + length
        if len(buf) < total:
            return None
        status = int(buf[9:12])
        body = bytes(buf[end + 4:total])
        del buf[:total]
        return status, body

    def call(self, method: str, path: str) -> tuple[int, bytes, float]:
        """Blocking admin round trip: (status, body, seconds)."""
        t0 = time.perf_counter()
        self.send(
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            "Content-Length: 0\r\n\r\n".encode("ascii")
        )
        while True:
            got = self.read()
            if got is not None:
                return got[0], got[1], time.perf_counter() - t0

    def call_json(self, method: str, path: str) -> dict:
        status, body, _ = self.call(method, path)
        if status != 200:
            raise RuntimeError(f"{method} {path} -> {status}: {body[:200]!r}")
        return json.loads(body)


@dataclass
class Target:
    """One server under load: its connections and the requests to send."""

    conns: list
    requests: list  #: request bytes
    picks: np.ndarray  #: index into ``requests`` of the k-th request (cycled)

    @classmethod
    def data_path(
        cls, conns: list, regions: list[str], picks: np.ndarray
    ) -> "Target":
        requests = [
            f"GET /?region={name} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()
            for name in regions
        ]
        return cls(conns, requests, picks)

    @classmethod
    def reference(cls, conns: list) -> "Target":
        request = b"GET / HTTP/1.1\r\nHost: bench\r\n\r\n"
        return cls(conns, [request], np.zeros(1, dtype=int))

    def request(self, k: int) -> bytes:
        return self.requests[self.picks[k % len(self.picks)]]


@dataclass
class Leg:
    """Client-side result of one load leg."""

    scheduled: int = 0  #: requests due (open loop) or sent (closed loop)
    ok: int = 0  #: HTTP 200
    refused: int = 0  #: HTTP 429
    errors: int = 0  #: other status, transport error, or never answered
    ok_in_limit: int = 0  #: 200s within KNEE_LIMIT_MS of their due instant
    wall_s: float = 0.0  #: first due instant to last response
    offered_rps: float = 0.0
    #: 200s only
    latencies_ms: list = field(default_factory=list, repr=False)
    #: their due instants, from the leg's start
    due_s: list = field(default_factory=list, repr=False)
    #: generator lateness: instant a request was released - instant due
    lag_ms: list = field(default_factory=list, repr=False)

    @property
    def failed(self) -> int:
        return self.scheduled - self.ok

    @property
    def achieved_rps(self) -> float:
        return self.ok / self.wall_s if self.wall_s > 0 else 0.0

    def _record(self, status: int, latency_s: float, due_s: float) -> None:
        if status == 200:
            self.ok += 1
            ms = latency_s * 1e3
            self.latencies_ms.append(ms)
            self.due_s.append(due_s)
            if ms <= KNEE_LIMIT_MS:
                self.ok_in_limit += 1
        elif status == 429:
            self.refused += 1
        else:
            self.errors += 1


def closed_loop(
    target: Target,
    duration_s: float,
    poll: bool,
    connections: int | None = None,
) -> Leg:
    """Each connection sends its next request when the last one is answered.

    With ``poll`` the generator never sleeps while a reply is due (it has a
    core to itself): a sleeping client must be woken by the server's core,
    which on a virtual machine is slow, variable, and charged to the server.
    """
    leg = Leg()
    clock = time.perf_counter
    t0 = clock()
    t_end = t0 + duration_s
    busy = set()
    for conn in target.conns[:connections]:
        conn.due = clock()
        conn.send(target.request(leg.scheduled))
        leg.scheduled += 1
        busy.add(conn)
    last = t0
    timeout = 0.0 if poll else DRAIN_S
    while busy:
        readable, _, _ = select.select(list(busy), [], [], timeout)
        if not readable:
            if poll and clock() < t_end + DRAIN_S:
                continue
            break  # unanswered: counted failed through scheduled - ok
        for conn in readable:
            got = conn.read()
            if got is None:
                continue
            now = clock()
            leg._record(got[0], now - conn.due, conn.due - t0)
            last = now
            if now < t_end:
                conn.due = now
                conn.send(target.request(leg.scheduled))
                leg.scheduled += 1
            else:
                busy.discard(conn)
    leg.errors += len(busy)
    leg.wall_s = last - t0
    return leg


def open_loop(
    targets: list[Target],
    schedule: np.ndarray,
    duration_s: float,
    poll: bool,
    actions: list | None = None,
) -> list[Leg]:
    """Send on a fixed schedule whatever the replies; latency from due instant.

    Every due instant sends one request to *each* target, so two servers can
    be measured through the same instants of host weather; one ``Leg`` per
    target comes back (they share one ``lag_ms`` list, the generator's own
    lateness).  A due request waits in its target's queue while all of that
    target's connections are busy, and that wait is part of its latency.
    ``actions`` is a list of ``(offset_s, fn)`` run from this thread once
    their offset has passed (fault injection).
    """
    n = len(schedule)
    lag_ms: list = []
    legs = [
        Leg(scheduled=n, offered_rps=n / duration_s, lag_ms=lag_ms)
        for _ in targets
    ]
    clock = time.perf_counter
    pending = deque(sorted(actions or [], key=lambda a: a[0]))
    owner = {conn: k for k, t in enumerate(targets) for conn in t.conns}
    free = [list(t.conns) for t in targets]
    queues: list[deque] = [deque() for _ in targets]
    sent = [0] * len(targets)
    last = [0.0] * len(targets)
    busy: set = set()
    t0 = clock() + 0.002
    due_abs = (schedule + t0).tolist()
    give_up = t0 + duration_s + DRAIN_S
    i = 0
    while i < n or busy or any(queues):
        now = clock()
        if now > give_up:
            break
        while i < n and due_abs[i] <= now:
            for queue in queues:
                queue.append(due_abs[i])
            lag_ms.append((now - due_abs[i]) * 1e3)
            i += 1
        for k, target in enumerate(targets):
            queue, idle = queues[k], free[k]
            while queue and idle:
                conn = idle.pop()
                conn.due = queue.popleft()
                conn.send(target.request(sent[k]))
                sent[k] += 1
                busy.add(conn)
        while pending and t0 + pending[0][0] <= now:
            pending.popleft()[1]()
        wait = (due_abs[i] - clock() - SPIN_S) if i < n else 0.05
        if pending:
            wait = min(wait, t0 + pending[0][0] - clock())
        wait = max(wait, 0.0)
        if busy:
            # with ``poll``, never sleep while a reply is due (closed_loop)
            timeout = 0.0 if poll else wait
            readable, _, _ = select.select(list(busy), [], [], timeout)
            for conn in readable:
                got = conn.read()
                if got is None:
                    continue
                k = owner[conn]
                last[k] = clock()
                legs[k]._record(got[0], last[k] - conn.due, conn.due - t0)
                busy.discard(conn)
                free[k].append(conn)
        elif wait > 0.0:
            time.sleep(wait)
    for k, leg in enumerate(legs):
        unanswered = sum(owner[conn] == k for conn in busy)
        leg.errors += unanswered + len(queues[k]) + (n - i)
        leg.wall_s = max(last[k] - t0, duration_s)
    return legs
