"""The ingress's reply bytes against the plainest code that states them.

``reference_reply`` below is the data route and the admin surface as
they were written before targets and replies were memoised: one
``urlsplit`` + ``parse_qs`` and one ``json.dumps`` per request, the head
formatted by hand.  It answers a twin of the ingress's service: two
services of one seed on one frozen, hand-advanced clock make the same
decisions for the same request sequence, so any byte the memos change
shows up as a difference between the twins' replies.
"""

from __future__ import annotations

import json
import random
import types
from urllib.parse import parse_qs, urlsplit

import pytest

import repro.serve.service as service_module
from repro.experiments.scenarios import two_region_scenario
from repro.serve import ingress as ingress_module
from repro.serve.clock import WallClock
from repro.serve.ingress import (
    MAX_LINE,
    REPLY_MEMO,
    TARGET_MEMO,
    HttpIngress,
)
from repro.serve.service import AcmService, ServeConfig
from repro.slo import SloConfig

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def render_reference(
    status: int,
    content_type: str,
    body: bytes,
    keep_alive: bool,
    headers: dict | None = None,
) -> bytes:
    extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
    head = (
        f"HTTP/1.1 {status} {REASONS[status]}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra}"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


def json_reference(status: int, payload: dict, keep_alive: bool) -> bytes:
    headers = None
    if status == 429 and "retry_after_s" in payload:
        headers = {"Retry-After": str(int(payload["retry_after_s"]))}
    body = json.dumps(payload).encode("utf-8")
    return render_reference(
        status, "application/json", body, keep_alive, headers
    )


def reference_reply(
    service: AcmService, method: str, target: str, keep_alive: bool
) -> bytes:
    """The reply to one request, parsed and rendered from scratch."""

    def reply(status: int, payload: dict) -> bytes:
        return json_reference(status, payload, keep_alive)

    try:
        url = urlsplit(target)
        path, query = url.path, parse_qs(url.query)
        if path in ("/", "/route"):
            if method not in ("GET", "POST"):
                return reply(405, {"error": "method"})
            region = query.get("region", [None])[0]
            return reply(*service.handle_request(region))
        if path in ("/healthz", "/metrics", "/plan", "/regions", "/slo"):
            if method != "GET":
                return reply(405, {"error": "method"})
            if path == "/metrics":
                return render_reference(
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    service.metrics_text().encode("utf-8"),
                    keep_alive,
                )
            if path == "/healthz":
                return reply(
                    200,
                    {
                        "status": "ok",
                        "era": service.plan_snapshot()["era"],
                        "clock_now": service.clock.now,
                    },
                )
            snapshot = {
                "/plan": service.plan_snapshot,
                "/regions": service.regions_snapshot,
                "/slo": service.slo_snapshot,
            }[path]
            return reply(200, snapshot())
        if path in ("/chaos/blackout", "/chaos/heal"):
            if method != "POST":
                return reply(405, {"error": "POST required"})
            region = query.get("region", [None])[0]
            if region is None or region not in service.regions:
                return reply(400, {"error": f"unknown region {region!r}"})
            if path == "/chaos/blackout":
                service.chaos.region_blackout(region)
            else:
                service.chaos.region_heal(region)
            return reply(200, {"ok": True, "region": region})
        if path in ("/slo/kill", "/slo/override"):
            if method != "POST":
                return reply(405, {"error": "POST required"})
            if path == "/slo/kill":
                raw = query.get("on", ["1"])[0]
                if raw not in ("0", "1"):
                    return reply(400, {"error": f"bad on={raw!r} (want 0|1)"})
                ok = service.slo_kill(raw == "1")
            else:
                level = query.get("level", [None])[0]
                try:
                    ok = service.slo_override(
                        None if level in (None, "none") else level
                    )
                except ValueError as exc:
                    return reply(400, {"error": str(exc)})
            if not ok:
                return reply(400, {"error": "slo disabled"})
            return reply(200, {"ok": True})
        return reply(404, {"error": f"no route {path}"})
    except Exception as exc:  # noqa: BLE001
        return reply(500, {"error": f"{type(exc).__name__}: {exc}"})


class FrozenTime:
    """The one time source of both twins: moves only when told to."""

    def __init__(self) -> None:
        self.t = 1000.0

    def __call__(self) -> float:
        return self.t


@pytest.fixture
def twins(monkeypatch):
    """``make(**cfg) -> (service, service)`` on one frozen clock, and the
    clock."""
    now = FrozenTime()
    monkeypatch.setattr(
        service_module,
        "time",
        types.SimpleNamespace(monotonic=now, perf_counter=now),
    )

    def make(**cfg_kw) -> tuple[AcmService, AcmService]:
        return tuple(
            AcmService(
                two_region_scenario(),
                WallClock(speed=30.0, time_fn=now),
                ServeConfig(seed=7, **cfg_kw),
            )
            for _ in range(2)
        )

    return make, now


def corpus_targets(regions: list[str]) -> list[tuple[str, str]]:
    r1, r2 = regions
    data = ["/", "/route", f"/?region={r1}", f"/route?region={r2}"]
    data += [
        f"/?region=&region={r2}",  # blank dropped, the next value wins
        "/?region=%72" + r1[1:],  # percent-decoded
        f"/?region={r1}+",  # "+" decodes to a space: round-robin
        f"http://host/?region={r2}",  # absolute-form
    ]
    admin = [
        "/healthz", "/metrics", "/plan", "/regions", "/slo",
        f"/chaos/blackout?region={r1}", f"/chaos/heal?region={r1}",
        f"/chaos/blackout?region={r2}", f"/chaos/heal?region={r2}",
        "/chaos/heal?region=atlantis", "/chaos/blackout",
        "/slo/kill?on=1", "/slo/kill?on=0", "/slo/kill?on=maybe",
        "/slo/override?level=degraded", "/slo/override?level=none",
        "/slo/override?level=panic", "/nope", "/nope?x=%zz", "//[bad",
    ]
    pairs = [(m, t) for t in data for m in ("GET", "GET", "GET", "POST")]
    pairs += [(m, t) for t in admin for m in ("GET", "POST")]
    return pairs + [("PUT", "/"), ("DELETE", "/healthz")]


@pytest.mark.parametrize("slo", [False, True], ids=["plain", "slo"])
def test_replies_equal_the_reference_across_an_era_tick(twins, slo):
    make, now = twins
    service, reference = make(
        admission_rps=8.0,  # a bucket of 2 tokens
        slo=SloConfig(p95_target_s=10.0) if slo else None,
    )
    ingress = HttpIngress(service)
    pairs = corpus_targets(service.regions)
    rng = random.Random(11)
    statuses, sheds, eras = set(), set(), {0: 0, 1: 0}
    for k in range(3000):
        if k == 1500:
            service._era_tick()
            reference._era_tick()
        now.t += rng.choice([0.0, 0.01, 0.05])
        method, target = rng.choice(pairs)
        keep_alive = rng.random() < 0.7
        got = ingress._dispatch(method, target, keep_alive)
        want = reference_reply(reference, method, target, keep_alive)
        assert got == want, (k, method, target)
        head, _, body = got.partition(b"\r\n\r\n")
        statuses.add((int(head.split()[1]), keep_alive))
        if head.startswith(b"HTTP/1.1 200 ") and b'"target"' in body:
            era = json.loads(body)["era"]
            assert era == (k >= 1500)
            eras[era] += 1
        if head.startswith(b"HTTP/1.1 429 "):
            assert b"\r\nRetry-After: " in head
            sheds.add(json.loads(body)["error"])
    codes = {200, 400, 404, 405, 429, 500, 503}
    assert {(s, ka) for s in codes for ka in (True, False)} <= statuses
    assert eras[0] and eras[1]
    assert sheds == ({"shed", "slo"} if slo else {"shed"})


def test_the_reply_key_keeps_true_one_and_one_point_zero_apart():
    bodies = [
        ingress_module._reply(200, {"x": value}, True).rpartition(b"\r\n")[2]
        for value in (True, 1, 1.0, 1, True)
    ]
    assert bodies == [
        b'{"x": true}', b'{"x": 1}', b'{"x": 1.0}', b'{"x": 1}', b'{"x": true}'
    ]


def test_the_memos_stay_bounded_under_distinct_long_targets(twins):
    make, _ = twins
    service, reference = make(admission_rps=1e9)
    ingress = HttpIngress(service)
    rng = random.Random(5)
    line = len("GET  HTTP/1.1\r\n")
    for k in range(10_000):
        pad = "x" * rng.randrange(MAX_LINE - line - 40)
        target = rng.choice(
            [f"/nope/{k}/{pad}", f"/?region={k}{pad}", f"/?k={k}&region={pad}"]
        )
        assert len(target) + line <= MAX_LINE
        keep_alive = bool(k & 1)
        got = ingress._dispatch("GET", target, keep_alive)
        assert got == reference_reply(reference, "GET", target, keep_alive)
    for memo, size in (
        (ingress_module._split_target, TARGET_MEMO),
        (ingress_module._memo_reply, REPLY_MEMO),
    ):
        info = memo.cache_info()
        assert info.maxsize == size and info.currsize <= size
