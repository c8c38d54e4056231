"""Units for the serve data path and the HTTP dispatch table.

``AcmService.handle_request`` and ``HttpIngress._dispatch`` are both
synchronous, so most of this runs without a socket or a running clock:
build the service, poke the handlers, read the JSON.  Request *framing*
(``TestHostileFraming``) is a property of the byte stream, so those
tests talk to a real listening socket.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.experiments.scenarios import two_region_scenario
from repro.serve.clock import WallClock
from repro.serve.ingress import MAX_LINE, HttpIngress
from repro.serve.service import AcmService, ServeConfig


def make_service(**cfg_kw) -> AcmService:
    cfg = ServeConfig(seed=7, **cfg_kw)
    return AcmService(two_region_scenario(), WallClock(speed=100.0), cfg)


def force_plan(service: AcmService, fractions) -> None:
    """Install the given target fractions on every region's LB row, as
    a landed fraction vector does."""
    for r in service.regions:
        service.transport.fractions_landed(r, tuple(fractions))


class TestDataPath:
    def test_round_robin_when_no_region_given(self):
        service = make_service()
        arrivals = []
        for _ in range(4):
            status, body = service.handle_request()
            assert status == 200
            arrivals.append(body["arrival"])
        assert arrivals == service.regions * 2

    def test_unknown_region_falls_back_to_round_robin(self):
        service = make_service()
        status, body = service.handle_request("atlantis")
        assert status == 200
        assert body["arrival"] in service.regions

    def test_forwarding_follows_installed_plan(self):
        service = make_service()
        r1, r2 = service.regions
        force_plan(service, [0.0, 1.0])  # everything to the second region
        for _ in range(20):
            status, body = service.handle_request(r1)
            assert status == 200
            assert body["target"] == r2
            assert body["forwarded"] is True

    def test_admission_sheds_with_429_when_bucket_empty(self):
        service = make_service(admission_rps=8.0)  # a bucket of 2 tokens
        region = service.regions[0]
        statuses = [service.handle_request(region)[0] for _ in range(40)]
        assert statuses.count(429) > 0
        assert statuses.count(200) >= 2  # the burst allowance admitted some
        shed = service.telemetry.snapshot()["metrics"]["counters"]
        names = {
            (c["name"], c["labels"].get("region")): c["value"] for c in shed
        }
        assert names[("acm_ingress_shed_total", region)] == statuses.count(429)

    def test_dead_target_fails_over_to_live_region(self):
        service = make_service()
        r1, r2 = service.regions
        force_plan(service, [0.0, 1.0])  # r1's row points at r2...
        service.chaos.region_blackout(r2)  # ...which then goes dark
        status, body = service.handle_request(r1)
        assert status == 200
        assert body["failover_from"] == r2
        assert body["target"] == r1
        assert r2 in service._down_at  # the miss stamped the down time

    def test_all_regions_dark_is_503(self):
        service = make_service()
        for r in service.regions:
            service.chaos.region_blackout(r)
        status, body = service.handle_request(service.regions[0])
        assert status == 503
        assert "no live region" in body["error"]


class TestMttrAccounting:
    def test_install_row_closes_mttr_for_routed_around_region(self):
        service = make_service()
        r1, r2 = service.regions
        service.chaos.region_blackout(r2)
        service._monitor()  # liveness sweep stamps _down_at
        assert r2 in service._down_at
        assert r2 not in service.mttr_s
        force_plan(service, [1.0, 0.0])  # plan routes around the dead r2
        assert service.mttr_s[r2] >= 0.0

    def test_heal_clears_down_bookkeeping(self):
        service = make_service()
        r2 = service.regions[1]
        service.chaos.region_blackout(r2)
        service._monitor()
        service.chaos.region_heal(r2)
        service._monitor()
        assert r2 not in service._down_at


def split_reply(reply: bytes) -> tuple[int, dict[str, str], bytes]:
    """(status, headers, body) of one whole reply."""
    head, sep, body = reply.partition(b"\r\n\r\n")
    assert sep
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines)
    assert int(headers["Content-Length"]) == len(body)
    return int(status_line.split(" ", 2)[1]), headers, body


class TestHttpDispatch:
    @staticmethod
    def _body(ingress: HttpIngress, method: str, target: str):
        """(status, decoded JSON body) of one dispatched request."""
        status, headers, raw = split_reply(
            ingress._dispatch(method, target, True)
        )
        assert headers["Content-Type"] == "application/json"
        return status, json.loads(raw)

    def test_healthz(self):
        ingress = HttpIngress(make_service())
        status, body = self._body(ingress, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"

    def test_route_and_root_are_the_data_path(self):
        ingress = HttpIngress(make_service())
        for path in ("/", "/route"):
            status, body = self._body(ingress, "GET", path)
            assert status == 200
            assert body["target"] in ingress.service.regions

    def test_route_honours_region_query(self):
        ingress = HttpIngress(make_service())
        region = ingress.service.regions[1]
        status, body = self._body(ingress, "GET", f"/route?region={region}")
        assert status == 200
        assert body["arrival"] == region

    def test_metrics_is_prometheus_text_with_acm_prefix(self):
        ingress = HttpIngress(make_service())
        ingress.service.handle_request()
        status, headers, raw = split_reply(
            ingress._dispatch("GET", "/metrics", True)
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = raw.decode("utf-8")
        assert any(
            line.startswith("acm_ingress_requests_total")
            for line in text.splitlines()
        )

    def test_plan_and_regions_admin_json(self):
        ingress = HttpIngress(make_service())
        status, plan = self._body(ingress, "GET", "/plan")
        assert status == 200
        assert plan["regions"] == ingress.service.regions
        assert pytest.approx(sum(plan["fractions"])) == 1.0
        status, regions = self._body(ingress, "GET", "/regions")
        assert status == 200
        for r in ingress.service.regions:
            assert regions["regions"][r]["alive"] is True
            assert regions["regions"][r]["active_vms"] > 0

    @pytest.mark.parametrize(
        "path", ["/healthz", "/metrics", "/plan", "/regions", "/slo"]
    )
    @pytest.mark.parametrize("method", ["POST", "PUT", "DELETE", "HEAD"])
    def test_read_only_routes_refuse_other_methods(self, path, method):
        ingress = HttpIngress(make_service())
        before = ingress.service.metrics_text()
        assert self._body(ingress, method, path) == (405, {"error": "method"})
        assert ingress.service.metrics_text() == before

    def test_chaos_endpoints_require_post_and_known_region(self):
        ingress = HttpIngress(make_service())
        service = ingress.service
        status, _ = self._body(ingress, "GET", "/chaos/blackout")
        assert status == 405
        status, _ = self._body(ingress, "POST", "/chaos/blackout?region=nope")
        assert status == 400
        victim = service.regions[1]
        status, body = self._body(
            ingress, "POST", f"/chaos/blackout?region={victim}"
        )
        assert status == 200
        assert not service.overlay.is_alive(victim)
        status, _ = self._body(ingress, "POST", f"/chaos/heal?region={victim}")
        assert status == 200
        assert service.overlay.is_alive(victim)

    def test_unknown_path_404(self):
        ingress = HttpIngress(make_service())
        status, body = self._body(ingress, "GET", "/nope")
        assert status == 404

    def test_handler_exception_is_a_500_not_a_crash(self):
        ingress = HttpIngress(make_service())
        ingress.service.handle_request = None  # force a TypeError inside
        status, body = self._body(ingress, "GET", "/")
        assert status == 500
        assert "TypeError" in body["error"]

    def test_an_unparseable_target_is_a_500_not_a_crash(self):
        ingress = HttpIngress(make_service())
        status, body = self._body(ingress, "GET", "//[bad/")
        assert status == 500
        assert "ValueError" in body["error"]


class TestServiceConfig:
    def test_telemetry_must_be_enabled(self):
        # /metrics is the product: a service always builds enabled telemetry
        assert make_service().telemetry.enabled

    def test_initial_plan_rows_are_distributions(self):
        service = make_service()
        for row in service.plan_table.matrix:
            assert pytest.approx(np.sum(row)) == 1.0


class TestHostileFraming:
    """Bytes that do not frame as a request: 400 + close, or a closed
    socket -- never a second dispatch, never an unhandled task exception."""

    def _exchange(
        self, payload: bytes, service: AcmService | None = None
    ) -> tuple[bytes, list]:
        """Send ``payload`` to a live ingress; returns (reply, whatever
        reached the event loop's exception handler)."""
        service = service or make_service()
        loop_errors: list = []

        async def scenario() -> bytes:
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: loop_errors.append(context)
            )
            ingress = HttpIngress(service, port=0)
            await ingress.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", ingress.port
                )
                writer.write(payload)
                try:
                    await writer.drain()
                    reply = await asyncio.wait_for(reader.read(), timeout=5.0)
                except ConnectionError:
                    reply = b""  # closed under us: an allowed outcome
                writer.close()
                try:
                    await writer.wait_closed()
                except ConnectionError:
                    pass
                await asyncio.sleep(0.05)  # let the server task finish
            finally:
                await ingress.stop()
            return reply

        return asyncio.run(scenario()), loop_errors

    def _assert_refused(self, reply: bytes, loop_errors: list) -> None:
        assert loop_errors == []
        assert reply.count(b"HTTP/1.1 ") <= 1  # at most one response
        if reply:
            assert reply.startswith(b"HTTP/1.1 400 ")
            assert b"Connection: close" in reply

    @pytest.mark.parametrize(
        "value",
        [b"abc", b"-5", b"", b"9" * 5000],
        ids=["text", "negative", "empty", "huge"],
    )
    def test_malformed_content_length_is_400_and_close(self, value):
        reply, loop_errors = self._exchange(
            b"POST / HTTP/1.1\r\nContent-Length: " + value + b"\r\n\r\n"
        )
        self._assert_refused(reply, loop_errors)
        assert reply.startswith(b"HTTP/1.1 400 ")  # nothing left unread

    @pytest.mark.parametrize(
        "payload",
        [
            b"NOT-HTTP\r\n\r\n",
            b"GET / HTTP/1.1\r\n" + b"X-H: v\r\n" * 100 + b"\r\n",
        ],
        ids=["request-line", "header-count"],
    )
    def test_unframeable_head_is_400_and_close(self, payload):
        reply, loop_errors = self._exchange(payload)
        self._assert_refused(reply, loop_errors)

    def test_header_line_over_stream_limit_is_400_and_close(self):
        # past asyncio's own 64 KiB readline limit, not just MAX_LINE
        reply, loop_errors = self._exchange(
            b"GET / HTTP/1.1\r\nX-Junk: " + b"a" * (70 * 1024) + b"\r\n\r\n"
        )
        self._assert_refused(reply, loop_errors)

    def test_oversized_body_tail_is_not_a_second_request(self):
        smuggled = b"POST /chaos/blackout?region=%s HTTP/1.1\r\n\r\n"
        service = make_service()
        victim = service.regions[0]
        tail = smuggled % victim.encode()
        body = b"x" * (MAX_LINE + 48 - len(tail)) + tail
        assert len(body) > MAX_LINE
        reply, loop_errors = self._exchange(
            b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body)
            + body,
            service,
        )
        self._assert_refused(reply, loop_errors)
        assert all(service.overlay.is_alive(r) for r in service.regions)

    def test_body_within_limit_is_consumed_whole(self):
        """The allowed case still frames: body skipped, next request served."""
        body = b"x" * MAX_LINE
        reply, loop_errors = self._exchange(
            b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body)
            + body
            + b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert loop_errors == []
        assert reply.count(b"HTTP/1.1 200 ") == 2


class TestFramingRules:
    """The framing rules beyond size limits: ``Content-Length`` is
    ``1*DIGIT`` and said once, no ``Transfer-Encoding``, a known version
    token, HTTP/1.0's default close."""

    _exchange = TestHostileFraming._exchange
    _assert_refused = TestHostileFraming._assert_refused

    @pytest.mark.parametrize(
        "head",
        [
            b"POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\n01234",
            b"POST / HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n0123456789",
            b"POST / HTTP/1.1\r\nContent-Length: \xb2\r\n\r\n01",
            b"POST / HTTP/1.1\r\nContent-Length: 5\r\n"
            b"Content-Length: 0\r\n\r\n",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
            b"GET / JUNK/9\r\n\r\n",
            b"GET / http/1.1\r\n\r\n",
        ],
        ids=[
            "signed-length",
            "underscore-length",
            "non-ascii-digit-length",
            "conflicting-lengths",
            "transfer-encoding",
            "junk-version",
            "lowercase-version",
        ],
    )
    def test_refused_with_400_and_what_follows_is_never_parsed(self, head):
        service = make_service()
        victim = service.regions[0]
        follow = b"POST /chaos/blackout?region=%s HTTP/1.1\r\n\r\n"
        reply, loop_errors = self._exchange(
            head + follow % victim.encode(), service
        )
        self._assert_refused(reply, loop_errors)
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert service.overlay.is_alive(victim)

    def test_content_length_repeated_with_one_value_is_accepted(self):
        reply, loop_errors = self._exchange(
            b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n"
            b"\r\nxxGET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert loop_errors == []
        assert reply.count(b"HTTP/1.1 200 ") == 2

    def test_http_1_0_is_answered_and_closed(self):
        # _exchange reads to EOF: a connection held open would time out
        reply, loop_errors = self._exchange(b"GET / HTTP/1.0\r\n\r\n")
        assert loop_errors == []
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert b"Connection: close" in reply

    def test_http_1_0_keep_alive_is_honoured(self):
        reply, loop_errors = self._exchange(
            b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
            b"GET /healthz HTTP/1.0\r\n\r\n"
        )
        assert loop_errors == []
        assert reply.count(b"HTTP/1.1 200 ") == 2
        assert reply.count(b"Connection: keep-alive") == 1


class TestConnectionLifetime:
    """Connections the client will not end: open at ``stop()``, or idle."""

    @staticmethod
    def _run(scenario) -> list:
        """Run ``scenario(ingress)``; returns the loop's exception log."""
        loop_errors: list = []

        async def main() -> None:
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: loop_errors.append(context)
            )
            ingress = HttpIngress(make_service(), port=0)
            await ingress.start()
            try:
                await scenario(ingress)
            finally:
                await ingress.stop()

        asyncio.run(main())
        return loop_errors

    def test_stop_closes_keep_alive_and_half_sent_connections(self):
        async def scenario(ingress: HttpIngress) -> None:
            idle = await asyncio.open_connection("127.0.0.1", ingress.port)
            idle[1].write(b"GET / HTTP/1.1\r\n\r\n")
            half = await asyncio.open_connection("127.0.0.1", ingress.port)
            half[1].write(b"GET / HTTP/1.1\r\n")
            await asyncio.sleep(0.05)
            assert len(ingress._connections) == 2
            await ingress.stop()
            assert not ingress._connections
            for reader, writer in (idle, half):
                rest = await asyncio.wait_for(reader.read(), timeout=5.0)
                assert rest.count(b"HTTP/1.1 ") == (reader is idle[0])
                writer.close()

        assert self._run(scenario) == []

    def test_a_connection_completing_no_request_is_closed(self, monkeypatch):
        monkeypatch.setattr("repro.serve.ingress.IDLE_TIMEOUT_S", 0.2)

        async def scenario(ingress: HttpIngress) -> None:
            idle = await asyncio.open_connection("127.0.0.1", ingress.port)
            slow = await asyncio.open_connection("127.0.0.1", ingress.port)
            busy = await asyncio.open_connection("127.0.0.1", ingress.port)
            idle[1].write(b"GET /healthz HTTP/1.1\r\n\r\n")
            # 0.8 s: four timeouts.  ``slow`` dribbles a head that never
            # ends, ``busy`` completes a request every 80 ms.
            for byte in b"GET / HTTP":
                if not slow[0].at_eof():
                    slow[1].write(bytes([byte]))
                busy[1].write(b"GET /healthz HTTP/1.1\r\n\r\n")
                await asyncio.sleep(0.08)
            assert slow[0].at_eof()  # closed under the dribble, unanswered
            busy[1].write(
                b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
            )
            replies = await asyncio.wait_for(busy[0].read(), timeout=5.0)
            assert replies.count(b"HTTP/1.1 200 ") == 11
            got = await asyncio.wait_for(idle[0].read(), timeout=5.0)
            assert got.count(b"HTTP/1.1 ") == 1
            for _reader, writer in (idle, slow, busy):
                writer.close()

        assert self._run(scenario) == []
