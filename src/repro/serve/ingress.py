"""Hand-rolled asyncio HTTP/1.1 ingress in front of an :class:`AcmService`.

Stdlib-only (the container bakes no aiohttp): a minimal HTTP/1.1 server
on :func:`asyncio.start_server` with keep-alive, request-line + header
parsing, and ``Content-Length`` bodies.  It implements exactly the
surface the load generator and a Prometheus scraper need:

========================  ==========================================
``GET /``                 data path: admit + forward one request
                          (``?region=<name>`` picks the arrival LB;
                          omitted = round-robin)
``GET /healthz``          liveness (always 200 while the loop runs)
``GET /metrics``          live Prometheus text from :mod:`repro.obs`
``GET /plan``             admin: the live forward plan (JSON)
``GET /regions``          admin: per-region liveness/MTTR (JSON)
``POST /chaos/blackout``  admin: ``?region=`` region blackout
``POST /chaos/heal``      admin: ``?region=`` heal
``GET /slo``              admin: SLO gate state (JSON)
``POST /slo/kill``        admin: ``?on=0|1`` deployment kill switch
``POST /slo/override``    admin: ``?level=normal|degraded|none`` pin
========================  ==========================================

A 429 shed response whose body carries ``retry_after_s`` (both the
token-bucket and SLO sheds do) is rendered with the matching
``Retry-After`` header, per the standard backpressure contract.

The chaos endpoints exist so load tests (and CI) can fault a *live*
deployment over the same wire they load it on -- the in-process
:class:`~repro.chaos.engine.ChaosEngine` does the actual damage.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from urllib.parse import parse_qs, urlsplit

from repro.serve.service import AcmService

#: Pragmatic caps: a request line, header line or body beyond this is junk.
MAX_LINE = 8192
MAX_HEADERS = 64


class _BadRequest(Exception):
    """The bytes on the wire are not a request this server will frame.

    After one, the position of the next request in the stream is
    unknown, so the connection answers ``400`` and closes: nothing past
    the bad bytes is ever parsed (no smuggled second request).
    """

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpIngress:
    """Asyncio HTTP server bound to one :class:`AcmService`."""

    def __init__(
        self, service: AcmService, host: str = "127.0.0.1", port: int = 8080
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> None:
        """Bind and start accepting connections (port 0 = ephemeral)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        # resolve the ephemeral port for callers that asked for 0
        sock = self._server.sockets[0]
        self.port = sock.getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------ #
    # connection loop
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    bad = self._json(400, {"error": str(exc)})
                    writer.write(self._render(*bad[:3], keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, target, headers = request
                keep_alive = (
                    headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                status, content_type, body, extra = self._dispatch(
                    method, target
                )
                writer.write(
                    self._render(status, content_type, body, keep_alive, extra)
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> bytes:
        try:
            line = await reader.readline()
        except ValueError:  # asyncio's own stream limit overran
            raise _BadRequest("line too long") from None
        if len(line) > MAX_LINE:
            raise _BadRequest("line too long")
        return line

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict] | None:
        """Parse one request; ``None`` on EOF, :class:`_BadRequest` on junk."""
        line = await self._read_line(reader)
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _BadRequest("malformed request line")
        method, target, _version = parts
        headers: dict[str, str] = {}
        for _ in range(MAX_HEADERS):
            line = await self._read_line(reader)
            if not line:
                return None
            text = line.decode("latin-1").strip()
            if not text:
                break
            name, sep, value = text.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        else:
            raise _BadRequest("too many headers")
        raw = headers.get("content-length", "0")
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_LINE:
            raise _BadRequest(f"bad Content-Length {raw[:32]!r}")
        if length:
            # bodies are accepted whole and discarded; the API is
            # query-driven
            await reader.readexactly(length)
        return method, target, headers

    def _render(
        self,
        status: int,
        content_type: str,
        body: bytes,
        keep_alive: bool,
        extra_headers: dict | None = None,
    ) -> bytes:
        reason = _STATUS_TEXT.get(status, "Unknown")
        connection = "keep-alive" if keep_alive else "close"
        extra = "".join(
            f"{name}: {value}\r\n"
            for name, value in (extra_headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: {connection}\r\n"
            "\r\n"
        )
        return head.encode("latin-1") + body

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #

    def _dispatch(
        self, method: str, target: str
    ) -> tuple[int, str, bytes, dict | None]:
        url = urlsplit(target)
        path = url.path
        query = parse_qs(url.query)
        try:
            if path == "/" or path == "/route":
                if method not in ("GET", "POST"):
                    return self._json(405, {"error": "method"})
                region = query.get("region", [None])[0]
                status, body = self.service.handle_request(region)
                headers = None
                if status == 429 and "retry_after_s" in body:
                    headers = {"Retry-After": str(int(body["retry_after_s"]))}
                return self._json(status, body, headers)
            if path == "/healthz":
                return self._json(
                    200,
                    {
                        "status": "ok",
                        "era": self.service.plan_snapshot()["era"],
                        "clock_now": self.service.clock.now,
                    },
                )
            if path == "/metrics":
                text = self.service.metrics_text()
                return (
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    text.encode("utf-8"),
                    None,
                )
            if path == "/plan":
                return self._json(200, self.service.plan_snapshot())
            if path == "/regions":
                return self._json(200, self.service.regions_snapshot())
            if path == "/chaos/blackout" or path == "/chaos/heal":
                if method != "POST":
                    return self._json(405, {"error": "POST required"})
                region = query.get("region", [None])[0]
                if region is None or region not in self.service.regions:
                    return self._json(
                        400, {"error": f"unknown region {region!r}"}
                    )
                if path.endswith("blackout"):
                    self.service.chaos.region_blackout(region)
                else:
                    self.service.chaos.region_heal(region)
                return self._json(200, {"ok": True, "region": region})
            if path == "/slo":
                if method != "GET":
                    return self._json(405, {"error": "method"})
                return self._json(200, self.service.slo_snapshot())
            if path == "/slo/kill" or path == "/slo/override":
                if method != "POST":
                    return self._json(405, {"error": "POST required"})
                if path.endswith("kill"):
                    raw = query.get("on", ["1"])[0]
                    if raw not in ("0", "1"):
                        return self._json(
                            400, {"error": f"bad on={raw!r} (want 0|1)"}
                        )
                    ok = self.service.slo_kill(raw == "1")
                else:
                    level = query.get("level", [None])[0]
                    if level in (None, "none"):
                        level = None
                    try:
                        ok = self.service.slo_override(level)
                    except ValueError as exc:
                        return self._json(400, {"error": str(exc)})
                if not ok:
                    return self._json(400, {"error": "slo disabled"})
                return self._json(200, {"ok": True})
            return self._json(404, {"error": f"no route {path}"})
        except Exception as exc:  # noqa: BLE001 - one request, not the server
            return self._json(500, {"error": f"{type(exc).__name__}: {exc}"})

    @staticmethod
    def _json(
        status: int, payload: dict, headers: dict | None = None
    ) -> tuple[int, str, bytes, dict | None]:
        return (
            status,
            "application/json",
            json.dumps(payload).encode("utf-8"),
            headers,
        )


@contextlib.asynccontextmanager
async def serving(service: AcmService, host: str = "127.0.0.1", port: int = 0):
    """The one boot and teardown of a served deployment.

    Entering binds the ingress (``port`` 0 = ephemeral; read the bound
    one off the yielded :class:`HttpIngress`), arms the service's
    periodic control events and starts the clock dispatching in the
    background; leaving cancels the events, stops the clock, waits for
    its dispatcher and closes the listener -- also on an exception or a
    cancellation (``^C``) inside the block.
    """
    ingress = HttpIngress(service, host, port)
    await ingress.start()
    service.start()
    dispatcher = asyncio.ensure_future(service.clock.run_for(None))
    try:
        yield ingress
    finally:
        service.shutdown()
        await dispatcher
        await ingress.stop()
