"""Hand-rolled asyncio HTTP/1.1 ingress in front of an :class:`AcmService`.

Stdlib-only (the container bakes no aiohttp): a minimal HTTP/1.1 server,
one :class:`asyncio.BufferedProtocol` per connection, with keep-alive,
pipelining, request-line + header parsing, and ``Content-Length`` bodies.
It implements exactly the surface the load generator and a Prometheus
scraper need:

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
``Retry-After`` header, per the standard backpressure contract.  A
``GET`` route answers any other method with 405.

Nothing on the data route is parsed or encoded twice.  A request
target is split into path and query (``urlsplit`` + ``parse_qs``: the
first non-blank value of a name wins, percent- and ``+``-decoded,
absolute-form accepted) once per distinct target string, and a
decision -- status, every body field with its type, keep-alive -- is
rendered to reply bytes once per distinct decision; both memos are
LRUs of ``TARGET_MEMO`` and ``REPLY_MEMO`` entries.  The data route's
body carries the era, so a tick starts new entries rather than serving
old ones.  Replies that read live state (``/healthz``, ``/metrics``,
``/plan``, ``/regions``, ``/slo``) are rendered on every request.

The chaos endpoints exist so load tests (and CI) can fault a *live*
deployment over the same wire they load it on -- the in-process
:class:`~repro.chaos.engine.ChaosEngine` does the actual damage.

Framing
-------
The transport reads into one ``RECV_BUFFER``-byte buffer the connection
owns (``get_buffer``), so a read is at most that many bytes;
``buffer_updated`` appends each read to the connection's ``bytearray``
and frames as many whole requests as it now holds, strictly in byte
order, one ``\n``-terminated line at a time (a bare LF ends a line as
CRLF does): request line -> header lines -> blank line -> ``Content-
Length`` body bytes skipped -> dispatch.  What has been framed of a
request that is not whole yet is kept on the connection, so the same
bytes frame the same way whole, split anywhere, or a byte at a time.
The replies to one read leave in request order as **one**
``transport.write`` (one ``send`` a read, however deep the client
pipelines), and no task, future or timer is created per request.

Refusals, each made at the first byte that decides it:

=========================================  ===========================
a line longer than ``MAX_LINE`` (whether   400 "line too long", close
or not its newline has arrived)
request line not three tokens              400, close
version not ``HTTP/1.0`` / ``HTTP/1.1``    400, close
the ``MAX_HEADERS``-th header line         400 "too many headers",
non-blank                                  close
any ``Transfer-Encoding`` header           400, close
two ``Content-Length`` values that differ  400, close
``Content-Length`` not ``1*DIGIT`` or      400, close (decided when
outside ``0..MAX_LINE``                    the head ends)
EOF inside a head or a body                close, no reply
``Connection: close``, or HTTP/1.0         reply, then close
without ``Connection: keep-alive``
no request completed in                    close, no reply
``IDLE_TIMEOUT_S``
=========================================  ===========================

After a 400 or a closing reply nothing further in the buffer is ever
parsed: the position of the next request is unknown (or unwanted), and
bytes behind a bad frame are where a smuggled second request would sit.

Memory a connection can hold: its receive buffer, unframed input of at
most one read (≤ ``RECV_BUFFER``) on top of one partial line
(< ``MAX_LINE``; a body is counted down, never buffered), and unsent
output below two of the transport's high-water marks plus one reply.
Replies are handed over as soon as they reach the high-water mark; a
client that does not read then makes the transport call
``pause_writing``, which stops both the framing and the reading until
``resume_writing`` re-pumps the buffer.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from functools import lru_cache
from types import MappingProxyType
from urllib.parse import parse_qs, urlsplit

from repro.serve.service import AcmService

#: Pragmatic caps: a request line, header line or body beyond this is junk.
MAX_LINE = 8192
MAX_HEADERS = 64
#: Bytes one read can bring in: the size of a connection's receive buffer.
#: A read never allocates (a fresh read buffer above the allocator's mmap
#: threshold costs page faults on every read).
RECV_BUFFER = 16384
#: Wall seconds a connection may go without completing a request (idle
#: keep-alive, or a head dribbled a byte at a time) before it is closed.
IDLE_TIMEOUT_S = 60.0
#: Distinct request targets whose parse, and distinct replies whose bytes,
#: are kept.  A target is shorter than ``MAX_LINE``, so hostile unique
#: targets evict entries but never grow either memo: ≈ 9 MiB together at
#: most, for targets built to be escaped as long as possible.
TARGET_MEMO = 128
REPLY_MEMO = 128


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
        self._connections: set[_Connection] = set()

    async def start(self) -> None:
        """Bind and start accepting connections (port 0 = ephemeral)."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port
        )
        # resolve the ephemeral port for callers that asked for 0
        sock = self._server.sockets[0]
        self.port = sock.getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            # abort, not close: a client that never reads its replies must
            # not hold the shutdown waiting for its buffer to flush
            for connection in list(self._connections):
                connection.transport.abort()
            await self._server.wait_closed()
            await asyncio.sleep(0)  # the aborts' connection_lost run here
            self._server = None

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #

    def _dispatch(self, method: str, target: str, keep_alive: bool) -> bytes:
        """The reply to one framed request, as the bytes to write."""
        service = self.service
        try:
            path, query = _split_target(target)
            if path == "/" or path == "/route":
                if method not in ("GET", "POST"):
                    return _reply(405, {"error": "method"}, keep_alive)
                status, body = service.handle_request(query.get("region"))
                return _reply(status, body, keep_alive)
            if path in _SNAPSHOTS:
                if method != "GET":
                    return _reply(405, {"error": "method"}, keep_alive)
                if path == "/metrics":
                    text = service.metrics_text()
                    return _render(
                        200, _METRICS_TYPE, text.encode("utf-8"), keep_alive
                    )
                if path == "/healthz":
                    snapshot = {
                        "status": "ok",
                        "era": service.plan_snapshot()["era"],
                        "clock_now": service.clock.now,
                    }
                elif path == "/plan":
                    snapshot = service.plan_snapshot()
                elif path == "/regions":
                    snapshot = service.regions_snapshot()
                else:
                    snapshot = service.slo_snapshot()
                return _render_json(200, snapshot, keep_alive)
            if path == "/chaos/blackout" or path == "/chaos/heal":
                if method != "POST":
                    return _reply(405, {"error": "POST required"}, keep_alive)
                region = query.get("region")
                if region is None or region not in service.regions:
                    error = f"unknown region {region!r}"
                    return _reply(400, {"error": error}, keep_alive)
                if path.endswith("blackout"):
                    service.chaos.region_blackout(region)
                else:
                    service.chaos.region_heal(region)
                return _reply(200, {"ok": True, "region": region}, keep_alive)
            if path == "/slo/kill" or path == "/slo/override":
                if method != "POST":
                    return _reply(405, {"error": "POST required"}, keep_alive)
                if path.endswith("kill"):
                    raw = query.get("on", "1")
                    if raw not in ("0", "1"):
                        return _reply(
                            400,
                            {"error": f"bad on={raw!r} (want 0|1)"},
                            keep_alive,
                        )
                    ok = service.slo_kill(raw == "1")
                else:
                    level = query.get("level")
                    if level in (None, "none"):
                        level = None
                    try:
                        ok = service.slo_override(level)
                    except ValueError as exc:
                        return _reply(400, {"error": str(exc)}, keep_alive)
                if not ok:
                    return _reply(400, {"error": "slo disabled"}, keep_alive)
                return _reply(200, {"ok": True}, keep_alive)
            return _reply(404, {"error": f"no route {path}"}, keep_alive)
        except Exception as exc:  # noqa: BLE001 - one request, not the server
            return _reply(
                500, {"error": f"{type(exc).__name__}: {exc}"}, keep_alive
            )


#: GET-only routes whose reply reads live state, rendered on every request
_SNAPSHOTS = frozenset({"/healthz", "/metrics", "/plan", "/regions", "/slo"})
_METRICS_TYPE = "text/plain; version=0.0.4; charset=utf-8"


@lru_cache(maxsize=TARGET_MEMO)
def _split_target(target: str) -> tuple[str, MappingProxyType]:
    """``(path, query)`` of a request target, parsed once per distinct
    target string.  ``query`` maps each name to its first non-blank
    value, percent- and ``+``-decoded; it is shared by every request
    with this target, hence read-only."""
    url = urlsplit(target)
    query = {name: values[0] for name, values in parse_qs(url.query).items()}
    return url.path, MappingProxyType(query)


def _render(
    status: int,
    content_type: str,
    body: bytes,
    keep_alive: bool,
    extra_headers: dict | None = None,
) -> bytes:
    reason = _STATUS_TEXT.get(status, "Unknown")
    connection = "keep-alive" if keep_alive else "close"
    extra = "".join(
        f"{name}: {value}\r\n" for name, value in (extra_headers or {}).items()
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


def _render_json(status: int, payload: dict, keep_alive: bool) -> bytes:
    """A JSON reply; a 429 whose body carries ``retry_after_s`` gets the
    matching ``Retry-After`` header."""
    headers = None
    if status == 429 and "retry_after_s" in payload:
        headers = {"Retry-After": str(int(payload["retry_after_s"]))}
    body = json.dumps(payload).encode("utf-8")
    return _render(status, "application/json", body, keep_alive, headers)


@lru_cache(maxsize=REPLY_MEMO, typed=True)
def _memo_reply(status: int, keep_alive: bool, names: tuple, *values) -> bytes:
    return _render_json(status, dict(zip(names, values)), keep_alive)


def _reply(status: int, payload: dict, keep_alive: bool) -> bytes:
    """:func:`_render_json` of a decision, rendered once per distinct
    ``(status, payload, keep_alive)``.

    The key holds every value with its type, so ``True``, ``1`` and
    ``1.0`` never share an entry.  A decision's values are ``str``,
    ``int``, ``bool`` or ``None``; a snapshot goes to
    :func:`_render_json` instead, since its containers are unhashable
    and two equal floats may print differently (``0.0``, ``-0.0``).
    The data route's body carries the era, so an era tick changes the
    key and never serves the last era's bytes.
    """
    return _memo_reply(status, keep_alive, tuple(payload), *payload.values())


class _Connection(asyncio.BufferedProtocol):
    """One client connection: the framing state machine of the module
    docstring.  Everything between two reads lives in ``_buf`` (bytes not
    yet framed) and the fields of the request being framed."""

    def __init__(self, ingress: HttpIngress) -> None:
        self.ingress = ingress
        self.transport: asyncio.Transport | None = None
        self._recv = memoryview(bytearray(RECV_BUFFER))
        self._buf = bytearray()
        self._write_paused = False
        self._served = 0  # requests answered; the idle timer's progress mark
        self._begin_request()

    def _begin_request(self) -> None:
        self._request: tuple[str, str] | None = None  # method, target
        self._header_lines = 0
        self._content_length: str | None = None
        self._keep_alive = True
        self._body_left = 0

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self._flush_at = transport.get_write_buffer_limits()[1]
        self.ingress._connections.add(self)
        self._arm_idle_timer()

    def connection_lost(self, exc: Exception | None) -> None:
        self._idle.cancel()
        self.ingress._connections.discard(self)

    def _arm_idle_timer(self) -> None:
        # re-armed only when it fires: nothing is scheduled per request
        self._idle = asyncio.get_running_loop().call_later(
            IDLE_TIMEOUT_S, self._close_if_idle, self._served
        )

    def _close_if_idle(self, served_then: int) -> None:
        if self._served == served_then:
            # nothing to say to it, and what it was sent may never drain
            self.transport.abort()
        else:
            self._arm_idle_timer()

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._recv

    def buffer_updated(self, nbytes: int) -> None:
        self._buf += self._recv[:nbytes]
        self._pump()

    def pause_writing(self) -> None:
        self._write_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._write_paused = False
        self.transport.resume_reading()
        self._pump()

    def _pump(self) -> None:
        """Answer every whole request in the buffer with one write."""
        transport = self.transport
        if transport.is_closing():
            return  # replied-and-closed: the rest is never parsed
        ingress = self.ingress
        buf = self._buf
        pos = 0
        out: list[bytes] = []
        unsent = 0
        closing = False
        try:
            while not self._write_paused:
                if self._body_left:
                    # bodies are accepted whole and discarded; the API is
                    # query-driven
                    skipped = min(self._body_left, len(buf) - pos)
                    pos += skipped
                    self._body_left -= skipped
                    if self._body_left:
                        break
                else:
                    end = buf.find(b"\n", pos, pos + MAX_LINE)
                    if end < 0:
                        if len(buf) - pos >= MAX_LINE:
                            raise _BadRequest("line too long")
                        break
                    text = buf[pos:end].decode("latin-1").strip()
                    pos = end + 1
                    if self._request is None:
                        self._read_request_line(text)
                        continue
                    if text:
                        self._read_header(text)
                        continue
                    self._body_left = self._body_length()
                    if self._body_left:
                        continue
                method, target = self._request
                keep_alive = self._keep_alive
                reply = ingress._dispatch(method, target, keep_alive)
                out.append(reply)
                self._served += 1
                if not keep_alive:
                    closing = True
                    break
                self._begin_request()
                unsent += len(reply)
                if unsent >= self._flush_at:
                    # enough to fill the transport: hand it over now, so
                    # that a client not reading pauses the framing here
                    transport.write(b"".join(out))
                    out.clear()
                    unsent = 0
        except _BadRequest as exc:
            out.append(_reply(400, {"error": str(exc)}, keep_alive=False))
            closing = True
        if out:
            transport.write(b"".join(out))
        del buf[:pos]
        if closing:
            transport.close()  # what the buffer still holds is never parsed

    def _read_request_line(self, text: str) -> None:
        parts = text.split()
        if len(parts) != 3:
            raise _BadRequest("malformed request line")
        method, target, version = parts
        if version == "HTTP/1.0":
            self._keep_alive = False
        elif version != "HTTP/1.1":
            raise _BadRequest(f"unsupported version {version[:32]!r}")
        self._request = method, target

    def _read_header(self, text: str) -> None:
        self._header_lines += 1
        if self._header_lines == MAX_HEADERS:
            raise _BadRequest("too many headers")
        name, sep, value = text.partition(":")
        if not sep:
            return
        name = name.strip().lower()
        value = value.strip()
        if name == "connection":
            value = value.lower()
            if value == "close":
                self._keep_alive = False
            elif value == "keep-alive":
                self._keep_alive = True
        elif name == "content-length":
            if self._content_length not in (None, value):
                raise _BadRequest("conflicting Content-Length")
            self._content_length = value
        elif name == "transfer-encoding":
            raise _BadRequest("Transfer-Encoding is not supported")

    def _body_length(self) -> int:
        raw = self._content_length
        if raw is None:
            return 0
        try:
            # 1*DIGIT: int() alone would also take "+5" and "1_0"
            length = int(raw) if raw.isascii() and raw.isdigit() else -1
        except ValueError:  # more digits than int() converts
            length = -1
        if not 0 <= length <= MAX_LINE:
            raise _BadRequest(f"bad Content-Length {raw[:32]!r}")
        return length


@contextlib.asynccontextmanager
async def serving(service: AcmService, host: str = "127.0.0.1", port: int = 0):
    """The one boot and teardown of a served deployment.

    Entering binds the ingress (``port`` 0 = ephemeral; read the bound
    one off the yielded :class:`HttpIngress`), arms the service's
    periodic control events and starts the clock dispatching in the
    background; leaving cancels the events, stops the clock, waits for
    its dispatcher and closes the listener and every connection still
    open -- also on an exception or a cancellation (``^C``) inside the
    block.
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
