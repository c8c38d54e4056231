"""Structured fuzzing of the ingress's request framing, over real sockets.

A seeded grammar writes request sequences -- data-path and admin requests,
bare-LF line ends, 0-70 headers, lines around ``MAX_LINE``, bodies shorter
than, equal to and longer than their ``Content-Length``, junk request lines
-- and every byte string is delivered five ways: whole, split in two at
each of a few offsets, a byte at a time, pipelined several copies deep in
one send, and followed by a half-close.  ``reference_frames`` below is the
oracle: the framing rules applied to the complete byte string by the
plainest code that states them, with no buffer to resume and no transport.
Whatever the segmentation, the ingress must dispatch exactly the requests
the oracle frames, answer them in that order with at most one closing reply
and nothing after it, change no region's liveness a framed request did not
ask for, and leave the event loop's exception log empty.
"""

from __future__ import annotations

import asyncio
import random
import socket
from urllib.parse import parse_qs, quote, urlsplit

import pytest

from repro.serve.ingress import (
    MAX_HEADERS,
    MAX_LINE,
    RECV_BUFFER,
    HttpIngress,
    _Connection,
)
from repro.slo import LEVEL_CODES, SloConfig
from tests.serve.test_ingress import make_service
from tests.serve.test_ingress_replies import json_reference

REGIONS = make_service().regions
SENTINEL = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"


# --------------------------------------------------------------------- #
# the oracle
# --------------------------------------------------------------------- #


class _Refused(Exception):
    pass


def reference_frames(data: bytes) -> tuple[list[tuple[str, str]], str]:
    """(requests framed, how the connection ends) for ``data`` then EOF.

    The ending is ``"bad"`` (a 400 reply, then close), ``"close"`` (the last
    framed request asked for it) or ``"eof"`` (the bytes ran out).
    """
    requests: list[tuple[str, str]] = []
    pos = 0

    def next_line() -> str | None:
        nonlocal pos
        end = data.find(b"\n", pos)
        length = (end if end >= 0 else len(data)) - pos + (end >= 0)
        if length > MAX_LINE or (end < 0 and length == MAX_LINE):
            raise _Refused
        if end < 0:
            return None
        text = data[pos:end].decode("latin-1").strip()
        pos = end + 1
        return text

    try:
        while True:
            line = next_line()
            if line is None:
                return requests, "eof"
            parts = line.split()
            if len(parts) != 3 or parts[2] not in ("HTTP/1.0", "HTTP/1.1"):
                raise _Refused
            keep_alive = parts[2] == "HTTP/1.1"
            lengths = set()
            for _ in range(MAX_HEADERS):
                line = next_line()
                if line is None:
                    return requests, "eof"
                if not line:
                    break
                name, colon, value = line.partition(":")
                name, value = name.strip().lower(), value.strip()
                if not colon:
                    continue
                if name == "transfer-encoding":
                    raise _Refused
                if name == "content-length":
                    lengths.add(value)
                    if len(lengths) > 1:
                        raise _Refused
                if name == "connection" and value.lower() == "close":
                    keep_alive = False
                if name == "connection" and value.lower() == "keep-alive":
                    keep_alive = True
            else:
                raise _Refused
            (raw,) = lengths or {"0"}
            if not (raw and set(raw) <= set("0123456789")):
                raise _Refused
            if len(raw) > 8 or int(raw) > MAX_LINE:
                raise _Refused
            if len(data) - pos < int(raw):
                return requests, "eof"
            pos += int(raw)
            requests.append((parts[0], parts[1]))
            if not keep_alive:
                return requests, "close"
    except _Refused:
        return requests, "bad"


def expected_liveness(requests: list[tuple[str, str]]) -> dict[str, bool]:
    alive = dict.fromkeys(REGIONS, True)
    for method, target in requests:
        url = urlsplit(target)
        region = parse_qs(url.query).get("region", [None])[0]
        if method == "POST" and region in alive:
            if url.path == "/chaos/blackout":
                alive[region] = False
            elif url.path == "/chaos/heal":
                alive[region] = True
    return alive


# --------------------------------------------------------------------- #
# the grammar
# --------------------------------------------------------------------- #

TARGETS = (
    [("GET", "/"), ("GET", "/route"), ("POST", "/"), ("PUT", "/")]
    + [("GET", f"/?region={name}") for name in REGIONS]
    + [("POST", f"/chaos/blackout?region={name}") for name in REGIONS]
    + [("POST", f"/chaos/heal?region={name}") for name in REGIONS]
    + [
        ("GET", "/healthz"),
        ("GET", "/metrics"),
        ("GET", "/plan"),
        ("GET", "/regions"),
        ("GET", "/slo"),
        ("GET", "/chaos/blackout"),
        ("POST", "/chaos/blackout?region=atlantis"),
        ("POST", "/chaos/heal"),
        ("POST", "/slo/kill?on=1"),
        ("POST", "/slo/kill?on=maybe"),
        ("POST", "/slo/override?level=degraded"),
        ("GET", "/nope?x=%zz"),
    ]
)
JUNK_LINES = [
    b"",
    b"GET",
    b"GET /",
    b"GET / HTTP/1.1 extra",
    b"GET / JUNK/9",
    b"GET / HTTP/2",
    b"\x00\xff\xfe garbage \x80",
    b"NOT-HTTP",
]
BAD_LENGTHS = [b"+5", b"1_0", b"-1", b"abc", b"", b"5 5", b"\xb2", b"9" * 40]


def _eol(rng: random.Random) -> bytes:
    return b"\n" if rng.random() < 0.25 else b"\r\n"


def _padded_header(eol: bytes, line_len: int) -> bytes:
    """A header line of exactly ``line_len`` bytes, terminator included."""
    return b"X-Pad: " + b"p" * (line_len - 7 - len(eol)) + eol


def gen_request(rng: random.Random) -> bytes:
    """One request, usually well-formed, sometimes bent one way."""
    method, target = rng.choice(TARGETS)
    bend = rng.choice(
        ["none"] * 6
        + ["junk-line", "version", "many-headers", "long-line", "bad-length"]
        + ["two-lengths", "chunked", "short-body", "long-body", "http10"]
    )
    version = b"HTTP/1.1"
    if bend == "http10":
        version = b"HTTP/1.0"
    if bend == "version":
        version = rng.choice([b"HTTP/1.2", b"http/1.1", b"HTTP/1.1x"])
    line = b"%s %s %s" % (method.encode(), target.encode(), version)
    if bend == "junk-line":
        line = rng.choice(JUNK_LINES)
    headers = [
        b"X-H%d: v%d" % (k, k) + _eol(rng)
        for k in range(rng.choice([0, 0, 1, 2, 5]))
    ]
    if bend == "many-headers":
        # 60..70: both sides of the MAX_HEADERS-th line
        headers = [b"X-H: v" + _eol(rng) for _ in range(rng.randint(60, 70))]
    if bend == "long-line":
        headers.append(
            _padded_header(_eol(rng), MAX_LINE + rng.choice([-1, 0, 1]))
        )
    if rng.random() < 0.3:
        headers.append(b"Host: fuzz" + _eol(rng))
    if rng.random() < 0.1:
        headers.append(b"no colon on this line" + _eol(rng))
    if bend == "http10" and rng.random() < 0.5:
        headers.append(b"connection: Keep-Alive" + _eol(rng))
    elif rng.random() < 0.08:
        headers.append(b"Connection: close" + _eol(rng))
    body = b""
    lengths: list[bytes] = []
    if method != "GET" or rng.random() < 0.1:
        body = bytes(rng.choices(b"xyz \r\n:GET/", k=rng.choice([0, 3, 40])))
        declared = len(body)
        if bend == "short-body":
            declared += rng.choice([1, 20])  # eats into what follows
        if bend == "long-body":
            body += b"spill"  # starts what follows
        lengths = [b"%d" % declared]
    if bend == "bad-length":
        lengths = [rng.choice(BAD_LENGTHS)]
    if bend == "two-lengths":
        lengths = [b"%d" % len(body), b"%d" % rng.choice([len(body), 7])]
    headers += [b"Content-Length: " + raw + _eol(rng) for raw in lengths]
    if bend == "chunked":
        headers.append(b"Transfer-Encoding: chunked" + _eol(rng))
    rng.shuffle(headers)
    return line + _eol(rng) + b"".join(headers) + _eol(rng) + body


def gen_case(rng: random.Random) -> bytes:
    """A pipelined sequence ending in the closing sentinel, or cut short."""
    data = b"".join(gen_request(rng) for _ in range(rng.randint(1, 6)))
    if rng.random() < 0.2:
        return data[: rng.randrange(len(data))]  # EOF mid-head or mid-body
    return data + SENTINEL


# --------------------------------------------------------------------- #
# delivery
# --------------------------------------------------------------------- #


def split_offsets(data: bytes, rng: random.Random) -> list[int]:
    """A few cut points, biased to line ends and the ``MAX_LINE`` edge."""
    edges = {
        at + d
        for at in range(len(data))
        if data[at] == 0x0A
        for d in (-1, 0, 1, 2)
    }
    edges |= {MAX_LINE - 1, MAX_LINE, MAX_LINE + 1}
    edges = sorted(e for e in edges if 0 < e < len(data))
    picks = rng.sample(edges, min(3, len(edges)))
    if len(data) > 1:
        picks.append(rng.randrange(1, len(data)))
    return picks


def parse_replies(
    raw: bytes, cut_short: bool = False
) -> list[tuple[int, bool, bytes]]:
    """(status, keep-alive, body) of each reply; raises unless ``raw`` is
    exactly a sequence of whole well-formed replies (``cut_short``: the
    last one may be incomplete, and is dropped)."""
    replies = []
    pos = 0
    while pos < len(raw):
        end = raw.find(b"\r\n\r\n", pos)
        if end < 0 and cut_short:
            break
        assert end >= 0
        status_line, *header_lines = raw[pos:end].decode("latin-1").split(
            "\r\n"
        )
        version, status, _reason = status_line.split(" ", 2)
        assert version == "HTTP/1.1"
        headers = dict(line.split(": ", 1) for line in header_lines)
        length = int(headers["Content-Length"])
        body = raw[end + 4:end + 4 + length]
        if len(body) < length and cut_short:
            break
        assert len(body) == length
        assert headers["Connection"] in ("keep-alive", "close")
        replies.append(
            (int(status), headers["Connection"] == "keep-alive", body)
        )
        pos = end + 4 + length
    return replies


class Client(asyncio.Protocol):
    """Keeps what arrived even when the connection then dies of a reset
    (a ``StreamReader`` raises the reset and withholds the bytes)."""

    def __init__(self) -> None:
        self.raw = bytearray()
        self.reset = False
        self.closed = asyncio.get_running_loop().create_future()

    def data_received(self, data: bytes) -> None:
        self.raw += data

    def connection_lost(self, exc: Exception | None) -> None:
        self.reset = exc is not None
        self.closed.set_result(None)


class Transport:
    """What a :class:`_Connection` needs of a transport; keeps the writes."""

    def __init__(self) -> None:
        self.closing = False
        self.written: list = []

    def get_write_buffer_limits(self) -> tuple[int, int]:
        return 16384, 65536

    def write(self, data: bytes) -> None:
        self.written.append(data)

    def close(self) -> None:
        self.closing = True

    def is_closing(self) -> bool:
        return self.closing

    def pause_reading(self) -> None: ...

    def resume_reading(self) -> None: ...


def feed(connection: _Connection, data: bytes) -> int:
    """Deliver ``data`` as the selector transport does: ask for the
    connection's buffer, copy at most its length in, report the count, in
    as many reads as it takes; no read once the connection is closing.
    Returns the number of reads."""
    reads = 0
    view = memoryview(data)
    while view and not connection.transport.is_closing():
        buf = connection.get_buffer(-1)
        n = min(len(buf), len(view))
        buf[:n] = view[:n]
        connection.buffer_updated(n)
        view = view[n:]
        reads += 1
    return reads


class Harness:
    """One event loop; a fresh service and ingress for every delivery."""

    def __init__(self) -> None:
        self.loop_errors: list = []
        self.deliveries = 0
        self.resets = 0

    async def deliver(self, chunks: list[bytes], half_close: bool) -> list:
        """Send ``chunks`` as separate writes; check every property against
        the oracle's reading of their concatenation; returns the (request,
        status) pairs dispatched."""
        data = b"".join(chunks)
        want, ending = reference_frames(data)
        service = make_service()
        ingress = HttpIngress(service, port=0)
        log: list = []
        dispatch = ingress._dispatch

        def logged_dispatch(method: str, target: str, keep_alive: bool):
            reply = dispatch(method, target, keep_alive)
            ((status, _, body),) = parse_replies(reply)
            log.append(((method, target), status, body))
            return reply

        ingress._dispatch = logged_dispatch
        await ingress.start()
        try:
            transport, client = await asyncio.get_running_loop(
            ).create_connection(Client, "127.0.0.1", ingress.port)
            for chunk in chunks:
                if transport.is_closing():
                    break  # answered and closed already: nobody listens
                transport.write(chunk)
                if len(chunks) > 1:
                    # let the server read this chunk on its own
                    await asyncio.sleep(0)
                    await asyncio.sleep(0)
            if (half_close or ending == "eof") and not transport.is_closing():
                transport.write_eof()
            await asyncio.wait_for(client.closed, timeout=10.0)
        finally:
            await ingress.stop()
        self.deliveries += 1
        self.resets += client.reset

        assert [entry[0] for entry in log] == want
        alive = {r: service.overlay.is_alive(r) for r in service.regions}
        assert alive == expected_liveness(want)
        # the server closing on bytes of ours it had not read resets the
        # connection, and a reset may cut the replies short
        assert ending != "eof" or not client.reset
        replies = parse_replies(bytes(client.raw), cut_short=client.reset)
        expected = [(status, True, body) for _, status, body in log]
        if ending == "close":
            expected[-1] = (expected[-1][0], False, expected[-1][2])
        # the dispatched requests' replies, then the refusal if there is one
        answers = replies[:len(expected)]
        refusal = [reply[:2] for reply in replies[len(expected):]]
        assert answers == expected[:len(answers)]
        if not client.reset:
            assert len(answers) == len(expected)
            assert refusal == ([(400, False)] if ending == "bad" else [])
        else:
            assert refusal in ([], [(400, False)] if ending == "bad" else [])
        return [(request, status) for request, status, _ in log]


def deliver_every_way(cases: list[bytes], seed: int) -> Harness:
    harness = Harness()

    async def main() -> None:
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: harness.loop_errors.append(context)
        )
        rng = random.Random(seed)
        for data in cases:
            whole = await harness.deliver([data], half_close=False)
            logs = [await harness.deliver([data], half_close=True)]
            for at in split_offsets(data, rng):
                logs.append(
                    await harness.deliver([data[:at], data[at:]], False)
                )
            if len(data) <= 600:
                logs.append(
                    await harness.deliver(
                        [data[k:k + 1] for k in range(len(data))], False
                    )
                )
            # framing is independent of segmentation
            assert all(log == whole for log in logs)
            # pipelined deeper: the same bytes several times over in one send
            await harness.deliver([data * rng.randint(2, 8)], False)

    asyncio.run(main())
    assert harness.loop_errors == []
    assert harness.deliveries >= 4 * len(cases)
    return harness


@pytest.mark.parametrize("seed", range(6))
def test_framing_matches_the_oracle_under_every_segmentation(seed):
    rng = random.Random(seed)
    harness = deliver_every_way([gen_case(rng) for _ in range(12)], seed)
    # a reset may hide replies from the checks; most deliveries must not
    assert harness.resets < harness.deliveries // 2


GET = b"GET / HTTP/1.1\r\n"
#: byte string -> what its framing must be, at the edge of each rule
EDGES = [
    (GET + b"\r\n", ([("GET", "/")], "eof")),
    (GET + b"\n" + SENTINEL, ([("GET", "/"), ("GET", "/healthz")], "close")),
    (b"  GET  /  HTTP/1.1 \r\n \t \r\n", ([("GET", "/")], "eof")),
    (GET + b"X: y\n" * (MAX_HEADERS - 1) + b"\n", ([("GET", "/")], "eof")),
    (GET + b"X: y\n" * MAX_HEADERS + b"\n" + SENTINEL, ([], "bad")),
    (b"a" * (MAX_LINE - 1), ([], "eof")),
    (b"a" * MAX_LINE, ([], "bad")),
    (GET + _padded_header(b"\n", MAX_LINE) + b"\n", ([("GET", "/")], "eof")),
    (GET + _padded_header(b"\n", MAX_LINE + 1) + b"\n", ([], "bad")),
    (GET + b"Content-Length: 4\r\n\r\nabc", ([], "eof")),
    (GET + b"Content-Length: 4\r\n\r\nabcd", ([("GET", "/")], "eof")),
    (
        GET + b"Content-Length: %d\r\n\r\n" % MAX_LINE + b"b" * MAX_LINE,
        ([("GET", "/")], "eof"),
    ),
    (GET + b"Content-Length: %d\r\n\r\n" % (MAX_LINE + 1), ([], "bad")),
    (GET + b"Content-Length: 1_0\r\n\r\n0123456789" + GET, ([], "bad")),
    (GET + b"Content-Length: +3\r\n\r\n012" + SENTINEL, ([], "bad")),
    (GET + b"Content-Length: 3\r\nContent-Length: 0\r\n\r\n", ([], "bad")),
    (GET + b"Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n", ([], "bad")),
    (b"GET / HTTP/1.0\r\n\r\n" + GET + b"\r\n", ([("GET", "/")], "close")),
    (b"GET / JUNK/9\r\n\r\n", ([], "bad")),
]


def test_the_oracle_states_the_rules_and_the_ingress_keeps_them_at_the_edges():
    for data, framing in EDGES:
        assert reference_frames(data) == framing, data[:60]
    deliver_every_way([data for data, _ in EDGES], seed=0)
    rng = random.Random(0)
    endings = {reference_frames(gen_case(rng))[1] for _ in range(200)}
    assert endings == {"bad", "close", "eof"}  # the grammar reaches them all


# --------------------------------------------------------------------- #
# backpressure
# --------------------------------------------------------------------- #


def test_a_client_that_never_reads_is_not_buffered_for():
    """Pipelined requests and no reads: the ingress stops framing and stops
    reading; once the client reads, every request it managed to send is
    answered, in order."""
    loop_errors: list = []

    async def main() -> None:
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(
            lambda _loop, context: loop_errors.append(context)
        )
        ingress = HttpIngress(make_service(), port=0)
        await ingress.start()
        # small kernel buffers (accepted sockets inherit them), so that the
        # test is about the ingress's buffers and a few hundred KiB suffice
        for option in (socket.SO_SNDBUF, socket.SO_RCVBUF):
            ingress._server.sockets[0].setsockopt(
                socket.SOL_SOCKET, option, 8192
            )
        client = socket.socket()
        client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
        client.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
        client.setblocking(False)
        try:
            await loop.sock_connect(client, ("127.0.0.1", ingress.port))
            # a big reply and a numbered one, over and over
            pair = b"GET /metrics HTTP/1.1\r\n\r\nGET /seq/%d HTTP/1.1\r\n\r\n"
            stream = b"".join(pair % k for k in range(20_000))
            sent = 0
            stalled = 0
            while stalled < 20:  # until the server stops taking bytes
                try:
                    sent += client.send(stream[sent:sent + 4096])
                    stalled = 0
                except BlockingIOError:
                    stalled += 1
                    await asyncio.sleep(0.005)
            want, ending = reference_frames(stream[:sent])
            assert ending == "eof"

            (connection,) = ingress._connections
            transport = connection.transport
            high_water = transport.get_write_buffer_limits()[1]
            one_reply = len(ingress._dispatch("GET", "/metrics", True))
            assert connection._write_paused
            assert not transport.is_reading()
            assert connection._served < len(want)
            assert len(connection._buf) <= MAX_LINE + RECV_BUFFER
            assert transport.get_write_buffer_size() <= (
                2 * high_water + 2 * one_reply
            )

            client.shutdown(socket.SHUT_WR)
            raw = bytearray()
            while chunk := await loop.sock_recv(client, 1 << 16):
                raw += chunk
        finally:
            client.close()
            await ingress.stop()
        replies = parse_replies(bytes(raw))
        assert [status for status, _, _ in replies] == [200, 404] * (
            len(want) // 2
        ) + [200] * (len(want) % 2)
        assert [body for status, _, body in replies if status == 404] == [
            b'{"error": "no route %s"}' % target.encode()
            for _, target in want
            if target != "/metrics"
        ]

    asyncio.run(main())
    assert loop_errors == []


def test_a_resume_after_a_closing_reply_frames_nothing():
    """The write of a 400 can itself fill the transport; when it drains and
    ``resume_writing`` re-pumps, what lay behind the bad bytes stays
    unparsed."""

    service = make_service()
    victim = service.regions[0]
    transport = Transport()

    async def main() -> None:
        connection = _Connection(HttpIngress(service))
        connection.connection_made(transport)
        feed(
            connection,
            b"NOT-HTTP\r\nPOST /chaos/blackout?region=%s HTTP/1.1\r\n\r\n"
            % victim.encode()
        )
        connection.pause_writing()
        connection.resume_writing()
        connection.connection_lost(None)

    asyncio.run(main())
    assert transport.closing
    assert len(transport.written) == 1
    assert transport.written[0].startswith(b"HTTP/1.1 400 ")
    assert service.overlay.is_alive(victim)


# --------------------------------------------------------------------- #
# the receive buffer
# --------------------------------------------------------------------- #


def padded(target: str, size: int) -> bytes:
    """A keep-alive ``GET target`` of exactly ``size`` bytes, padded with
    header lines of at most 4 000 bytes."""
    head = b"GET %s HTTP/1.1\r\n" % target.encode()
    room = size - len(head) - 2  # the blank line that ends the head
    pads = []
    while room > 4000:
        pads.append(b"X: " + b"p" * 1995 + b"\r\n")
        room -= 2000
    pads.append(b"X: " + b"p" * (room - 5) + b"\r\n")
    request = head + b"".join(pads) + b"\r\n"
    assert len(request) == size
    return request


def read_through(chunks: list[bytes]) -> tuple[list, list, Transport, int]:
    """Each chunk arrives as one ``feed`` on a fresh connection: the
    requests dispatched, the replies, the transport and the reads taken."""
    ingress = HttpIngress(make_service())
    dispatched = []
    dispatch = ingress._dispatch

    def logged_dispatch(method: str, target: str, keep_alive: bool):
        dispatched.append((method, target))
        return dispatch(method, target, keep_alive)

    ingress._dispatch = logged_dispatch
    transport = Transport()

    async def main() -> int:
        connection = _Connection(ingress)
        connection.connection_made(transport)
        reads = sum(feed(connection, chunk) for chunk in chunks)
        connection.connection_lost(None)
        return reads

    reads = asyncio.run(main())
    replies = parse_replies(b"".join(transport.written))
    return dispatched, replies, transport, reads


def test_a_read_that_exactly_fills_the_buffer():
    data = b"".join(padded(f"/seq/{k}", RECV_BUFFER // 4) for k in range(4))
    assert len(data) == RECV_BUFFER
    dispatched, replies, transport, reads = read_through([data])
    assert reads == 1
    assert (dispatched, "eof") == reference_frames(data)
    assert [reply[:2] for reply in replies] == [(404, True)] * 4
    assert not transport.closing


def test_a_request_line_split_across_two_full_buffers():
    first = padded("/healthz", RECV_BUFFER - 10)
    data = first + padded("/seq/straddle", RECV_BUFFER + 10)
    assert data[RECV_BUFFER - 10:RECV_BUFFER + 10].startswith(b"GET /seq/")
    for chunks in ([data], [data[:RECV_BUFFER], data[RECV_BUFFER:]]):
        dispatched, replies, _, reads = read_through(chunks)
        assert reads == 2
        assert dispatched == [("GET", "/healthz"), ("GET", "/seq/straddle")]
        assert [reply[:2] for reply in replies] == [(200, True), (404, True)]


@pytest.mark.parametrize("arrival", [1000, 3 * RECV_BUFFER])
def test_a_line_overrun_spread_over_reads_is_refused_once(arrival):
    """A request, then a line that starts 100 bytes before a read ends and
    never ends: 400 and close at the read that takes it to ``MAX_LINE``,
    and no read after it."""
    head = padded("/healthz", RECV_BUFFER - 100)
    data = head + b"G" * (2 * RECV_BUFFER)
    chunks = [data[i:i + arrival] for i in range(0, len(data), arrival)]
    dispatched, replies, transport, reads = read_through(chunks)
    assert (dispatched, "bad") == reference_frames(data)
    assert dispatched == [("GET", "/healthz")]
    assert [reply[:2] for reply in replies] == [(200, True), (400, False)]
    assert replies[1][2] == b'{"error": "line too long"}'
    assert transport.closing
    read_size = min(arrival, RECV_BUFFER)
    assert reads == -(-(len(head) + MAX_LINE) // read_size) > 1


def test_every_read_lands_in_the_same_buffer():
    transport = Transport()

    async def main() -> None:
        connection = _Connection(HttpIngress(make_service()))
        connection.connection_made(transport)
        buf = connection.get_buffer(-1)
        assert len(buf) == RECV_BUFFER
        for sizehint in (-1, 1, RECV_BUFFER, 4 * RECV_BUFFER):
            request = b"GET /healthz HTTP/1.1\r\n\r\n"
            assert connection.get_buffer(sizehint) is buf
            buf[:len(request)] = request
            connection.buffer_updated(len(request))
        connection.connection_lost(None)

    asyncio.run(main())
    replies = parse_replies(b"".join(transport.written))
    assert [reply[:2] for reply in replies] == [(200, True)] * 4


# --------------------------------------------------------------------- #
# the admin surface's query strings
# --------------------------------------------------------------------- #

#: admin route -> the query name it reads
ADMIN = {
    "/chaos/blackout": "region",
    "/chaos/heal": "region",
    "/slo/kill": "on",
    "/slo/override": "level",
}
#: decoded values each name is given, good and bad
VALUES = {
    "region": list(REGIONS) + ["atlantis", REGIONS[0] + " ", ""],
    "on": ["0", "1", "maybe", " 1", "01", ""],
    "level": ["normal", "degraded", "none", "panic", "de graded", ""],
}
#: what fits of a target on a ``POST <target> HTTP/1.1\r\n`` line
TARGET_ROOM = MAX_LINE - len("POST  HTTP/1.1\r\n")


def spell(value: str, rng: random.Random) -> str:
    """``value`` written one of the ways that decode to it."""
    way = rng.choice(["plain", "plus", "percent", "mixed"])
    if way == "plain":
        return quote(value, safe="")
    if way == "plus":
        return quote(value, safe="").replace("%20", "+")
    if way == "percent":
        return "".join(f"%{byte:02X}" for byte in value.encode())
    return "".join(
        f"%{ord(c):02x}" if rng.random() < 0.5 else quote(c, safe="")
        for c in value
    )


def gen_admin_request(rng: random.Random) -> tuple[str, str]:
    """(method, target): repeated, blank, encoded and ``+``-bearing values
    of the route's own query name among the others', sometimes padded to
    within a few bytes of ``MAX_LINE``."""
    path, name = rng.choice(list(ADMIN.items()))
    params = [
        f"{name}={spell(rng.choice(VALUES[name]), rng)}"
        for _ in range(rng.choice([0, 1, 1, 1, 2, 3]))
    ]
    params += [
        rng.choice([f"{name}=", name, f"{name}=+", "x=%zz", "+=1"])
        for _ in range(rng.choice([0, 0, 1, 2]))
    ]
    params += [
        f"{other}={spell(rng.choice(VALUES[other]), rng)}"
        for other in rng.sample(sorted(VALUES), rng.choice([0, 1]))
    ]
    rng.shuffle(params)
    target = path + ("?" + "&".join(params) if params else "")
    if rng.random() < 0.15:
        room = TARGET_ROOM - len(target) - len(name) - 2 - rng.randrange(4)
        pad = rng.choice(["a" * room, "%41" * (room // 3), "+" * room])
        filler = f"{name}={pad}"
        target += ("&" if params else "?") + filler
        if rng.random() < 0.5:  # the long value first, so it wins
            target = path + "?" + "&".join([filler] + params)
    assert len(target) <= TARGET_ROOM
    return rng.choice(["POST"] * 9 + ["GET"]), target


class AdminOracle:
    """The admin surface stated with plain ``urlsplit`` + ``parse_qs``:
    the reply and the state each request leaves behind."""

    def __init__(self) -> None:
        self.alive = dict.fromkeys(REGIONS, True)
        self.kill = False
        self.override: str | None = None

    def answer(self, method: str, target: str) -> tuple[int, dict]:
        url = urlsplit(target)
        query = parse_qs(url.query)
        name = ADMIN[url.path]
        value = query.get(name, [None])[0]
        if method != "POST":
            return 405, {"error": "POST required"}
        if name == "region":
            if value not in self.alive:
                return 400, {"error": f"unknown region {value!r}"}
            self.alive[value] = url.path == "/chaos/heal"
            return 200, {"ok": True, "region": value}
        if name == "on":
            value = "1" if value is None else value
            if value not in ("0", "1"):
                return 400, {"error": f"bad on={value!r} (want 0|1)"}
            self.kill = value == "1"
            return 200, {"ok": True}
        if value not in (None, "none", *LEVEL_CODES):
            known = ", ".join(sorted(LEVEL_CODES))
            error = f"unknown level {value!r} (expected {known})"
            return 400, {"error": error}
        self.override = None if value in (None, "none") else value
        return 200, {"ok": True}


@pytest.mark.parametrize("seed", range(3))
def test_admin_query_strings_match_a_plain_parse(seed):
    rng = random.Random(seed)
    service = make_service(slo=SloConfig(p95_target_s=10.0))
    ingress = HttpIngress(service)
    oracle = AdminOracle()
    statuses, states = set(), set()

    async def main() -> None:
        for _ in range(400):
            method, target = gen_admin_request(rng)
            keep_alive = rng.random() < 0.7
            request = f"{method} {target} HTTP/1.1\r\n" + (
                "" if keep_alive else "Connection: close\r\n"
            )
            transport = Transport()
            connection = _Connection(ingress)
            connection.connection_made(transport)
            feed(connection, request.encode("latin-1") + b"\r\n")
            connection.connection_lost(None)
            status, payload = oracle.answer(method, target)
            statuses.add(status)
            assert transport.written == [
                json_reference(status, payload, keep_alive)
            ], target[:200]
            assert transport.closing is not keep_alive
            ladders = service.slo.ladders.values()
            assert {ladder.kill_switch for ladder in ladders} == {oracle.kill}
            assert {ladder.manual_level for ladder in ladders} == {
                oracle.override
            }
            alive = {r: service.overlay.is_alive(r) for r in REGIONS}
            assert alive == oracle.alive
            states.add((oracle.kill, oracle.override, *alive.values()))

    asyncio.run(main())
    assert statuses == {200, 400, 405}
    assert len(states) >= 8  # the requests moved every piece of state
