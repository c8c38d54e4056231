"""What the serve workloads are measured against: a minimal asyncio server.

It answers every request with a fixed 200 from the same ``asyncio`` stream
machinery the repro ingress is built on, and nothing else.  Run beside the
``repro serve`` child on the same core and loaded through the same instants,
it feels the same host weather (core speed, wake-up latency, stalls), so the
ratio of the two servers' numbers is a property of the program and not of the
neighbours.  It is the benchmark's instrument, not part of the program.
"""

import asyncio

RESPONSE = (
    b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 2\r\n"
    b"Connection: keep-alive\r\n\r\nok"
)


async def handle(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    try:
        while await reader.readline():
            while (await reader.readline()) not in (b"\r\n", b""):
                pass
            writer.write(RESPONSE)
            await writer.drain()
    except ConnectionError:
        pass
    finally:
        writer.close()


async def main() -> None:
    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    print(f"serving reference on http://127.0.0.1:{port}", flush=True)
    await server.serve_forever()


if __name__ == "__main__":
    asyncio.run(main())
