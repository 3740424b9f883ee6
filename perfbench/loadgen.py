"""A closed-loop HTTP/1.1 load generator over keep-alive connections.

Each connection sends its next request only after the previous
response has been read in full, so a slower server receives less load.
Requests are taken in order from one shared seeded stream; the set of
requests sent is always a prefix of that stream.  Response bodies are
kept as bytes and parsed after the timed window, so JSON decoding does
not compete with the server for the CPU while it is being measured.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

_now = time.monotonic_ns


@dataclass
class Exchange:
    """One request sent and the response it got."""

    request: dict
    sent_ns: int
    done_ns: int = 0
    status: int = 0
    body: bytes = b""

    @property
    def latency_ms(self) -> float:
        return (self.done_ns - self.sent_ns) / 1e6


class Connection:
    """One keep-alive connection speaking just enough HTTP/1.1."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> "Connection":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except OSError:
                pass
            self._writer = None

    async def request(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        self._writer.write(head + body)
        raw = await self._reader.readuntil(b"\r\n\r\n")
        lines = raw.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _sep, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        payload = await self._reader.readexactly(length) if length else b""
        return status, payload


def encode(request: dict) -> bytes:
    """The request's JSON body (fields in insertion order)."""
    return json.dumps(request, separators=(",", ":")).encode()


async def closed_loop(
    host: str,
    port: int,
    stream: Iterator[dict],
    connections: int,
    seconds: float,
) -> Tuple[List[Exchange], int, int]:
    """Drive ``/select`` from ``stream`` for ``seconds``.

    Returns every exchange in send order, the window's start, and the
    time the last response arrived (both ``CLOCK_MONOTONIC`` ns).  A
    request is only sent before the deadline; the window ends when the
    last one sent has been answered.
    """
    conns = [await Connection(host, port).open() for _ in range(connections)]
    exchanges: List[Exchange] = []
    start = _now()
    deadline = start + int(seconds * 1e9)

    async def drive(conn: Connection) -> None:
        while _now() < deadline:
            request = next(stream)
            body = encode(request)
            exchange = Exchange(request, _now())
            exchanges.append(exchange)
            exchange.status, exchange.body = await conn.request(
                "POST", "/select", body
            )
            exchange.done_ns = _now()

    try:
        await asyncio.gather(*(drive(conn) for conn in conns))
    finally:
        for conn in conns:
            await conn.close()
    end = max((e.done_ns for e in exchanges), default=start)
    return exchanges, start, end


async def one_request(
    host: str, port: int, method: str, path: str, body: bytes = b""
) -> Tuple[int, bytes]:
    """A single request on its own connection."""
    conn = await Connection(host, port).open()
    try:
        return await conn.request(method, path, body)
    finally:
        await conn.close()
