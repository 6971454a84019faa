"""The load generator: a minimal NDJSON client and open/closed loops.

Deliberately independent of ``repro.serve.client``: a change to the shipped
client cannot change the load.  Every frame is encoded before timing starts;
an :class:`Item` is one logical operation of one or more calls sent in
order on one connection (a renewal is ``add_credential`` then ``revoke``),
timed from its scheduled start to its last reply.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Callable

now_ns = time.perf_counter_ns


def frame(request_id: str, method: str, params: dict) -> bytes:
    return json.dumps({"id": request_id, "method": method,
                       "params": params}).encode() + b"\n"


@dataclass
class Item:
    """One operation: ``calls`` are ``(id, frame, expected)`` triples, where
    ``expected`` maps result fields to the values a correct reply holds."""

    kind: str
    calls: list[tuple[str, bytes, dict]]


@dataclass
class Stats:
    #: kind -> [(due_ns, latency_ns)] of completed items
    latencies: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    completions: list[int] = field(default_factory=list)
    rtt: dict[str, int] = field(default_factory=dict)  # single-call items
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


class Connection:
    """One NDJSON connection; replies are routed to callbacks by id."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.pending: dict[str, Callable[[dict, int], None]] = {}
        self._reader_task = asyncio.create_task(self._read(reader))

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 22)
        return cls(reader, writer)

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while line := await reader.readline():
            message = json.loads(line)
            callback = self.pending.pop(message.get("id"), None)
            if callback is not None:
                callback(message, now_ns())

    def send(self, request_id: str, data: bytes,
             callback: Callable[[dict, int], None]) -> None:
        self.pending[request_id] = callback
        self.writer.write(data)

    async def call(self, method: str, params: dict, request_id: str,
                   timeout: float = 60.0) -> dict:
        future = asyncio.get_running_loop().create_future()
        self.send(request_id, frame(request_id, method, params),
                  lambda message, _t: future.set_result(message))
        return await asyncio.wait_for(future, timeout)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, ConnectionError):
            pass


def check_reply(message: dict, expected: dict) -> str | None:
    """None when ``message`` is a correct reply, else why it is not."""
    if not message.get("ok"):
        return f"{message.get('id')}: error {message.get('error')}"
    result = message["result"]
    for name, value in expected.items():
        if result.get(name) != value:
            return (f"{message['id']}: {name}={result.get(name)!r}, "
                    f"expected {value!r}")
    return None


class Runner:
    """Drives items over connections and records per-kind latencies."""

    def __init__(self, stats: Stats, record_rtt: bool = False) -> None:
        self.stats = stats
        self.record_rtt = record_rtt
        self.outstanding = 0
        self._idle = asyncio.Event()
        self._idle.set()

    def start(self, item: Item, conn: Connection, due: int,
              done: Callable[[int], None] | None = None) -> None:
        """Send ``item``'s first call; each reply sends the next call, the
        last records the latency from ``due``."""
        self.stats.attempted += 1
        self.outstanding += 1
        self._idle.clear()

        def step(index: int) -> None:
            request_id, data, expected = item.calls[index]
            sent = now_ns()

            def on_reply(message: dict, at: int) -> None:
                problem = check_reply(message, expected)
                if problem is not None:
                    self.stats.fail(problem)
                elif index + 1 < len(item.calls):
                    step(index + 1)
                    return
                else:
                    self.stats.latencies.setdefault(item.kind, []).append(
                        (due, at - due))
                    self.stats.completions.append(at)
                    if self.record_rtt and len(item.calls) == 1:
                        self.stats.rtt[request_id] = at - sent
                self.outstanding -= 1
                if self.outstanding == 0:
                    self._idle.set()
                if done is not None:
                    done(at)

            conn.send(request_id, data, on_reply)

        step(0)

    async def drain(self, timeout: float) -> None:
        """Wait for every started item; a lost reply is a failure."""
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
        except asyncio.TimeoutError:
            self.stats.fail(f"{self.outstanding} replies lost")

    async def open_loop(self, schedule: list[tuple[int, int, Item]],
                        conns: list[Connection]) -> tuple[int, int]:
        """Start each ``(offset_ns, conn, item)`` at its due time whatever
        the replies do; returns (start_ns, max generator lag in ns)."""
        t0 = now_ns()
        max_lag = 0
        for offset, conn, item in schedule:
            due = t0 + offset
            wait = due - now_ns()
            if wait > 0:
                await asyncio.sleep(wait / 1e9)
            max_lag = max(max_lag, now_ns() - due)
            self.start(item, conns[conn], due)
        return t0, max_lag

    async def closed_loop(self, items: list[Item], conns: list[Connection],
                          depth: int, seconds: float) -> tuple[int, int]:
        """Keep ``depth`` items in flight per connection for ``seconds``;
        returns the (start, end) of the window in ns."""
        t0 = now_ns()
        deadline = t0 + int(seconds * 1e9)
        feed = iter(items)
        finished = asyncio.Event()

        def launch(conn: Connection) -> None:
            item = next(feed, None)
            if item is None or now_ns() >= deadline:
                if self.outstanding == 0:
                    finished.set()
                return
            self.start(item, conn, now_ns(), lambda _at: launch(conn))

        for conn in conns:
            for _ in range(depth):
                launch(conn)
        try:
            await asyncio.wait_for(finished.wait(), seconds + 60.0)
        except asyncio.TimeoutError:
            self.stats.fail("closed loop did not finish")
        return t0, deadline
