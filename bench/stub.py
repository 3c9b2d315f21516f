"""Local chat-completions stub for the HTTP workload.

Run as its own process: ``python3 bench/stub.py``. It binds an ephemeral port
on 127.0.0.1 and prints that port on the first line of its standard output.
Every completion is delayed by ``workloads.STUB_DELAY_MS``.

- HTTP/1.1 with keep-alive, on one asyncio event loop: no thread per
  connection, and the fixed service delay is an ``asyncio.sleep`` that uses
  no CPU.
- ``TCP_NODELAY`` is set on every accepted socket. With Nagle's algorithm
  left on, a keep-alive client stalls for a delayed ACK on every request,
  which would make a connection-reusing client look slower than one that
  opens a connection per request.
- ``POST /v1/chat/completions`` answers with the keyword mock's rule, so the
  benchmark can check every answer.
- ``GET /stats`` returns the counters since the last ``GET /stats?reset=1``
  as JSON. A connection counts once it has carried a completion request, so
  the stats calls themselves are not counted.
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
import socket
import statistics
import time

from workloads import STUB_DELAY_MS, keyword_count

_A_QUERY = re.compile(
    r"Statement: (?P<text>.*?)\. Does this statement express (?P<emotion>\w+)\? "
    r"Answer 1 for yes and 0 for no\.$",
    re.DOTALL,
)
_B_QUERY = re.compile(r"Tweet: (?P<text>.*?) Emotion (?P<emotion>\w+) Intensity class:$", re.DOTALL)


def answer(prompt: str) -> str:
    """Presence prompts get 1 if the emotion word occurs; intensity prompts the count, capped at 3."""
    match = _B_QUERY.search(prompt)
    if match:
        return str(min(3, keyword_count(match["text"], match["emotion"])))
    match = _A_QUERY.search(prompt)
    if match:
        return "1" if keyword_count(match["text"], match["emotion"]) else "0"
    raise ValueError("prompt matches no known template")


class Stub:
    def __init__(self, delay_s: float):
        self.delay_s = delay_s
        self.open_writers: set[asyncio.StreamWriter] = set()
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.connections = 0
        self.service_ms: list[float] = []

    def stats(self) -> dict:
        return {
            "requests": self.requests,
            "connections": self.connections,
            "service_ms_p50": statistics.median(self.service_ms) if self.service_ms else 0.0,
        }

    async def handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        writer.get_extra_info("socket").setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.open_writers.add(writer)
        counted = False
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                started = time.perf_counter()
                request_line, *header_lines = head.decode("latin-1").split("\r\n")
                method, target, _ = request_line.split(" ", 2)
                headers = {
                    name.strip().lower(): value.strip()
                    for name, _, value in (h.partition(":") for h in header_lines if h)
                }
                body = await reader.readexactly(int(headers.get("content-length", "0")))
                if method == "GET" and target.startswith("/stats"):
                    status, payload = 200, self.stats()
                    if target.endswith("reset=1"):
                        self.reset()
                elif method == "POST" and target.endswith("/chat/completions"):
                    if not counted:
                        counted = True
                        self.connections += 1
                    self.requests += 1
                    try:
                        prompt = json.loads(body)["messages"][0]["content"]
                        content = answer(prompt)
                        status = 200
                        payload = {"choices": [{"index": 0, "message": {"role": "assistant", "content": content}}]}
                    except (ValueError, KeyError, IndexError, TypeError) as exc:
                        status, payload = 400, {"error": str(exc)}
                    await asyncio.sleep(self.delay_s)
                else:
                    status, payload = 404, {"error": f"no route for {method} {target}"}
                data = json.dumps(payload).encode("utf-8")
                close = headers.get("connection", "").lower() == "close"
                writer.write(
                    f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
                    f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
                    f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n".encode("latin-1")
                    + data
                )
                await writer.drain()
                if status == 200 and payload.get("choices"):
                    self.service_ms.append((time.perf_counter() - started) * 1000.0)
                if close:
                    return
        finally:
            self.open_writers.discard(writer)
            writer.close()


async def serve() -> None:
    stub = Stub(STUB_DELAY_MS / 1000.0)
    server = await asyncio.start_server(stub.handle, "127.0.0.1", 0, backlog=128)
    print(server.sockets[0].getsockname()[1], flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)
    async with server:
        await stop.wait()
        # Closing idle keep-alive connections lets their handlers see EOF and
        # return before the loop shuts down.
        for writer in list(stub.open_writers):
            writer.close()
        await asyncio.sleep(0.1)


if __name__ == "__main__":
    asyncio.run(serve())
