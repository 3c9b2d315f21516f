"""Shared test plumbing: suite timer, acceptance result reporting, template
swaps and a local HTTP endpoint."""

import http.server
import json
import os
import socket
import threading
import time

import pytest

# Captured at collection import time so the budget check at the end of the
# suite covers collection plus every test before it.
SESSION_T0 = time.monotonic()

# One line per acceptance check, echoed after the pytest summary so the
# pass/fail lines are visible without -s.
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[ACCEPTANCE] {name}: {status}{suffix}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def replace_template():
    """Swap a template's split parts for the test, with the frame cache
    cleared on entry and exit so no swapped frame outlives it."""
    from emoharness import prompting  # here, so the suite timer starts before any package import

    with pytest.MonkeyPatch.context() as patch:

        def replace(template_id, parts):
            patch.setitem(prompting._TEMPLATE_PARTS, template_id, parts)
            prompting.frame.cache_clear()

        yield replace
    prompting.frame.cache_clear()


def ok_body(text):
    return json.dumps({"choices": [{"message": {"content": text}}]})


class LocalServer(http.server.ThreadingHTTPServer):
    """An HTTP/1.1 server on 127.0.0.1 that answers each POST with
    ``answer(index, request_number)``: (status, body bytes, close after).
    It records each request's target and headers and counts connections."""

    daemon_threads = True

    def __init__(self, answer):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.answer = answer
        self.connections = 0
        self.requests = []
        self.lock = threading.Lock()

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_address[1]}/v1"

    def handle_error(self, request, client_address):
        pass  # a client that timed out and left


class _Handler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 5

    def setup(self):
        super().setup()
        # Headers and body leave in two writes; with Nagle's algorithm on,
        # the body would wait for the client's delayed ACK.
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with self.server.lock:
            self.server.requests.append((self.path, dict(self.headers)))
            number = len(self.server.requests)
        index = body["messages"][0]["content"].rsplit("#", 1)[-1]
        status, data, close = self.server.answer(index, number)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        # Closing without a ``Connection: close`` header is what a server
        # dropping an idle keep-alive connection looks like to the client.
        self.close_connection = close

    def do_CONNECT(self):
        with self.server.lock:
            self.server.requests.append((self.path, dict(self.headers)))
        self.send_error(502)  # a proxy that refuses to tunnel

    def log_message(self, *args):
        pass


def echo(index, number):
    return 200, ok_body(index).encode("utf-8"), False


def keyword(index, number):
    """The keyword mock's answer to the prompt, where it holds no "#" and so
    ``index`` is the whole prompt."""
    from emoharness.mocks import KeywordMock

    return 200, ok_body(KeywordMock().respond(index)).encode("utf-8"), False


@pytest.fixture
def serve(monkeypatch):
    """Starts ``LocalServer``s; no proxy setting from the environment applies."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    started = []

    def start(answer=echo):
        server = LocalServer(answer)
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        started.append((server, thread))
        return server

    yield start
    for server, thread in started:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()
