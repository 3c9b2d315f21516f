"""Chat-completions client with retries, plus completion-to-label parsing.

The client speaks the common chat-completions HTTP shape (single user
message, first choice's content). A deterministic mock can stand in for
the endpoint so end-to-end runs need no network.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import random
import threading
import time
import urllib.parse
from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from .corpus import ASCII_DIGITS, check_labels, label_range
from .errors import ConfigError, ProtocolError, TransportError

# The HTTP stack (``http.client``, which loads ``ssl`` and ``email``, plus
# ``urllib.request`` and the worker pool) is imported by the functions that
# use it, on a run's first endpoint request: mock and export runs never load it.
if TYPE_CHECKING:
    import http.client
    from concurrent.futures import Future

log = logging.getLogger(__name__)

_BACKOFF_BASE_SECONDS = 1.0
# Endpoint requests in flight per worker: enough that a worker finding its
# next request never waits on the caller, few enough that the caller never
# holds more than a handful of rendered prompts per worker.
_WINDOW_PER_WORKER = 4

# One keep-alive ``_Connection`` per worker thread: an ``HTTPConnection`` is
# not safe to share between threads.
_connections = threading.local()


@dataclass(frozen=True)
class EndpointConfig:
    """Connection settings. Only the API key's env var *name* is stored;
    the value is read from the environment per request and never lands in
    any snapshot, log, or report."""

    base_url: str = "http://localhost:8000/v1"
    model_name: str = "mock"
    temperature: float = 0.0
    max_tokens: int = 8
    timeout: float = 30.0
    max_retries: int = 3
    concurrency_limit: int = 4
    api_key_env: str = "EMOHARNESS_API_KEY"

    def __post_init__(self):
        # "/chat/completions" is appended to the URL, so it must end in its path.
        if "?" in self.base_url or "#" in self.base_url:
            raise ConfigError("base_url must not hold a query or fragment ('?' or '#')")
        # Before any message below shows the URL, which must not show a password.
        if "@" in self.base_url.split("://", 1)[-1].partition("/")[0]:
            raise ConfigError("base_url must not hold credentials (user:password@); the key comes from api_key_env")
        if not self.base_url.lower().startswith(("http://", "https://")):
            raise ConfigError(f"base_url must start with http:// or https://, got {self.base_url!r}")
        # Checked here, once: a request to a malformed address fails the same
        # way on every retry, after the whole backoff.
        if any(c <= " " or c == "\x7f" for c in self.base_url):
            raise ConfigError(f"base_url holds a space or control character: {self.base_url!r}")
        try:
            parts = urllib.parse.urlsplit(self.base_url)
            port = parts.port
        except ValueError as exc:  # a non-numeric or out-of-range port, an unclosed "["
            raise ConfigError(f"base_url has a malformed host or port ({exc}): {self.base_url!r}") from None
        if not parts.hostname:
            raise ConfigError(f"base_url has no host: {self.base_url!r}")
        if port == 0:
            raise ConfigError(f"base_url port must be in 1-65535, got 0: {self.base_url!r}")
        if not 0 <= self.temperature < math.inf:
            raise ConfigError(f"temperature must be >= 0, got {self.temperature}")
        if self.max_tokens < 1:
            raise ConfigError(f"max_tokens must be >= 1, got {self.max_tokens}")
        # The socket layer cannot hold a longer timeout: settimeout raises OverflowError.
        if not 0 < self.timeout <= threading.TIMEOUT_MAX:
            raise ConfigError(f"timeout must be positive and at most {threading.TIMEOUT_MAX}, got {self.timeout}")
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.concurrency_limit < 1:
            raise ConfigError(f"concurrency_limit must be >= 1, got {self.concurrency_limit}")


@dataclass(slots=True)
class CompletionRequest:
    snippet_id: str
    emotion: str
    prompt: str


@dataclass(slots=True)
class RawCompletion:
    snippet_id: str
    emotion: str
    raw_text: str
    latency: float
    attempt_count: int


@dataclass(slots=True)
class PredictionRecord:
    snippet_id: str
    emotion: str
    track: str
    raw_text: str
    parsed: int | None

    def as_dict(self) -> dict:
        # The inverse of ``from_dict``, and the oracle that
        # ``exports.write_predictions`` is tested against line by line.
        return {
            "snippet_id": self.snippet_id,
            "emotion": self.emotion,
            "track": self.track,
            "raw_text": self.raw_text,
            "parsed": self.parsed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PredictionRecord":
        """Rebuild a record from ``as_dict`` output, ignoring extra keys; a bad
        or missing field raises ValueError, a bad ``parsed`` ValidationError."""
        for f in fields(cls):
            if f.name not in payload:
                raise ValueError(f"missing key {f.name!r}")
        label_range(payload["track"])
        for name in ("snippet_id", "emotion", "raw_text"):
            if not isinstance(payload[name], str):
                raise ValueError(f"{name} must be a string, got {payload[name]!r}")
        if payload["parsed"] is not None:
            check_labels(payload["snippet_id"], {payload["emotion"]: payload["parsed"]}, payload["track"])
        return cls(*(payload[f.name] for f in fields(cls)))


def parse_label(raw_text: str, track: str) -> int | None:
    """Extract a label from model output; None marks a parse failure.

    The first ASCII digit in the text decides: in range for the track it
    is the label, out of range it is a failure. Non-ASCII digits do not
    count. Failures are data, not errors; scoring resolves them to 0.
    """
    lo, hi = label_range(track)
    for ch in raw_text:
        if ch in ASCII_DIGITS:
            value = int(ch)
            return value if lo <= value <= hi else None
    return None


@dataclass(slots=True)
class _Connection:
    """A thread's connection to ``origin``, ``(scheme, host, timeout)``.
    ``target_prefix`` goes before each request's path: ``scheme://host`` for
    plain HTTP through a proxy, which takes the absolute URL as the target,
    and empty otherwise. The connection closes when its thread ends and
    drops it."""

    origin: tuple[str, str, float]
    conn: http.client.HTTPConnection
    target_prefix: str
    proxy_headers: dict[str, str]

    def __del__(self):
        self.conn.close()


def _open_connection(origin: tuple[str, str, float]) -> _Connection:
    """Connect through the environment's proxy for the scheme, unless
    ``no_proxy`` covers the host. HTTPS goes through the proxy as a
    ``CONNECT`` tunnel; the proxy itself is spoken to in plain HTTP."""
    import base64
    import http.client
    import urllib.request

    scheme, host, timeout = origin
    https = scheme == "https"
    cls = http.client.HTTPSConnection if https else http.client.HTTPConnection
    proxy = urllib.request.getproxies().get(scheme)
    if not proxy or urllib.request.proxy_bypass(host):
        return _Connection(origin, cls(host, timeout=timeout), "", {})
    try:
        parts = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
        parts.port  # raises for a non-numeric or out-of-range port
        conn = cls(parts.netloc.rpartition("@")[2], timeout=timeout)
    except (ValueError, http.client.InvalidURL):  # also an unclosed "[" or a control character
        # Every retry would fail the same way. The value is not shown: it may hold a password.
        raise ConfigError(f"{scheme}_proxy is not a valid proxy URL: malformed host or port") from None
    proxy_headers = {}
    if parts.username is not None:
        user = urllib.parse.unquote(parts.username)
        password = urllib.parse.unquote(parts.password or "")
        token = base64.b64encode(f"{user}:{password}".encode("utf-8")).decode("ascii")
        proxy_headers["Proxy-Authorization"] = f"Basic {token}"
    if not https:
        return _Connection(origin, conn, f"{scheme}://{host}", proxy_headers)
    conn.set_tunnel(host, headers=proxy_headers)
    return _Connection(origin, conn, "", {})


def _http_transport(url: str, payload: dict, headers: dict, timeout: float) -> tuple[int, str]:
    import http.client

    # ``EndpointConfig`` has checked the URL: no userinfo, query or fragment,
    # and a valid host and port.
    parts = urllib.parse.urlsplit(url)
    origin = (parts.scheme.lower(), parts.netloc, timeout)
    held = getattr(_connections, "held", None)
    if held is None or held.origin != origin:
        held = _connections.held = _open_connection(origin)
    conn = held.conn
    target = held.target_prefix + parts.path
    body = json.dumps(payload).encode("utf-8")
    if held.proxy_headers:
        headers = {**headers, **held.proxy_headers}
    reused = conn.sock is not None
    while True:
        response = None
        try:
            conn.request("POST", target, body, headers)
            response = conn.getresponse()
            return response.status, response.read().decode("utf-8", errors="replace")
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            # A server may close a keep-alive connection while it sits idle.
            # A request on it then fails before any response arrives, so the
            # endpoint never saw it: send it once more on a fresh connection.
            if reused and response is None and isinstance(exc, ConnectionError):
                reused = False
                continue
            raise TransportError(f"request to {url} failed: {exc}") from exc


@dataclass
class CompletionClient:
    """Issues completions against the endpoint or an in-process mock.

    ``transport``, ``sleep``, and ``rng`` exist for tests; production use
    leaves the defaults in place.
    """

    config: EndpointConfig
    mock: object | None = None
    transport: object = _http_transport
    sleep: object = time.sleep
    rng: random.Random = field(default_factory=random.Random)

    def complete(self, request: CompletionRequest, stopped: Callable[[], bool] = lambda: False) -> RawCompletion:
        """Once ``stopped()`` is true, an endpoint request makes no more attempts and raises ``TransportError``."""
        start = time.monotonic()
        if self.mock is not None:
            raw_text = self.mock.respond(request.prompt)
            attempts = 1
        else:
            raw_text, attempts = self._complete_http(request.prompt, stopped)
        return RawCompletion(request.snippet_id, request.emotion, raw_text, time.monotonic() - start, attempts)

    def complete_all(self, requests_: Iterable[CompletionRequest]) -> list[RawCompletion]:
        """Complete every request; results come back in input order.

        ``requests_`` may be any iterable, such as a generator that renders
        each prompt on demand; it is drawn one request at a time and never
        held whole. An in-process mock runs sequentially on the calling
        thread: it is pure Python, so under the GIL threads would add
        dispatch cost and no parallelism. Endpoint requests run on up to
        ``config.concurrency_limit`` worker threads, with at most
        ``4 * concurrency_limit`` requests drawn and not yet finished; the
        default transport keeps one keep-alive connection per worker. Once a
        request fails for good, no later request in input order makes an
        attempt, neither a first send nor a retry, and earlier ones finish;
        once this call raises, none makes one. The first failure in input
        order is raised: a ``TransportError``, or its subclass
        ``ProtocolError``, again as the same class with the same ``status``,
        its message prefixed ``snippet '<id>', emotion <emotion>: ``.

        At temperature 0 each distinct prompt is sent once. A later request
        with the same prompt gets the first answer's ``raw_text`` with its
        own ``snippet_id`` and ``emotion``, ``latency`` 0 and
        ``attempt_count`` 0, so attempts count the requests the endpoint
        saw. Above 0, repeated prompts are independent samples and all are
        sent.
        """
        if self.mock is not None:
            return [self.complete(r) for r in requests_]
        from concurrent.futures import ThreadPoolExecutor

        window = _WINDOW_PER_WORKER * self.config.concurrency_limit
        dedup = self.config.temperature == 0
        # sha256 of each prompt sent -> its answer, None until the request is
        # collected: about 100 bytes per distinct prompt besides the answer.
        answers: dict[bytes, str | None] = {}
        # (digest or None, request, future) for a request sent; (digest,
        # request, None) for a repeat. Collection is first in, first out, so a
        # prompt's first request is collected, or has raised, before any repeat.
        pending: deque[tuple[bytes | None, CompletionRequest, Future | None]] = deque()
        results: list[RawCompletion] = []
        # Appended to only, so no lock: just past each request that failed for
        # good, and 0 once this call raises. Requests at or past the least stop.
        stops = [math.inf]

        def send(position: int, request: CompletionRequest) -> RawCompletion:
            try:
                return self.complete(request, stopped=lambda: position >= min(stops))
            except TransportError as exc:
                stops.append(position + 1)
                message = f"snippet {request.snippet_id!r}, emotion {request.emotion}: {exc}"
                raise type(exc)(message, status=exc.status) from exc

        def collect() -> None:
            digest, request, future = pending.popleft()
            if future is None:
                completion = RawCompletion(request.snippet_id, request.emotion, answers[digest], 0.0, 0)
            else:
                completion = future.result()
                if digest is not None:
                    answers[digest] = completion.raw_text
            results.append(completion)

        with ThreadPoolExecutor(self.config.concurrency_limit) as pool:
            try:
                for position, request in enumerate(requests_):
                    digest = None
                    if dedup:
                        digest = hashlib.sha256(request.prompt.encode("utf-8", "surrogatepass")).digest()
                    if digest in answers:
                        pending.append((digest, request, None))
                    else:
                        pending.append((digest, request, pool.submit(send, position, request)))
                        if digest is not None:
                            answers[digest] = None
                    if len(pending) == window:
                        collect()
                while pending:
                    collect()
            except BaseException:
                stops.append(0)
                raise
        return results

    def _complete_http(self, prompt: str, stopped: Callable[[], bool]) -> tuple[str, int]:
        url = self.config.base_url.rstrip("/") + "/chat/completions"
        payload = {
            "model": self.config.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_tokens,
        }
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.config.api_key_env, "")
        if api_key:
            # Checked before any send: a header with a control or non-ASCII
            # character fails inside http.client, whose message shows it.
            if not (api_key.isascii() and api_key.isprintable()):
                name = self.config.api_key_env
                raise ConfigError(f"api_key_env: the key in {name} holds a character outside printable ASCII")
            headers["Authorization"] = f"Bearer {api_key}"

        attempts_allowed = self.config.max_retries + 1
        for attempt in range(1, attempts_allowed + 1):
            if stopped():
                raise TransportError(f"stopped before attempt {attempt} of {attempts_allowed}")
            try:
                status, body = self.transport(url, payload, headers, self.config.timeout)
                if status != 200:
                    raise TransportError(f"endpoint returned HTTP {status}", status=status)
                return self._extract_content(body), attempt
            except TransportError as exc:  # a malformed 200 body (status None) is retried like a 5xx
                if stopped() or exc.status not in (None, 429) and not 500 <= exc.status <= 599:
                    raise
                if attempt == attempts_allowed:
                    message = f"retries exhausted after {attempts_allowed} attempts: {exc}"
                    raise type(exc)(message, status=exc.status) from exc
                delay = _BACKOFF_BASE_SECONDS * (2 ** (attempt - 1))
                delay += self.rng.uniform(0.0, 0.5 * delay)
                log.warning(
                    "completion attempt %d/%d failed (%s); retrying in %.1fs",
                    attempt,
                    attempts_allowed,
                    exc,
                    delay,
                )
                self.sleep(delay)

    @staticmethod
    def _extract_content(body: str) -> str:
        try:
            parsed = json.loads(body)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"response body is not JSON: {body[:200]!r}") from exc
        try:
            content = parsed["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"response missing choices[0].message.content: {body[:200]!r}") from exc
        if not isinstance(content, str):
            raise ProtocolError(f"message content is not text: {repr(content)[:200]}")
        return content
