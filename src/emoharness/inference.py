"""Chat-completions client with retries, plus completion-to-label parsing.

The client speaks the common chat-completions HTTP shape (single user
message, first choice's content). A deterministic mock can stand in for
the endpoint so end-to-end runs need no network.
"""

from __future__ import annotations

import base64
import hashlib
import http.client
import json
import logging
import math
import os
import random
import threading
import time
import urllib.parse
import urllib.request
from collections import deque
from collections.abc import Iterable
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields

from .corpus import ASCII_DIGITS, check_labels, label_range
from .errors import ConfigError, ProtocolError, TransportError

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
        if not self.base_url.lower().startswith(("http://", "https://")):
            raise ConfigError(f"base_url must start with http:// or https://, got {self.base_url!r}")
        # Checked here, once: a request to a malformed address fails the same
        # way on every retry, after the whole backoff.
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
        if not 0 < self.timeout < math.inf:
            raise ConfigError(f"timeout must be positive, got {self.timeout}")
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.concurrency_limit < 1:
            raise ConfigError(f"concurrency_limit must be >= 1, got {self.concurrency_limit}")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, slots=True)
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

    @property
    def label_or_zero(self) -> int:
        """Effective label: parse failures count as 0 (emotion absent)."""
        return 0 if self.parsed is None else self.parsed

    def as_dict(self) -> dict:
        # Written out rather than ``asdict``: it runs once per prediction,
        # and this takes about 0.3 us against about 11 us for ``asdict``.
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
    scheme, host, timeout = origin
    https = scheme == "https"
    proxy = urllib.request.getproxies().get(scheme)
    if not proxy or urllib.request.proxy_bypass(host):
        cls = http.client.HTTPSConnection if https else http.client.HTTPConnection
        return _Connection(origin, cls(host, timeout=timeout), "", {})
    parts = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
    proxy_headers = {}
    if parts.username is not None:
        user = urllib.parse.unquote(parts.username)
        password = urllib.parse.unquote(parts.password or "")
        token = base64.b64encode(f"{user}:{password}".encode("utf-8")).decode("ascii")
        proxy_headers["Proxy-Authorization"] = f"Basic {token}"
    proxy_host = parts.netloc.rpartition("@")[2]
    if not https:
        # From the origin, not the URL: a target carries no userinfo (RFC 9110, 4.2.4).
        conn = http.client.HTTPConnection(proxy_host, timeout=timeout)
        return _Connection(origin, conn, f"{scheme}://{host}", proxy_headers)
    conn = http.client.HTTPSConnection(proxy_host, timeout=timeout)
    conn.set_tunnel(host, headers=proxy_headers)
    return _Connection(origin, conn, "", {})


def _http_transport(url: str, payload: dict, headers: dict, timeout: float) -> tuple[int, str]:
    try:
        parts = urllib.parse.urlsplit(url)
        origin = (parts.scheme.lower(), parts.netloc.rpartition("@")[2], timeout)
        held = getattr(_connections, "held", None)
        if held is None or held.origin != origin:
            held = _connections.held = _open_connection(origin)
    except (ValueError, http.client.HTTPException) as exc:  # a malformed host, port or proxy URL
        raise TransportError(f"request to {url} failed: {exc}") from exc
    conn = held.conn
    target = held.target_prefix + parts.path + (f"?{parts.query}" if parts.query else "")
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


def _is_retryable_status(status: int) -> bool:
    return status == 429 or 500 <= status <= 599


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

    def complete(self, request: CompletionRequest) -> RawCompletion:
        start = time.monotonic()
        if self.mock is not None:
            raw_text = self.mock.respond(request.prompt)
            attempts = 1
        else:
            raw_text, attempts = self._complete_http(request.prompt)
        return RawCompletion(
            snippet_id=request.snippet_id,
            emotion=request.emotion,
            raw_text=raw_text,
            latency=time.monotonic() - start,
            attempt_count=attempts,
        )

    def complete_all(self, requests_: Iterable[CompletionRequest]) -> list[RawCompletion]:
        """Complete every request; results come back in input order.

        ``requests_`` may be any iterable, such as a generator that renders
        each prompt on demand; it is drawn one request at a time and never
        held whole. An in-process mock runs sequentially on the calling
        thread: it is pure Python, so under the GIL threads would add
        dispatch cost and no parallelism. Endpoint requests run on up to
        ``config.concurrency_limit`` worker threads, with at most
        ``4 * concurrency_limit`` requests drawn and not yet finished; the
        default transport keeps one keep-alive connection per worker. If a
        request fails, the first failure in input order is raised and the
        requests still queued are cancelled.

        At temperature 0 each distinct prompt is sent once. A later request
        with the same prompt gets the first answer's ``raw_text`` with its
        own ``snippet_id`` and ``emotion``, ``latency`` 0 and
        ``attempt_count`` 0, so attempts count the requests the endpoint
        saw. Above 0, repeated prompts are independent samples and all are
        sent.
        """
        if self.mock is not None:
            return [self.complete(r) for r in requests_]
        window = _WINDOW_PER_WORKER * self.config.concurrency_limit
        dedup = self.config.temperature == 0
        # sha256 of each prompt sent -> its answer, None until the request is
        # collected: about 100 bytes per distinct prompt besides the answer.
        answers: dict[bytes, str | None] = {}
        # (digest or None, None, future) for a request sent; (digest, request,
        # None) for a repeat. Collection is first in, first out, so a prompt's
        # first request is collected, or has raised, before any repeat of it.
        pending: deque[tuple[bytes | None, CompletionRequest | None, Future | None]] = deque()
        results: list[RawCompletion] = []

        def collect() -> None:
            digest, repeat, future = pending.popleft()
            if repeat is None:
                completion = future.result()
                if digest is not None:
                    answers[digest] = completion.raw_text
            else:
                completion = RawCompletion(repeat.snippet_id, repeat.emotion, answers[digest], 0.0, 0)
            results.append(completion)

        with ThreadPoolExecutor(max_workers=self.config.concurrency_limit) as pool:
            try:
                for request in requests_:
                    digest = None
                    if dedup:
                        digest = hashlib.sha256(request.prompt.encode("utf-8", "surrogatepass")).digest()
                    if digest in answers:
                        pending.append((digest, request, None))
                    else:
                        pending.append((digest, None, pool.submit(self.complete, request)))
                        if digest is not None:
                            answers[digest] = None
                    if len(pending) == window:
                        collect()
                while pending:
                    collect()
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
        return results

    def _complete_http(self, prompt: str) -> tuple[str, int]:
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
            headers["Authorization"] = f"Bearer {api_key}"

        attempts_allowed = self.config.max_retries + 1
        last_failure: TransportError | None = None
        for attempt in range(1, attempts_allowed + 1):
            try:
                status, body = self.transport(url, payload, headers, self.config.timeout)
            except TransportError as exc:
                last_failure = exc
            else:
                if status == 200:
                    return self._extract_content(body), attempt
                last_failure = TransportError(f"endpoint returned HTTP {status}", status=status)
                if not _is_retryable_status(status):
                    raise last_failure
            if attempt < attempts_allowed:
                delay = _BACKOFF_BASE_SECONDS * (2 ** (attempt - 1))
                delay += self.rng.uniform(0.0, 0.5 * delay)
                log.warning(
                    "completion attempt %d/%d failed (%s); retrying in %.1fs",
                    attempt,
                    attempts_allowed,
                    last_failure,
                    delay,
                )
                self.sleep(delay)
        raise TransportError(
            f"retries exhausted after {attempts_allowed} attempts: {last_failure}",
            status=last_failure.status if last_failure else None,
        )

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
            raise ProtocolError(f"message content is not text: {content!r}")
        return content
