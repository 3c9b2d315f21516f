"""Completion client retry behaviour, response parsing, label extraction."""

import json
import logging
import math
import random
import sys
import threading
import time
from dataclasses import fields

import pytest

from emoharness import (
    CompletionClient,
    CompletionRequest,
    ConfigError,
    EndpointConfig,
    PredictionRecord,
    ProtocolError,
    RawCompletion,
    TransportError,
    parse_label,
)
from emoharness.errors import TransportError as TE


def ok_body(text):
    return json.dumps({"choices": [{"message": {"content": text}}]})


class ScriptedTransport:
    """Returns the scripted (status, body) outcomes one per call.

    An outcome may also be an exception instance, which is raised instead.
    """

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def __call__(self, url, payload, headers, timeout):
        self.calls.append({"url": url, "payload": payload, "headers": headers, "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def make_client(outcomes, **config_kwargs):
    transport = ScriptedTransport(outcomes)
    sleeps = []
    client = CompletionClient(
        EndpointConfig(**config_kwargs),
        transport=transport,
        sleep=sleeps.append,
    )
    return client, transport, sleeps


class IndexMock:
    """Answers with the index after the prompt's last ``#``."""

    def respond(self, prompt):
        return prompt.rsplit("#", 1)[-1]


class IndexTransport:
    """Thread-safe transport: answers with the prompt's index after a seeded
    0-2 ms sleep, and records which threads sent requests."""

    def __init__(self, seed, count):
        rng = random.Random(seed)
        self.delays = [rng.uniform(0.0, 0.002) for _ in range(count)]
        self.threads = set()
        self._lock = threading.Lock()

    def __call__(self, url, payload, headers, timeout):
        with self._lock:
            self.threads.add(threading.get_ident())
        index = payload["messages"][0]["content"].rsplit("#", 1)[-1]
        time.sleep(self.delays[int(index)])
        return 200, ok_body(index)


class DrawCounter:
    """Wraps a transport and hands out requests from a generator, counting
    the requests drawn and not yet answered by the transport."""

    def __init__(self, transport):
        self.transport = transport
        self.outstanding = 0
        self.most_outstanding = 0
        self.last_drawn = -1
        self._lock = threading.Lock()

    def requests(self, count):
        for i in range(count):
            with self._lock:
                self.outstanding += 1
                self.most_outstanding = max(self.most_outstanding, self.outstanding)
                self.last_drawn = i
            yield CompletionRequest(f"s{i}", "joy", f"prompt #{i}")

    def __call__(self, url, payload, headers, timeout):
        try:
            return self.transport(url, payload, headers, timeout)
        finally:
            with self._lock:
                self.outstanding -= 1


REQ = CompletionRequest("s1", "joy", "Does this statement express joy? Answer 1 for yes and 0 for no.")


class TestParseLabel:
    @pytest.mark.parametrize("value", [0, 1])
    def test_round_trip_track_a(self, value):
        assert parse_label(str(value), "A") == value

    @pytest.mark.parametrize("value", [0, 1, 2, 3])
    def test_round_trip_track_b(self, value):
        assert parse_label(str(value), "B") == value

    def test_padded_answer(self):
        assert parse_label(" 1\n", "A") == 1

    def test_prefixed_answer(self):
        assert parse_label("Intensity class: 3", "B") == 3

    def test_no_digit_is_failure(self):
        assert parse_label("definitely yes", "A") is None

    def test_first_digit_decides_even_when_out_of_range(self):
        assert parse_label("7 out of 10 angry", "A") is None
        assert parse_label("2", "A") is None

    def test_out_of_range_for_track_b(self):
        assert parse_label("level 4", "B") is None

    def test_non_ascii_digits_are_skipped(self):
        # The Arabic-Indic three is not an ASCII digit; scanning continues.
        assert parse_label("٣ then 2", "B") == 2

    def test_unknown_track(self):
        with pytest.raises(ValueError):
            parse_label("1", "C")


class TestCompletionClient:
    def test_success_first_attempt(self):
        client, transport, sleeps = make_client([(200, ok_body("1"))])
        result = client.complete(REQ)
        assert result.raw_text == "1"
        assert result.attempt_count == 1
        assert result.snippet_id == "s1" and result.emotion == "joy"
        assert sleeps == []

    def test_request_shape(self):
        client, transport, _ = make_client(
            [(200, ok_body("0"))],
            base_url="http://api.example/v1",
            model_name="test-model",
            temperature=0.5,
            max_tokens=4,
        )
        client.complete(REQ)
        call = transport.calls[0]
        assert call["url"] == "http://api.example/v1/chat/completions"
        assert call["payload"] == {
            "model": "test-model",
            "messages": [{"role": "user", "content": REQ.prompt}],
            "temperature": 0.5,
            "max_tokens": 4,
        }

    def test_two_429_then_success_gives_attempt_count_three(self):
        client, transport, sleeps = make_client(
            [(429, "slow down"), (429, "slow down"), (200, ok_body("0"))]
        )
        result = client.complete(REQ)
        assert result.attempt_count == 3
        assert result.raw_text == "0"
        assert len(sleeps) == 2
        assert sleeps[0] >= 1.0 and sleeps[1] >= 2.0  # exponential base with jitter

    def test_500_retries(self):
        client, _, _ = make_client([(503, "down"), (200, ok_body("1"))])
        assert client.complete(REQ).attempt_count == 2

    def test_transport_exception_retries(self):
        client, _, _ = make_client([TE("connection reset"), (200, ok_body("1"))])
        assert client.complete(REQ).attempt_count == 2

    def test_exhaustion_raises_with_last_status(self):
        client, transport, sleeps = make_client(
            [(500, "x")] * 4, max_retries=3
        )
        with pytest.raises(TransportError) as excinfo:
            client.complete(REQ)
        assert excinfo.value.status == 500
        assert len(transport.calls) == 4  # max_retries + 1 attempts
        assert len(sleeps) == 3

    def test_non_retryable_status_fails_fast(self):
        client, transport, _ = make_client([(404, "missing")])
        with pytest.raises(TransportError) as excinfo:
            client.complete(REQ)
        assert excinfo.value.status == 404
        assert len(transport.calls) == 1

    def test_non_json_body_is_protocol_error(self):
        client, _, _ = make_client([(200, "<html>oops</html>")])
        with pytest.raises(ProtocolError):
            client.complete(REQ)

    def test_missing_choices_is_protocol_error(self):
        client, _, _ = make_client([(200, json.dumps({"choices": []}))])
        with pytest.raises(ProtocolError):
            client.complete(REQ)

    def test_api_key_used_in_header_only(self, monkeypatch, caplog):
        monkeypatch.setenv("TEST_HARNESS_KEY", "sk-super-secret-token")
        client, transport, _ = make_client(
            [(500, "x"), (200, ok_body("1"))], api_key_env="TEST_HARNESS_KEY"
        )
        with caplog.at_level(logging.DEBUG):
            client.complete(REQ)
        call = transport.calls[0]
        assert call["headers"]["Authorization"] == "Bearer sk-super-secret-token"
        # The secret must never leak into the payload, config echo, or logs.
        assert "sk-super-secret-token" not in json.dumps(call["payload"])
        assert "sk-super-secret-token" not in json.dumps(client.config.as_dict())
        assert all("sk-super-secret-token" not in r.getMessage() for r in caplog.records)

    def test_no_auth_header_without_key(self, monkeypatch):
        monkeypatch.delenv("EMOHARNESS_API_KEY", raising=False)
        client, transport, _ = make_client([(200, ok_body("1"))])
        client.complete(REQ)
        assert "Authorization" not in transport.calls[0]["headers"]

    def test_mock_bypasses_transport(self):
        class Echo:
            def respond(self, prompt):
                return "mocked:" + prompt[:4]

        boom = ScriptedTransport([])
        client = CompletionClient(EndpointConfig(), mock=Echo(), transport=boom)
        result = client.complete(REQ)
        assert result.raw_text == "mocked:Does"
        assert result.attempt_count == 1
        assert boom.calls == []

    @pytest.mark.parametrize("backend", ["mock", "http"])
    def test_complete_all_preserves_input_order(self, backend):
        config = EndpointConfig(concurrency_limit=8)
        if backend == "mock":
            client = CompletionClient(config, mock=IndexMock())
        else:
            transport = IndexTransport(seed=7, count=40)
            client = CompletionClient(config, transport=transport)
        requests = [CompletionRequest(f"s{i}", "joy", f"prompt #{i}") for i in range(40)]
        results = client.complete_all(requests)
        assert [r.raw_text for r in results] == [str(i) for i in range(40)]
        assert [r.snippet_id for r in results] == [f"s{i}" for i in range(40)]
        if backend == "http":
            # Endpoint requests ran on pool workers, never on the caller.
            assert threading.get_ident() not in transport.threads

    def test_complete_all_runs_mock_inline(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("complete_all built a thread pool for a mock")

        monkeypatch.setattr("emoharness.inference.ThreadPoolExecutor", no_pool)
        calls = []

        class RecordingMock(IndexMock):
            def respond(self, prompt):
                calls.append((threading.get_ident(), prompt))
                return super().respond(prompt)

        client = CompletionClient(EndpointConfig(concurrency_limit=8), mock=RecordingMock())
        requests = [CompletionRequest(f"s{i}", "joy", f"prompt #{i}") for i in range(40)]
        results = client.complete_all(requests)
        assert [r.raw_text for r in results] == [str(i) for i in range(40)]
        assert [prompt for _, prompt in calls] == [r.prompt for r in requests]
        assert {ident for ident, _ in calls} == {threading.get_ident()}

    def test_complete_all_draws_mock_requests_one_at_a_time(self):
        events = []

        class LoggingMock(IndexMock):
            def respond(self, prompt):
                events.append(("respond", prompt))
                return super().respond(prompt)

        def drawn():
            for i in range(5):
                events.append(("draw", f"prompt #{i}"))
                yield CompletionRequest(f"s{i}", "joy", f"prompt #{i}")

        client = CompletionClient(EndpointConfig(), mock=LoggingMock())
        results = client.complete_all(drawn())
        assert [r.raw_text for r in results] == [str(i) for i in range(5)]
        assert events == [(kind, f"prompt #{i}") for i in range(5) for kind in ("draw", "respond")]

    @pytest.mark.parametrize("concurrency_limit", [1, 2, 8])
    def test_complete_all_bounds_http_requests_in_flight(self, concurrency_limit):
        # Eight workers on fewer cores and a short switch interval stress the
        # hand-off between the drawing caller and the workers.
        count = 200
        counter = DrawCounter(IndexTransport(seed=concurrency_limit, count=count))
        client = CompletionClient(EndpointConfig(concurrency_limit=concurrency_limit), transport=counter)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = client.complete_all(counter.requests(count))
        finally:
            sys.setswitchinterval(interval)
        assert [r.raw_text for r in results] == [str(i) for i in range(count)]
        assert counter.outstanding == 0
        assert counter.most_outstanding <= 4 * concurrency_limit

    def test_complete_all_raises_first_failure_in_request_order(self):
        # Request 10 fails slowly with 404 and request 11 fails at once with
        # 400: the caller still sees request 10's failure.
        failing = 10

        def transport(url, payload, headers, timeout):
            index = int(payload["messages"][0]["content"].rsplit("#", 1)[-1])
            if index == failing:
                time.sleep(0.02)
                return 404, "missing"
            if index == failing + 1:
                return 400, "bad request"
            return 200, ok_body(str(index))

        counter = DrawCounter(transport)
        client = CompletionClient(EndpointConfig(concurrency_limit=2), transport=counter)
        with pytest.raises(TransportError) as excinfo:
            client.complete_all(counter.requests(100))
        assert excinfo.value.status == 404
        assert failing < counter.last_drawn <= failing + 4 * 2

    def test_complete_all_empty(self):
        for mock in (None, IndexMock()):
            client = CompletionClient(EndpointConfig(), mock=mock, transport=ScriptedTransport([]))
            assert client.complete_all([]) == []
            assert client.complete_all(r for r in ()) == []

    def test_completion_keeps_no_prompt(self):
        completion = CompletionClient(EndpointConfig(), mock=IndexMock()).complete(REQ)
        assert "prompt" not in {f.name for f in fields(RawCompletion)}
        assert not hasattr(completion, "__dict__")


class TestEndpointConfig:
    def test_defaults(self):
        config = EndpointConfig()
        assert config.temperature == 0.0
        assert config.max_tokens == 8
        assert config.api_key_env == "EMOHARNESS_API_KEY"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"temperature": -0.1},
            {"max_tokens": 0},
            {"timeout": 0},
            {"max_retries": -1},
            {"concurrency_limit": 0},
            {"base_url": "localhost:8000/v1"},
            *({key: value} for key in ("temperature", "timeout") for value in (math.nan, math.inf)),
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            EndpointConfig(**kwargs)


class TestPredictionRecord:
    def test_round_trip(self):
        record = PredictionRecord("s1", "joy", "A", "1", 1)
        assert PredictionRecord.from_dict(record.as_dict()) == record

    def test_failure_round_trip_keeps_raw_text(self):
        record = PredictionRecord("s1", "joy", "A", "definitely yes", None)
        loaded = PredictionRecord.from_dict(json.loads(json.dumps(record.as_dict())))
        assert loaded.parsed is None
        assert loaded.raw_text == "definitely yes"

    def test_label_or_zero(self):
        assert PredictionRecord("s", "joy", "A", "x", None).label_or_zero == 0
        assert PredictionRecord("s", "joy", "B", "3", 3).label_or_zero == 3
