"""The names the benchmark's traced run wraps stay where it looks for them.

``bench/child.py --trace`` replaces functions on the package's modules by
attribute name; a refactor that moves or renames one would only show up as
an ``AttributeError`` in a traced benchmark run. The probe is loaded here but
never installed; the traced-run tests below install it in a child process,
as the benchmark does, and pin the calls it counts on the demo data.
"""

import http.server
import importlib.util
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
import yaml

import emoharness.exports
import emoharness.mocks
import emoharness.retrieval
import emoharness.runner
from emoharness.inference import CompletionClient
from emoharness.mocks import KeywordMock

CHILD = Path(__file__).resolve().parent.parent / "bench" / "child.py"


def test_traced_bindings_exist():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    wrapped = [(emoharness.runner, name) for name in child.Probe.RUNNER_BINDINGS]
    wrapped += [
        (emoharness.runner, "run"),
        (emoharness.runner, "load_config"),
        (emoharness.exports, "render_zero_shot"),
        (emoharness.retrieval, "tokenize"),
        (emoharness.mocks, "build_mock"),
        (CompletionClient, "complete"),
        (CompletionClient, "complete_all"),
    ]
    missing = [f"{getattr(owner, '__name__', owner)}.{name}" for owner, name in wrapped if not hasattr(owner, name)]
    assert not missing, f"bench/child.py wraps names that are gone: {missing}"


DEMO_DATA = CHILD.parent.parent / "demos" / "data"


class _KeywordHandler(http.server.BaseHTTPRequestHandler):
    """Answers each chat-completions request with the keyword mock's answer."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        answer = KeywordMock().respond(body["messages"][0]["content"])
        data = json.dumps({"choices": [{"message": {"content": answer}}]}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def endpoint():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _KeywordHandler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/v1"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def traced_run(tmp_path, **raw):
    """Run ``bench/child.py run --trace`` on the demo data with the config
    ``raw``; returns its result, whose ``layers._calls`` counts each wrapped
    function's calls."""
    config = {"track": "A", "language": "eng", "seed": 7, "output_dir": str(tmp_path / "out"), **raw}
    config_path, result_path = tmp_path / "config.yaml", tmp_path / "result.json"
    config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    env = {name: value for name, value in os.environ.items() if not name.lower().endswith("_proxy")}
    env["PYTHONPATH"] = str(CHILD.parent.parent / "src")
    spans_path = tmp_path / "spans.json"
    command = [sys.executable, str(CHILD), "run", str(config_path), str(result_path), "--trace", str(spans_path)]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    result = json.loads(result_path.read_text(encoding="utf-8"))
    assert result["error"] is None
    return result


# Five test snippets with five emotions each: 25 requests.
ZERO_SHOT_CALLS = {
    "inference.complete": 25,
    "prompting.render": 25,
    "mocks.respond": 25,
    "inference.complete_all": 1,
}


def test_traced_zero_shot(tmp_path):
    dataset = {"test": str(DEMO_DATA / "eng_test.csv")}
    calls = traced_run(tmp_path, strategy="zero_shot", mock="keyword", dataset=dataset)["layers"]["_calls"]
    assert {name: calls.get(name) for name in ZERO_SHOT_CALLS} == ZERO_SHOT_CALLS


def test_traced_few_shot(tmp_path):
    dataset = {"test": str(DEMO_DATA / "eng_test.csv"), "train": str(DEMO_DATA / "eng_train.csv")}
    raw = {"strategy": "few_shot", "mock": "keyword", "retrieval": {"k": 2}, "dataset": dataset}
    calls = traced_run(tmp_path, **raw)["layers"]["_calls"]
    expected = {**ZERO_SHOT_CALLS, "retrieval.build_index": 1, "retrieval.top_k": 5}
    assert {name: calls.get(name) for name in expected} == expected


def test_traced_endpoint_run(tmp_path, endpoint):
    dataset = {"test": str(DEMO_DATA / "eng_test.csv")}
    config = {"base_url": endpoint, "model_name": "m", "concurrency_limit": 2, "max_retries": 0}
    result = traced_run(tmp_path, strategy="marginalise_from_b", endpoint=config, dataset=dataset)
    calls = result["layers"]["_calls"]
    expected = {"inference.complete": 25, "prompting.render": 25, "inference.complete_all": 1}
    assert {name: calls.get(name) for name in expected} == expected
    assert "mocks.respond" not in calls
    assert result["layers"]["inference.attempts"] == 25


def test_traced_ebridge_export(tmp_path):
    dataset = {"train": str(DEMO_DATA / "deu_train.csv"), "english_train": str(DEMO_DATA / "eng_train.csv")}
    calls = traced_run(tmp_path, language="deu", strategy="export_ebridge", dataset=dataset)["layers"]["_calls"]
    expected = {"prompting.render": 40, "corpus.oversample": 2, "exports.export": 1}
    assert {name: calls.get(name) for name in expected} == expected
    assert "inference.complete" not in calls
