"""The names the benchmark's traced run wraps stay where it looks for them.

``bench/child.py --trace`` replaces functions on the package's modules by
attribute name; a refactor that moves or renames one would only show up as
an ``AttributeError`` in a traced benchmark run. The probe is loaded here but
never installed; the traced-run tests below install it in a child process,
as the benchmark does, and pin the calls it counts on the demo data.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import yaml

import emoharness.exports
import emoharness.mocks
import emoharness.retrieval
import emoharness.runner
from conftest import keyword
from emoharness.inference import CompletionClient

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


def test_traced_endpoint_run(tmp_path, serve):
    # The demo texts hold no "#", so the server's ``index`` is the whole prompt.
    dataset = {"test": str(DEMO_DATA / "eng_test.csv")}
    config = {"base_url": serve(keyword).url, "model_name": "m", "concurrency_limit": 2, "max_retries": 0}
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
