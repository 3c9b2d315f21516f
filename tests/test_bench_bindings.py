"""The names the benchmark's traced run wraps stay where it looks for them.

``bench/child.py --trace`` replaces functions on the package's modules by
attribute name; a refactor that moves or renames one would only show up as
an ``AttributeError`` in a traced benchmark run. The probe is loaded here but
never installed.
"""

import importlib.util
from pathlib import Path

import emoharness.exports
import emoharness.mocks
import emoharness.retrieval
import emoharness.runner
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
