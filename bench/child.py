"""One measured repetition, in a fresh process.

``python3 bench/child.py setup CONFIG`` times ``import emoharness`` plus
``load_config`` and prints ``{"setup_s": ...}``.

``python3 bench/child.py run CONFIG RESULT [--trace SPANS]`` loads the config,
times one ``emoharness.runner.run`` call and writes a JSON result: run
seconds, peak RSS, the error if the run raised, every prompt the mock was sent
for a few-shot run and, with ``--trace``, the per-layer metrics. Spans are
kept in memory while the run goes and written to SPANS afterwards, so tracing
does no I/O inside the run.

The parent puts the checkout's ``src`` on ``PYTHONPATH``; the package is only
imported here, never in the parent.
"""

from __future__ import annotations

import itertools
import json
import resource
import sys
import threading
import time


class Tracer:
    """In-memory spans: (id, parent id, name, start, end, ok).

    Spans nest per thread. A span opened on a pool worker with nothing open on
    that thread takes the main thread's innermost span as its parent, which is
    the ``complete_all`` call that dispatched it.
    """

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float, bool]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else 0)
        span_id = next(self._ids)
        stack.append(span_id)
        ok = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, ok))


class Probe:
    """Wraps the package's public functions from outside and counts what they see."""

    # Names as bound in emoharness.runner, with the layer they belong to.
    RUNNER_BINDINGS = {
        "load_dataset": "corpus.load_dataset",
        "explode": "corpus.explode",
        "oversample": "corpus.oversample",
        "build_index": "retrieval.build_index",
        "top_k": "retrieval.top_k",
        "render_zero_shot": "prompting.render",
        "render_few_shot": "prompting.render",
        "parse_label": "inference.parse_label",
        "aggregate": "evaluation.aggregate",
        "marginalise": "evaluation.marginalise",
        "count_parse_failures": "evaluation.count_parse_failures",
        "macro_f1": "evaluation.score",
        "mean_pearson_r": "evaluation.score",
        "export_sft_dataset": "exports.export",
        "export_ebridge_plan": "exports.export",
        "validate_config": "runner.validate_config",
    }

    def __init__(self):
        self.tracer = Tracer()
        self.tokenize_calls = 0
        self.tokenize_in_top_k = 0
        self.queries: list[str] = []
        self.prompt_chars = 0
        self.parse_failures = 0
        self.attempts = 0
        self.prompt_hashes: set[int] = set()

    def install(self) -> None:
        import emoharness.exports
        import emoharness.retrieval
        import emoharness.runner
        from emoharness.inference import CompletionClient

        observers = {
            "prompting.render": self._on_render,
            "inference.parse_label": self._on_parse,
        }
        for attr, name in self.RUNNER_BINDINGS.items():
            self._wrap(emoharness.runner, attr, name, observers.get(name))
        self._wrap(emoharness.exports, "render_zero_shot", "prompting.render", self._on_render)
        self._wrap(CompletionClient, "complete", "inference.complete", self._on_complete)
        self._wrap(CompletionClient, "complete_all", "inference.complete_all")

        top_k = emoharness.runner.top_k  # already traced

        def counted_top_k(index, query, config):
            before = self.tokenize_calls
            try:
                return top_k(index, query, config)
            finally:
                self.tokenize_in_top_k += self.tokenize_calls - before
                self.queries.append(query)

        emoharness.runner.top_k = counted_top_k

        tokenize = emoharness.retrieval.tokenize

        def counted_tokenize(text):
            self.tokenize_calls += 1
            return tokenize(text)

        emoharness.retrieval.tokenize = counted_tokenize

    def _wrap(self, owner, attr, name, observe=None) -> None:
        fn = getattr(owner, attr)
        call = self.tracer.call

        def traced(*args, **kwargs):
            result = call(name, fn, args, kwargs)
            if observe is not None:
                observe(args, result)
            return result

        setattr(owner, attr, traced)

    def _on_render(self, args, prompt) -> None:
        self.prompt_chars += len(prompt)

    def _on_parse(self, args, label) -> None:
        if label is None:
            self.parse_failures += 1

    def _on_complete(self, args, completion) -> None:
        self.attempts += completion.attempt_count
        self.prompt_hashes.add(hash(args[1].prompt))

    def metrics(self, workers: int) -> dict[str, float]:
        spans = self.tracer.spans
        by_name: dict[str, list[float]] = {}
        for _, _, name, start, end, _ in spans:
            by_name.setdefault(name, []).append(end - start)

        def total(name):
            return sum(by_name.get(name, ()))

        def calls(name):
            return len(by_name.get(name, ()))

        def pct_ms(name, q):
            values = sorted(by_name.get(name, ()))
            if not values:
                return 0.0
            return values[min(len(values) - 1, int(q * len(values)))] * 1000.0

        run_id, _, _, run_start, run_end, _ = next(s for s in spans if s[2] == "runner.run")
        children = sorted((s[3], s[4]) for s in spans if s[1] == run_id)
        covered, reach = 0.0, run_start
        for start, end in children:
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        complete_calls = calls("inference.complete")
        top_k_calls = calls("retrieval.top_k")
        renders = calls("prompting.render")
        complete_all_s = total("inference.complete_all")
        return {
            "corpus.load_dataset.s": total("corpus.load_dataset"),
            "corpus.explode.s": total("corpus.explode"),
            "corpus.oversample.s": total("corpus.oversample"),
            "retrieval.build_index.s": total("retrieval.build_index"),
            "retrieval.top_k.calls": top_k_calls,
            "retrieval.top_k.s": total("retrieval.top_k"),
            "retrieval.top_k.p50_ms": pct_ms("retrieval.top_k", 0.5),
            "retrieval.top_k.p99_ms": pct_ms("retrieval.top_k", 0.99),
            "retrieval.tokenize.calls": self.tokenize_calls,
            "retrieval.tokenize.calls_per_query": (
                self.tokenize_in_top_k / top_k_calls if top_k_calls else 0.0
            ),
            "retrieval.repeated_query_share": (
                1.0 - len(set(self.queries)) / len(self.queries) if self.queries else 0.0
            ),
            "prompting.render.calls": renders,
            "prompting.render.s": total("prompting.render"),
            "prompting.prompt_chars_mean": self.prompt_chars / renders if renders else 0.0,
            "inference.complete_all.s": complete_all_s,
            "inference.complete.calls": complete_calls,
            "inference.complete.p50_ms": pct_ms("inference.complete", 0.5),
            "inference.complete.p99_ms": pct_ms("inference.complete", 0.99),
            "inference.worker_busy_share": (
                total("inference.complete") / (complete_all_s * workers) if complete_all_s else 0.0
            ),
            "inference.dispatch_overhead_s": complete_all_s - total("mocks.respond"),
            "inference.attempts": self.attempts,
            "inference.retries": self.attempts - complete_calls,
            "inference.failed": sum(1 for s in spans if s[2] == "inference.complete" and not s[5]),
            "inference.parse_label.s": total("inference.parse_label"),
            "inference.parse_failures": self.parse_failures,
            "inference.repeated_prompt_share": (
                1.0 - len(self.prompt_hashes) / complete_calls if complete_calls else 0.0
            ),
            "mocks.respond.calls": calls("mocks.respond"),
            "mocks.respond.s": total("mocks.respond"),
            "evaluation.aggregate.s": total("evaluation.aggregate"),
            "evaluation.marginalise.s": total("evaluation.marginalise"),
            "evaluation.score.s": total("evaluation.score"),
            "exports.export.s": total("exports.export"),
            "runner.run.s": run_end - run_start,
            "runner.self.s": (run_end - run_start) - covered,
            "runner.validate_config.s": total("runner.validate_config"),
            "_calls": {name: len(v) for name, v in by_name.items()},
        }


class MockProxy:
    """Passed to ``run(config, mock=...)``: forwards to the package's own mock,
    optionally inside a span, optionally keeping every prompt it was sent."""

    def __init__(self, inner, tracer: Tracer | None, prompts: list[str] | None):
        self.inner, self.tracer, self.prompts = inner, tracer, prompts

    def respond(self, prompt: str) -> str:
        if self.prompts is not None:
            self.prompts.append(prompt)
        if self.tracer is None:
            return self.inner.respond(prompt)
        return self.tracer.call("mocks.respond", self.inner.respond, (prompt,), {})


def setup(config_path: str) -> None:
    started = time.perf_counter()
    import emoharness.runner

    emoharness.runner.load_config(config_path)
    elapsed = time.perf_counter() - started
    import numpy
    import requests

    print(json.dumps({
        "setup_s": elapsed,
        "package": emoharness.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "requests": requests.__version__,
    }))


def run(config_path: str, result_path: str, spans_path: str | None) -> None:
    import emoharness.runner
    from emoharness.inference import EndpointConfig
    from emoharness.mocks import build_mock

    probe = None
    if spans_path is not None:
        probe = Probe()
        probe.install()
    config = emoharness.runner.load_config(config_path)
    # Few-shot prompts are checked against a reference BM25 ranking.
    prompts: list[str] | None = [] if config.strategy == "few_shot" else None
    mock = None
    if config.mock_id is not None and (probe is not None or prompts is not None):
        mock = MockProxy(build_mock(config.mock_id), probe.tracer if probe else None, prompts)
    result: dict = {"error": None}
    started = time.perf_counter()
    try:
        if probe is not None:
            manifest = probe.tracer.call("runner.run", emoharness.runner.run, (config, mock), {})
        else:
            manifest = emoharness.runner.run(config, mock=mock)
    except Exception as exc:  # the parent counts the repetition as failed
        result["error"] = f"{type(exc).__name__}: {exc}"
    else:
        result["counts"] = manifest.counts
        result["artifacts"] = manifest.artifacts
    result["run_s"] = time.perf_counter() - started
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if prompts is not None:
        result["prompts"] = prompts
    if probe is not None and result["error"] is None:
        workers = 1
        if config.strategy in ("zero_shot", "few_shot", "marginalise_from_b"):
            endpoint = config.endpoint or EndpointConfig()
            workers = min(endpoint.concurrency_limit, result["counts"]["requests"])
        result["layers"] = probe.metrics(workers)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["id", "parent", "name", "start", "end", "ok"], "spans": probe.tracer.spans}, fh
            )
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv: list[str]) -> None:
    if argv[:1] == ["setup"] and len(argv) == 2:
        setup(argv[1])
        return
    if argv[:1] == ["run"] and len(argv) >= 3:
        rest = argv[3:]
        spans = rest[rest.index("--trace") + 1] if "--trace" in rest else None
        run(argv[1], argv[2], spans)
        return
    sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
