"""End-to-end benchmark of the emoharness batch loop.

Run from the root of a checkout:

    python3 bench/bench.py --workload NAME --seed N --seconds S --trace 0|1

For one of the four workloads in ``workloads.py`` it generates seeded CSVs
and a YAML config, then runs ``emoharness.runner.run(config)`` from outside
the package, once per repetition, each in a fresh child process with a fresh
output directory, as many as fit in ``S`` seconds but at least three. It checks
every repetition's outputs against answers it computes itself and prints one
JSON object as its last line of output:

- ``--trace 0``: the end-to-end metrics, measured with tracing off:
  ``run_s`` (median wall seconds of one ``run`` call), ``instances_per_s``
  (requests, or SFT lines for the export, per median ``run_s``), ``setup_s``
  (median over fresh processes of ``import emoharness`` plus ``load_config``),
  ``peak_rss_mb`` (median peak RSS of the child running a repetition) and
  ``completed_share`` (1 minus failed over attempted operations).
- ``--trace 1``: one untraced repetition, then traced ones that wrap the
  package's public functions from outside; prints the per-layer metrics,
  which are 0 for layers the workload does not exercise, and
  ``trace.overhead_s`` (median traced minus untraced ``run_s``).

The line before the last holds the details: sample counts, input
properties, artifact hashes and the Python, numpy and requests versions.
Any failed gate makes ``correct`` false and the exit code 1; a checkout
without ``src/emoharness`` exits with 2 before running anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (  # noqa: E402
    WORKLOADS,
    Prepared,
    check_export,
    check_few_shot_prompts,
    config_yaml,
    expected_average,
    expected_run_artifacts,
    prepare,
)

HERE = Path(__file__).resolve().parent
MIN_REPETITIONS = 3
SETUP_SAMPLES = 5
DEADLINE_S = 165.0


class Gate:
    def __init__(self):
        self.errors: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


class StubProcess:
    """The chat-completions stub in its own process on 127.0.0.1."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py")],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.stop()
            raise RuntimeError("stub endpoint did not report its port")
        self.base = f"http://127.0.0.1:{int(line)}"
        self.opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def stats(self, reset: bool) -> dict:
        url = self.base + ("/stats?reset=1" if reset else "/stats")
        with self.opener.open(url, timeout=10) as resp:
            return json.load(resp)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _child_env(root: Path) -> dict:
    # Requests to the stub must never be routed through a proxy.
    return dict(os.environ, PYTHONPATH=str(root / "src"), NO_PROXY="127.0.0.1", no_proxy="127.0.0.1")


def setup_sample(root: Path, config: Path, gate: Gate) -> tuple[float, dict]:
    """One fresh-process sample of ``import emoharness`` plus ``load_config``."""
    out = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "setup", str(config)],
        env=_child_env(root), capture_output=True, text=True, timeout=60, check=True,
    )
    report = json.loads(out.stdout.strip().splitlines()[-1])
    gate.check(
        Path(report.pop("package")).resolve().is_relative_to(root / "src"),
        "emoharness was not imported from this checkout's src",
    )
    return report.pop("setup_s"), report


class Bench:
    def __init__(self, root: Path, prepared: Prepared, base_url: str | None, gate: Gate):
        self.root, self.prepared, self.base_url, self.gate = root, prepared, base_url, gate
        self.work = prepared.directory
        self.reference_hashes: dict[str, str] | None = None
        self.repetitions = 0

    def config(self, output_dir: str) -> Path:
        path = self.work / f"{output_dir}.yaml"
        path.write_text(config_yaml(self.prepared, output_dir, self.base_url), encoding="utf-8")
        return path

    def repetition(self, traced: bool, stub: StubProcess | None, timeout: float) -> dict:
        """Run one repetition in a fresh process and gate its outputs."""
        i = self.repetitions
        self.repetitions += 1
        name = self.prepared.workload.name
        out_dir = self.work / f"out{i}"
        result_path = self.work / f"result{i}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "run", str(self.config(out_dir.name)), str(result_path)]
        if traced:
            traces = self.root / ".bench_work" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            cmd += ["--trace", str(traces / f"{name}.spans.json")]
        if stub is not None:
            stub.stats(reset=True)
        subprocess.run(cmd, env=_child_env(self.root), stdout=subprocess.DEVNULL, timeout=timeout, check=True)
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if stub is not None:
            result["stub"] = stub.stats(reset=False)
        if result["error"] is None:
            self.check_outputs(result, out_dir)
            if traced:
                result["layers"].update(self.file_layers(out_dir), **stub_layers(result.get("stub")))
                self.check_call_counts(result["layers"]["_calls"])
        else:
            self.gate.check(False, f"repetition {i} raised {result['error']}")
        shutil.rmtree(out_dir, ignore_errors=True)
        return result

    def file_layers(self, out_dir: Path) -> dict:
        files = [p for p in out_dir.rglob("*") if p.is_file()]
        exported = [p for p in files if p.name != "manifest.json"]
        is_export = self.prepared.workload.strategy.startswith("export_")
        return {
            "exports.lines": sum(
                p.read_bytes().count(b"\n") for p in exported if p.suffix == ".jsonl"
            ) if is_export else 0,
            "exports.bytes": sum(p.stat().st_size for p in exported) if is_export else 0,
            "runner.artifact_bytes": sum(p.stat().st_size for p in files),
        }

    def check_outputs(self, result: dict, out_dir: Path) -> None:
        """Every repetition must write the same bytes, so only the first one's
        contents are checked in full; the prompts are not artifacts and are
        checked every time."""
        gate, prepared = self.gate, self.prepared
        on_disk = {
            str(p.relative_to(out_dir)): _sha256(p)
            for p in sorted(out_dir.rglob("*"))
            if p.is_file() and p.name != "manifest.json"
        }
        gate.check(on_disk == result["artifacts"], "manifest hashes differ from the files on disk")
        if "prompts" in result:
            for error in check_few_shot_prompts(prepared, result["prompts"]):
                gate.check(False, error)
        if "stub" in result:
            gate.check(
                result["stub"]["requests"] == result["counts"]["attempts"],
                f"stub saw {result['stub']['requests']} requests for {result['counts']['attempts']} attempts",
            )
        if self.reference_hashes is not None:
            gate.check(on_disk == self.reference_hashes, "artifact hashes differ between repetitions")
            return
        self.reference_hashes = on_disk
        if prepared.workload.strategy == "export_ebridge":
            for error in check_export(prepared, out_dir):
                gate.check(False, error)
            return
        counts = result["counts"]
        gate.check(counts["requests"] == prepared.operations, f"counts.requests is {counts['requests']}")
        gate.check(counts["parse_failures"] == 0, f"{counts['parse_failures']} parse failures")
        for artifact, expected in expected_run_artifacts(prepared).items():
            gate.check(
                (out_dir / artifact).read_bytes() == expected,
                f"{artifact} differs from the keyword-rule answers",
            )
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        want = expected_average(prepared)
        gate.check(abs(report["average"] - want) <= 1e-9, f"report average {report['average']!r} != {want!r}")

    def check_call_counts(self, calls: dict[str, int]) -> None:
        """A wrapper that a refactor goes around must fail here, not report 0 s."""
        p = self.prepared
        strategy = p.workload.strategy
        ranges = {"runner.validate_config": (1, 1), "runner.run": (1, 1)}
        if strategy == "export_ebridge":
            ranges.update({
                "corpus.load_dataset": (2, 2), "corpus.explode": (2, 2), "corpus.oversample": (2, 2),
                "exports.export": (1, 1), "prompting.render": (1, p.operations),
            })
        else:
            distinct = len({(r.text, e) for r in p.tables["test"] for e in p.emotions["test"]})
            ranges.update({
                "corpus.load_dataset": (len(p.tables), len(p.tables)), "corpus.explode": (1, 1),
                "prompting.render": (distinct, p.operations), "inference.complete_all": (1, 1),
                "inference.complete": (distinct, p.operations),
                "inference.parse_label": (distinct, p.operations),
                "evaluation.aggregate": (1, 1), "evaluation.score": (1, 1),
            })
            if strategy == "few_shot":
                ranges["retrieval.build_index"] = (1, 1)
                ranges["retrieval.top_k"] = (p.distinct_queries, len(p.tables["test"]))
            if strategy == "marginalise_from_b":
                ranges["evaluation.marginalise"] = (1, len(p.tables["test"]))
            else:
                ranges["mocks.respond"] = (distinct, p.operations)
        for name, (lo, hi) in ranges.items():
            n = calls.get(name, 0)
            self.gate.check(lo <= n <= hi, f"traced {name} ran {n} times, expected {lo}..{hi}")


def main() -> int:
    parser = argparse.ArgumentParser(description="emoharness end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "emoharness" / "__init__.py").is_file():
        print("bench: no src/emoharness here; run from the root of a checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    began = time.monotonic()
    work_root = root / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    stub = None
    try:
        prepared = prepare(args.workload, args.seed, work)
        if args.workload == "margb_http":
            stub = StubProcess()
        gate = Gate()
        bench = Bench(root, prepared, stub.base + "/v1" if stub else None, gate)
        setup_config = bench.config("setup")
        setup_samples: list[float] = []

        def sample_setup() -> dict:
            seconds, versions = setup_sample(root, setup_config, gate)
            setup_samples.append(seconds)
            return versions

        # Set-up samples are interleaved with the repetitions so both spread
        # over the same window; the machine's speed drifts over tens of seconds.
        untraced, traced = [], []
        window = time.monotonic()
        last = 0.0
        while True:
            done = len(untraced) + len(traced)
            if done >= MIN_REPETITIONS and time.monotonic() - window + last > args.seconds:
                break
            if done and time.monotonic() - began + last > DEADLINE_S:
                break
            started = time.monotonic()
            versions = sample_setup()
            want_trace = args.trace == 1 and done > 0
            result = bench.repetition(want_trace, stub, DEADLINE_S + 10 - (time.monotonic() - began))
            last = time.monotonic() - started
            (traced if want_trace else untraced).append(result)
            if gate.errors:
                break
        while len(setup_samples) < SETUP_SAMPLES:
            sample_setup()

        reps = untraced + traced
        attempted = prepared.operations * len(reps)
        failed = prepared.operations * sum(1 for r in reps if r["error"] is not None)
        pinned = json.loads((HERE / "expected_hashes.json").read_text(encoding="utf-8"))
        expected = pinned.get(args.workload, {}).get(str(args.seed))
        if expected is not None and bench.reference_hashes is not None:
            gate.check(bench.reference_hashes == expected, "artifact hashes differ from expected_hashes.json")

        ok_runs = [r for r in (traced if args.trace else untraced) if r["error"] is None]
        if args.trace == 1:
            metrics = per_layer(ok_runs, untraced)
        else:
            run_s = statistics.median(r["run_s"] for r in ok_runs) if ok_runs else 0.0
            metrics = {
                "run_s": run_s,
                "instances_per_s": prepared.operations / run_s if run_s else 0.0,
                "setup_s": statistics.median(setup_samples),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
                "completed_share": 1.0 - failed / attempted,
            }
        # BENCHMARK.json declares each metric's unit; its lists and the
        # metrics measured here must not drift apart.
        declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
        if ok_runs:
            gate.check(
                metrics.keys() == units.keys(),
                f"measured metrics {sorted(metrics.keys() ^ units.keys())} differ from BENCHMARK.json",
            )
        correct = not gate.errors and not failed
        for error in list(dict.fromkeys(gate.errors))[:20]:
            print(f"bench: FAILED {error}", file=sys.stderr)
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "why": prepared.workload.why,
            "inputs": prepared.properties,
            "operations_per_repetition": prepared.operations,
            "repetitions": {"untraced": len(untraced), "traced": len(traced)},
            "run_s_samples": [round(r["run_s"], 6) for r in reps],
            "setup_s_samples": [round(s, 6) for s in setup_samples],
            "artifact_sha256": bench.reference_hashes,
            "machine": {"nproc": os.cpu_count(), "platform": platform.platform(), **versions},
        }
        print("detail " + json.dumps(detail, ensure_ascii=False))
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in metrics.items() if name in units
            },
        }))
        return 0 if correct else 1
    finally:
        if stub is not None:
            stub.stop()
        shutil.rmtree(work, ignore_errors=True)


def stub_layers(stats: dict | None) -> dict:
    stats = stats or {"requests": 0, "connections": 0, "service_ms_p50": 0.0}
    return {
        "stub.requests": stats["requests"],
        "stub.connections": stats["connections"],
        "stub.requests_per_connection": (
            stats["requests"] / stats["connections"] if stats["connections"] else 0.0
        ),
        "stub.service_ms_p50": stats["service_ms_p50"],
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Median of each per-layer metric over the traced repetitions."""
    if not traced:
        return {}
    out = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
        if not name.startswith("_")
    }
    baseline = statistics.median(r["run_s"] for r in untraced) if untraced else out["runner.run.s"]
    out["trace.overhead_s"] = out["runner.run.s"] - baseline
    return out


if __name__ == "__main__":
    sys.exit(main())
