"""The CI workflow gates every benchmark workload, runs the documented
tier-1 command and checks every light module, so none of these can drift
from the files that declare them."""

import json
import re
from pathlib import Path

import yaml

from test_public_surface import LIGHT_MODULES

ROOT = Path(__file__).resolve().parent.parent


def _steps():
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8"))
    return [step for job in workflow["jobs"].values() for step in job["steps"]]


def _runs(needle):
    return {step["name"]: step["run"] for step in _steps() if needle in step.get("run", "")}


def test_benchmark_loops_gate_every_declared_workload():
    declared = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]
    loops = _runs("bench/bench.py")
    assert set(loops) == {"Benchmark hash gate", "Benchmark call-count gates"}
    for name, run in loops.items():
        (looped,) = re.findall(r"for workload in ([^;\n]*); do", run)
        assert sorted(looped.split()) == sorted(declared), name
        assert '--workload "$workload"' in run, name


def test_tier1_steps_run_the_documented_command():
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    (command,) = re.findall(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$", roadmap, re.M)
    runs = _runs("pytest")
    assert len(runs) == 2
    for name, run in runs.items():
        assert run.strip().endswith(command), name


def test_runtime_step_checks_every_light_module():
    (run,) = [step["run"] for step in _steps() if step.get("name") == "Runtime dependencies alone suffice"]
    (line,) = [line for line in run.splitlines() if "light modules loaded" in line]
    (imported,) = re.findall(r'-c "import sys, ([^;]+);', line)
    assert sorted(imported.split(", ")) == sorted(f"emoharness.{name}" for name in LIGHT_MODULES)


def test_lowest_matrix_python_is_the_supported_floor():
    # tomllib arrived in 3.11, so the floor is read with a regex on 3.10.
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    (floor,) = re.findall(r'^requires-python = ">=(\d+\.\d+)"$', pyproject, re.M)
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8"))
    jobs = workflow["jobs"].values()
    (versions,) = [job["strategy"]["matrix"]["python-version"] for job in jobs if "strategy" in job]
    assert min(versions, key=lambda v: tuple(map(int, v.split(".")))) == floor
