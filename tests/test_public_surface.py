"""The package root's public names: ``__all__`` comes from one table, each
name resolves to its home module's object on first access, and a light
module imports without numpy or pyyaml."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import emoharness

#: The checkout's source tree, put on a child interpreter's path.
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_fresh(code):
    """Run ``code`` in a new interpreter with only the checkout's package on
    its path; returns its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_all_holds_no_duplicates():
    assert len(emoharness.__all__) == len(set(emoharness.__all__))


def test_every_listed_name_resolves():
    assert [name for name in emoharness.__all__ if not hasattr(emoharness, name)] == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from emoharness import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(emoharness.__all__)


def test_each_name_is_its_home_modules_object():
    assert emoharness.__all__ == [name for names in emoharness._EXPORTS.values() for name in names]
    for module_name, names in emoharness._EXPORTS.items():
        module = importlib.import_module(f"emoharness.{module_name}")
        for name in names:
            value = getattr(emoharness, name)
            assert value is getattr(module, name), name
            # The table names the module that defines the name, not one that imports it.
            assert getattr(value, "__module__", module.__name__) == module.__name__, name


def test_dir_lists_every_public_name():
    assert set(emoharness.__all__) <= set(dir(emoharness))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        getattr(emoharness, "no_such_name")


def test_submodule_import_falls_back_past_getattr():
    # In a fresh interpreter the submodule is not yet bound on the package.
    code = "import sys; from emoharness import prompting; print(prompting is sys.modules['emoharness.prompting'])"
    assert run_fresh(code).split() == ["True"]


#: The modules that import neither numpy nor yaml; CI checks the same list from a runtime-only install.
LIGHT_MODULES = ("corpus", "errors", "prompting", "mocks", "inference", "exports")


@pytest.mark.parametrize(
    "statement",
    [
        *(f"import emoharness.{name}" for name in LIGHT_MODULES),
        "from emoharness import ColumnSchema, EmotionSet, explode, load_dataset, oversample",
    ],
)
def test_light_import_loads_neither_numpy_nor_yaml(statement):
    # Only what the import adds counts, as in test_import_loads_no_requests.
    code = f"import sys; before = set(sys.modules); {statement}; print(*sorted(set(sys.modules) - before))"
    added = {name.partition(".")[0] for name in run_fresh(code).split()}
    assert added.isdisjoint({"numpy", "yaml"})
