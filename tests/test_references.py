"""The BM25 and tokenizer references agree with each other and with the
package, and the tests' reference stays independent of the package.

``bench/workloads.py`` keeps its own copy of the rule to check few-shot
prompts; it is loaded here by path and never changed by the tests.
"""

import ast
import importlib.util
import random
import sys
from pathlib import Path

import pytest

from datagen import escape_text, make_corpus, random_text
from emoharness import RetrievalConfig, build_index, tokenize, top_k
from oracles import ref_bm25_scores, ref_tokenize

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # ``dataclass`` looks its module up in ``sys.modules``.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize("seed", range(20))
def test_bm25_references_agree(workloads, seed):
    rng = random.Random(seed)
    texts = [text for _, text in make_corpus(rng, 40)] + [escape_text(rng) for _ in range(40)]
    rng.shuffle(texts)
    queries = [random_text(rng) for _ in range(5)] + [escape_text(rng) for _ in range(5)]
    for text in texts + queries:
        assert workloads.tokenize(text) == ref_tokenize(text) == tokenize(text), text

    bench_bm25 = workloads.ReferenceBm25(texts)
    index = build_index([(f"d{i:02d}", text) for i, text in enumerate(texts)])
    documents = [ref_tokenize(text) for text in texts]
    params = (workloads.BM25_K1, workloads.BM25_B, workloads.BM25_EPSILON)
    for query in queries:
        want = ref_bm25_scores(documents, ref_tokenize(query), *params)
        bench_scores = bench_bm25.scores(query)
        package_scores = dict(top_k(index, query, RetrievalConfig(k=index.doc_count)))
        for i, score in enumerate(want):
            assert bench_scores.get(i, 0.0) == pytest.approx(score, abs=1e-9), (query, i)
            assert package_scores[f"d{i:02d}"] == pytest.approx(score, abs=1e-9), (query, i)


def test_oracles_import_neither_the_package_nor_numpy():
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    roots = {name.split(".")[0] for name in imported}
    assert not roots & {"emoharness", "numpy", ""}, sorted(imported)
