"""Okapi BM25 index over training snippets for few-shot example retrieval.

``build_index`` stores an inverted index in flat CSR form: one array of
document positions holds every term's postings back to back (ascending
within a term), a parallel array holds each posting's BM25 contribution
(``posting_weights``), and ``postings`` maps each term to its
``(start, end)`` slice. Each weight is ``idf * tf * (k1 + 1) / (tf + norm)``
evaluated left to right, with ``norm = k1 * (1 - b + b * len / avgdl)``;
``tests/test_retrieval.py::TestIndexLayout`` pins every weight to that
float. The build strips each distinct whitespace-split part once and then
works in a few whole-corpus numpy passes: one term id per part, document
lengths and document frequencies by ``bincount``, and the (term, document)
pairs with their counts by one ``unique`` over ``term * doc_count + doc``
keys, which sorts them term-major with documents ascending.

``top_k`` scores term at a time, as Lucene and Pyserini do: it tokenizes
the query once, concatenates the postings of its tokens in query order
(repeats included) and sums their weights per document with one
``bincount``, which adds each document's weights in input order. A
document's score is therefore the sum of its weights for the query's
tokens taken in query order, and a stable sort keeps tied documents in
corpus order.
"""

from __future__ import annotations

import math
import unicodedata
from dataclasses import dataclass
from itertools import chain

import numpy as np


@dataclass(frozen=True)
class Bm25Params:
    """Okapi weighting parameters plus the floor applied to non-positive IDFs."""

    k1: float = 1.5
    b: float = 0.75
    idf_floor_epsilon: float = 0.25

    def __post_init__(self):
        if not 0 <= self.k1 < math.inf:
            raise ValueError(f"k1 must be >= 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")
        if not 0 <= self.idf_floor_epsilon < math.inf:
            raise ValueError(f"idf_floor_epsilon must be >= 0, got {self.idf_floor_epsilon}")


@dataclass(frozen=True)
class RetrievalConfig:
    """Number of examples to retrieve per query."""

    k: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


def _punctuation(text: str) -> str:
    """The distinct characters of ``text`` in a Unicode P* category: stripping
    them with ``str.strip`` strips every edge punctuation mark of its parts."""
    return "".join(c for c in set(text) if unicodedata.category(c).startswith("P"))


def tokenize(text: str) -> list[str]:
    """Lowercase, split on Unicode whitespace, strip edge punctuation.

    Adequate for whitespace-delimited scripts; unsegmented scripts (e.g.
    Chinese) collapse to near-whole-sentence tokens and retrieval quality
    degrades accordingly.
    """
    lowered = text.lower()
    punctuation = _punctuation(lowered)
    return [token for token in (part.strip(punctuation) for part in lowered.split()) if token]


@dataclass(eq=False)
class Bm25Index:
    """Immutable term statistics and postings for a fixed document collection.

    ``posting_weights`` holds each posting's BM25 contribution, ``idf * tf *
    (k1 + 1) / (tf + norm)`` with ``norm = k1 * (1 - b + b * len / avgdl)``,
    evaluated left to right, as ``TestIndexLayout`` pins it.
    """

    params: Bm25Params
    doc_ids: tuple[str, ...]
    doc_count: int
    avgdl: float
    idf: dict[str, float]
    postings: dict[str, tuple[int, int]]  # term -> slice of the posting_* arrays
    posting_docs: np.ndarray  # document positions, ascending within each term
    posting_weights: np.ndarray  # float64, parallel to posting_docs

    def describe(self) -> str:
        """Plain-text statistics dump for debugging."""
        lines = [
            f"documents: {self.doc_count}",
            f"avgdl: {self.avgdl:.4f}",
            f"vocabulary: {len(self.idf)}",
            f"k1={self.params.k1} b={self.params.b} epsilon={self.params.idf_floor_epsilon}",
        ]
        for term in sorted(self.idf):
            start, end = self.postings[term]
            lines.append(f"  {term}\tdf={end - start}\tidf={self.idf[term]:.6f}")
        return "\n".join(lines)


def build_index(corpus: list[tuple[str, str]], params: Bm25Params = Bm25Params()) -> Bm25Index:
    """Index ``(doc_id, text)`` pairs.

    Tokens are ``tokenize``'s, but each distinct whitespace-split part is
    stripped once for the whole corpus; terms are numbered in order of first
    appearance in the token stream, which is the order of ``idf`` and
    ``postings``. Lengths, document frequencies and the postings come from
    numpy passes over one term id per part, with no loop per document.

    Raw IDF is ``ln((N - n + 0.5) / (n + 0.5))``; any non-positive value is
    replaced by ``epsilon * mean(positive IDFs)`` so every term contributes a
    non-negative score. With no positive IDFs at all the floor is 0.
    """
    if not corpus:
        raise ValueError("cannot build an index over an empty corpus")
    doc_ids = tuple(doc_id for doc_id, _ in corpus)
    if len(set(doc_ids)) != len(doc_ids):
        raise ValueError("duplicate document ids in corpus")
    doc_count = len(corpus)

    split = [text.lower().split() for _, text in corpus]
    parts = list(chain.from_iterable(split))
    # Distinct parts in order of first appearance, so a term's id is its rank
    # of first appearance; -1 marks a part that strips to nothing.
    term_ids: dict[str, int] = {}
    part_terms: dict[str, int] = {}
    distinct = dict.fromkeys(parts)
    punctuation = _punctuation("".join(distinct))
    for part in distinct:
        token = part.strip(punctuation)
        part_terms[part] = term_ids.setdefault(token, len(term_ids)) if token else -1
    terms = np.fromiter(map(part_terms.__getitem__, parts), dtype=np.int64, count=len(parts))
    docs = np.repeat(np.arange(doc_count, dtype=np.int64), [len(doc_parts) for doc_parts in split])
    kept = terms >= 0
    terms, docs = terms[kept], docs[kept]
    if not terms.size:
        raise ValueError("cannot build an index over a corpus with no tokens")
    doc_lengths = np.bincount(docs, minlength=doc_count)
    avgdl = terms.size / doc_count

    # Term-major keys, so the sorted pairs are each term's postings back to
    # back with documents ascending.
    keys, freqs = np.unique(terms * doc_count + docs, return_counts=True)
    posting_terms, posting_docs = np.divmod(keys, doc_count)
    document_frequency = np.bincount(posting_terms, minlength=len(term_ids)).tolist()

    raw_idf = {
        term: math.log((doc_count - n + 0.5) / (n + 0.5))
        for term, n in zip(term_ids, document_frequency)
    }
    positive = [v for v in raw_idf.values() if v > 0]
    floor = params.idf_floor_epsilon * (sum(positive) / len(positive)) if positive else 0.0
    idf = {term: (v if v > 0 else floor) for term, v in raw_idf.items()}

    ends = np.cumsum(document_frequency).tolist()
    postings = {term: (end - n, end) for term, n, end in zip(term_ids, document_frequency, ends)}
    posting_docs = posting_docs.astype(np.intp, copy=False)
    k1, b = params.k1, params.b
    norms = k1 * (1.0 - b + b * doc_lengths / avgdl)
    idfs = np.repeat(np.fromiter(idf.values(), dtype=np.float64, count=len(idf)), document_frequency)
    tf = freqs.astype(np.float64)
    posting_weights = idfs * tf * (k1 + 1.0) / (tf + norms[posting_docs])

    return Bm25Index(
        params=params,
        doc_ids=doc_ids,
        doc_count=doc_count,
        avgdl=avgdl,
        idf=idf,
        postings=postings,
        posting_docs=posting_docs,
        posting_weights=posting_weights,
    )


def top_k(index: Bm25Index, query: str, config: RetrievalConfig) -> list[tuple[str, float]]:
    """The k best-scoring documents, descending; ties break by corpus position.

    Tokenizes the query once, concatenates the postings of its tokens in
    order (a repeated token's postings come again) and sums them per
    document with one ``bincount``, which adds a document's weights in input
    order; documents sharing no term keep 0. Only the documents scoring at
    least the k-th largest score are sorted; a stable sort on their negated
    scores keeps equal scores in corpus order.
    """
    if config.k > index.doc_count:
        raise ValueError(f"k={config.k} exceeds indexed document count {index.doc_count}")
    spans = [slice(*index.postings[token]) for token in tokenize(query) if token in index.postings]
    # The empty leading slices give a query with no indexed token all-zero scores.
    scores = np.bincount(
        np.concatenate([index.posting_docs[:0], *(index.posting_docs[span] for span in spans)]),
        np.concatenate([index.posting_weights[:0], *(index.posting_weights[span] for span in spans)]),
        minlength=index.doc_count,
    )
    kth = np.partition(scores, -config.k)[-config.k]
    candidates = np.flatnonzero(scores >= kth)
    order = candidates[np.argsort(-scores[candidates], kind="stable")[: config.k]]
    return [(index.doc_ids[i], float(scores[i])) for i in order]
