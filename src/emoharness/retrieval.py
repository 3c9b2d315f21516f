"""Okapi BM25 index over training snippets for few-shot example retrieval.

``build_index`` stores an inverted index in flat CSR form: one array of
document positions holds every term's postings back to back (ascending
within a term), a parallel array ``posting_weights`` holds each posting's
BM25 contribution ``idf * tf * (k1 + 1) / (tf + norm)``, and ``postings``
maps each term to its ``(start, end)`` slice. Each weight is computed with
the IEEE operations, in the order, that ``score`` uses for one query token
in one document, so it is the very float ``score`` adds.

``top_k`` scores term at a time, as Lucene and Pyserini do: it tokenizes
the query once and, for each query token in order (repeats included), adds
that term's weights to an accumulator over the documents in its postings
only. Each document's sum is then ``score``'s sum, term for term and in
the same order, so the two agree bit for bit, and a stable sort keeps tied
documents in corpus order.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter, defaultdict
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


def _strip_punctuation(token: str) -> str:
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


def tokenize(text: str) -> list[str]:
    """Lowercase, split on Unicode whitespace, strip edge punctuation.

    Adequate for whitespace-delimited scripts; unsegmented scripts (e.g.
    Chinese) collapse to near-whole-sentence tokens and retrieval quality
    degrades accordingly.
    """
    return _tokenize(text, {})


def _tokenize(text: str, stripped: dict[str, str]) -> list[str]:
    """``tokenize``, reusing and filling ``stripped``, a map from each
    whitespace-split part to its stripped form. ``build_index`` passes one
    map for its whole corpus, so each distinct part is stripped once."""
    tokens = []
    for part in text.lower().split():
        token = stripped.get(part)
        if token is None:
            token = stripped[part] = _strip_punctuation(part)
        if token:
            tokens.append(token)
    return tokens


@dataclass(eq=False)
class Bm25Index:
    """Immutable term statistics and postings for a fixed document collection."""

    params: Bm25Params
    doc_ids: tuple[str, ...]
    doc_count: int
    avgdl: float
    term_frequencies: tuple[dict[str, int], ...]
    idf: dict[str, float]
    postings: dict[str, tuple[int, int]]  # term -> slice of posting_docs/posting_weights
    posting_docs: np.ndarray  # document positions, ascending within each term
    # float64 BM25 contribution of each posting, idf * tf * (k1 + 1) / (tf + norm)
    # with norm = k1 * (1 - b + b * len / avgdl): the operations, in the order,
    # that ``score`` performs per token, so a sum of these equals its total.
    posting_weights: np.ndarray

    def __post_init__(self):
        self._positions = {doc_id: i for i, doc_id in enumerate(self.doc_ids)}

    def position(self, doc_id: str) -> int:
        return self._positions[doc_id]  # KeyError for unknown ids

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

    Raw IDF is ``ln((N - n + 0.5) / (n + 0.5))``; any non-positive value is
    replaced by ``epsilon * mean(positive IDFs)`` so every term contributes a
    non-negative score. With no positive IDFs at all the floor is 0.
    """
    if not corpus:
        raise ValueError("cannot build an index over an empty corpus")
    doc_ids = tuple(doc_id for doc_id, _ in corpus)
    if len(set(doc_ids)) != len(doc_ids):
        raise ValueError("duplicate document ids in corpus")

    stripped: dict[str, str] = {}
    term_frequencies = tuple(Counter(_tokenize(text, stripped)) for _, text in corpus)
    doc_lengths = tuple(sum(tf.values()) for tf in term_frequencies)
    doc_count = len(corpus)
    if not any(doc_lengths):
        raise ValueError("cannot build an index over a corpus with no tokens")
    avgdl = sum(doc_lengths) / doc_count

    # Each term's postings as one flat list of (position, freq) pairs, in
    # ascending position; terms in order of first appearance.
    postings_by_term: defaultdict[str, list[int]] = defaultdict(list)
    for position, tf in enumerate(term_frequencies):
        for term, freq in tf.items():
            postings_by_term[term] += (position, freq)
    document_frequency = {term: len(pairs) // 2 for term, pairs in postings_by_term.items()}

    raw_idf = {
        term: math.log((doc_count - n + 0.5) / (n + 0.5))
        for term, n in document_frequency.items()
    }
    positive = [v for v in raw_idf.values() if v > 0]
    floor = params.idf_floor_epsilon * (sum(positive) / len(positive)) if positive else 0.0
    idf = {term: (v if v > 0 else floor) for term, v in raw_idf.items()}

    postings: dict[str, tuple[int, int]] = {}
    end = 0
    for term, n in document_frequency.items():
        postings[term] = (end, end + n)
        end += n
    pairs = np.fromiter(chain.from_iterable(postings_by_term.values()), dtype=np.intp, count=2 * end)
    posting_docs = np.ascontiguousarray(pairs[0::2])
    freqs = pairs[1::2].astype(np.float64)
    k1, b = params.k1, params.b
    norms = np.array([k1 * (1.0 - b + b * length / avgdl) for length in doc_lengths], dtype=np.float64)
    idfs = np.repeat(
        np.fromiter(idf.values(), dtype=np.float64, count=len(idf)), list(document_frequency.values())
    )
    # ``score``'s ``idf * freq * (k1 + 1.0) / (freq + norm)``, left to right.
    posting_weights = idfs * freqs * (k1 + 1.0) / (freqs + norms[posting_docs])

    return Bm25Index(
        params=params,
        doc_ids=doc_ids,
        doc_count=doc_count,
        avgdl=avgdl,
        term_frequencies=term_frequencies,
        idf=idf,
        postings=postings,
        posting_docs=posting_docs,
        posting_weights=posting_weights,
    )


def score(index: Bm25Index, query: str, doc_id: str) -> float:
    """Okapi BM25 score of one document against a query.

    Additive over query tokens (a repeated token counts twice); tokens
    absent from the document or the vocabulary contribute 0. This is the
    single-document reference that ``top_k`` reproduces exactly.
    """
    position = index.position(doc_id)
    tf = index.term_frequencies[position]
    params = index.params
    norm = params.k1 * (1.0 - params.b + params.b * sum(tf.values()) / index.avgdl)
    total = 0.0
    for token in tokenize(query):
        freq = tf.get(token)
        if not freq:
            continue
        total += index.idf[token] * freq * (params.k1 + 1.0) / (freq + norm)
    return total


def top_k(index: Bm25Index, query: str, config: RetrievalConfig) -> list[tuple[str, float]]:
    """The k best-scoring documents, descending; ties break by corpus position.

    Tokenizes the query once, then for each token in order (a repeated
    token is added again) adds that term's ``posting_weights`` to the
    documents in its postings only; documents sharing no term keep 0. Each
    weight is the float ``score`` computes for that token and document, and
    the additions run in ``score``'s order, so scores equal it exactly. Only
    the documents scoring at least the k-th largest score are sorted; a
    stable sort on their negated scores keeps equal scores in corpus order.
    """
    if config.k > index.doc_count:
        raise ValueError(f"k={config.k} exceeds indexed document count {index.doc_count}")
    scores = np.zeros(index.doc_count)
    for token in tokenize(query):
        span = index.postings.get(token)
        if span is None:
            continue
        start, end = span
        scores[index.posting_docs[start:end]] += index.posting_weights[start:end]
    kth = np.partition(scores, -config.k)[-config.k]
    candidates = np.flatnonzero(scores >= kth)
    order = candidates[np.argsort(-scores[candidates], kind="stable")[: config.k]]
    return [(index.doc_ids[i], float(scores[i])) for i in order]
