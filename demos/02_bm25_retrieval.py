#!/usr/bin/env python3
"""
Ranking training snippets with Okapi BM25
=========================================

Few-shot prompts need example snippets that resemble the query text.
The retrieval layer builds an inverted index over the training split and
ranks documents with BM25 (k1=1.5, b=0.75): the index, built in a few
whole-corpus numpy passes, stores each posting's contribution
idf * tf * (k1 + 1) / (tf + norm). A query is tokenized once, its terms'
postings are concatenated in query order, and one `bincount` sums each
document's contributions in that order. Terms whose raw IDF would be
zero or negative are floored to a fraction of the mean positive IDF so
very common words still contribute a little instead of flipping sign.
"""

from pathlib import Path

from emoharness import (
    Bm25Params,
    ColumnSchema,
    EmotionSet,
    RetrievalConfig,
    build_index,
    load_dataset,
    tokenize,
    top_k,
)

DATA = Path(__file__).parent / "data"

emotion_set = EmotionSet.for_language("eng")
snippets = load_dataset(DATA / "eng_train.csv", ColumnSchema(), emotion_set, track="A")

corpus = [(s.id, s.text) for s in snippets]
index = build_index(corpus, Bm25Params())
print(index.describe())

query = "joy after the morning surprise"
print(f"\nquery: {query!r}")
print("tokens:", tokenize(query))

print(f"\n{'rank':<5} {'doc':<6} {'score':>8}  text")
for rank, (doc_id, value) in enumerate(top_k(index, query, RetrievalConfig(k=3)), start=1):
    text = next(s.text for s in snippets if s.id == doc_id)
    print(f"{rank:<5} {doc_id:<6} {value:>8.4f}  {text}")

# Scores are additive over query terms, so a one-word query isolates the
# contribution of that word; k equal to the corpus size scores every document.
print("\nper-document score for the single term 'sadness':")
scores = dict(top_k(index, "sadness", RetrievalConfig(k=index.doc_count)))
for doc_id, _ in corpus:
    if scores[doc_id]:
        print(f"  {doc_id}: {scores[doc_id]:.4f}")
