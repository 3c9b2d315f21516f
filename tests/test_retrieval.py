"""Tokenization, index statistics, scoring, and ranking."""

import math
import random

import pytest

from emoharness import Bm25Params, RetrievalConfig, build_index, tokenize, top_k
from oracles import ref_bm25_ranking, ref_bm25_scores, ref_tokenize

P = Bm25Params()


def all_scores(index, query):
    """Every document's ``top_k`` score, by document id."""
    return dict(top_k(index, query, RetrievalConfig(k=index.doc_count)))


def posting_sums(index, query):
    """Every document's sum of its posting weights for the query's
    ``ref_tokenize`` tokens, added in query order, in corpus order."""
    sums = [0.0] * index.doc_count
    for token in ref_tokenize(query):
        start, end = index.postings.get(token, (0, 0))
        for doc, weight in zip(index.posting_docs[start:end].tolist(), index.posting_weights[start:end].tolist()):
            sums[doc] += weight
    return sums


class TestTokenize:
    def test_lowercase_and_punctuation_strip(self):
        assert tokenize("What a Day!") == ["what", "a", "day"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   ") == []

    def test_german_sentence(self):
        assert tokenize("Ich liebe dich.") == ["ich", "liebe", "dich"]

    def test_interior_punctuation_kept(self):
        assert tokenize("don't stop") == ["don't", "stop"]

    def test_leading_and_trailing_punctuation(self):
        assert tokenize('"quoted", (parens)!') == ["quoted", "parens"]

    def test_pure_punctuation_token_dropped(self):
        assert tokenize("well -- yes") == ["well", "yes"]

    def test_unicode_whitespace_splits(self):
        assert tokenize("a b c") == ["a", "b", "c"]

    def test_equals_the_character_loop(self):
        # Letters that lowercase to two characters or by context, digits,
        # symbols (kept), punctuation of several scripts (stripped) and
        # several kinds of whitespace.
        pool = "aZß9İΣ$+©^`" + "!\"#%&'()*,-./:;?@[\\]_{}" + "¿¡«»„“”’—…·。「٪؟" + " \t\n\u00a0\u2003"
        rng = random.Random(3)
        for _ in range(2000):
            text = "".join(rng.choice(pool) for _ in range(rng.randint(0, 40)))
            assert tokenize(text) == ref_tokenize(text), text


class TestBuildIndex:
    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_index([], P)

    def test_corpus_without_tokens_rejected(self):
        # avgdl would be 0 and every length normaliser a division by zero.
        with pytest.raises(ValueError, match="no tokens"):
            build_index([("d1", "!!!"), ("d2", "-- ...")], P)

    def test_duplicate_doc_ids_rejected(self):
        with pytest.raises(ValueError):
            build_index([("d1", "a"), ("d1", "b")], P)

    def test_single_doc_avgdl(self):
        index = build_index([("d1", "one two three")], P)
        assert index.doc_count == 1
        assert index.avgdl == 3.0

    def test_idf_term_in_one_of_three_docs(self):
        # ln((3 - 1 + 0.5) / (1 + 0.5)) stays positive, so no floor applies.
        index = build_index([("d1", "apple"), ("d2", "pear"), ("d3", "plum")], P)
        expected = math.log(2.5 / 1.5)
        assert expected == pytest.approx(0.5108256237659907, abs=1e-12)
        assert index.idf["apple"] == pytest.approx(expected, abs=1e-12)

    def test_negative_idf_floored_to_epsilon_times_positive_mean(self):
        # "apple" sits in all three docs: ln(0.5/3.5) < 0. The other terms
        # are positive, so the floor is epsilon times their mean.
        corpus = [("d1", "apple banana"), ("d2", "apple cherry"), ("d3", "apple durian")]
        index = build_index(corpus, P)
        positive = math.log(2.5 / 1.5)
        floor = 0.25 * positive  # three identical positive idfs
        assert index.idf["apple"] == pytest.approx(floor, abs=1e-12)
        assert index.idf["banana"] == pytest.approx(positive, abs=1e-12)

    def test_floor_without_any_positive_idf_is_zero(self):
        # Every term occurs in exactly one of two docs, so every raw idf is
        # ln(1.5/1.5) = 0. With no positive idfs the floor degenerates to 0
        # and every score is 0; ranking still works via the position tie rule.
        index = build_index([("d1", "red fish"), ("d2", "blue bird")], P)
        assert all(v == 0.0 for v in index.idf.values())
        assert top_k(index, "red", RetrievalConfig(k=2)) == [("d1", 0.0), ("d2", 0.0)]

    def test_document_frequency_bounds(self):
        rng = random.Random(0)
        corpus = [(f"d{i}", " ".join(rng.choice("abcde") for _ in range(6))) for i in range(20)]
        index = build_index(corpus, P)
        assert all(1 <= end - start <= index.doc_count for start, end in index.postings.values())

    def test_params_validation(self):
        with pytest.raises(ValueError):
            Bm25Params(k1=-0.1)
        with pytest.raises(ValueError):
            Bm25Params(b=1.5)
        with pytest.raises(ValueError):
            Bm25Params(idf_floor_epsilon=-1.0)
        with pytest.raises(ValueError):
            RetrievalConfig(k=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=str)
    @pytest.mark.parametrize("key", ["k1", "idf_floor_epsilon"])
    def test_params_must_be_finite(self, key, value):
        with pytest.raises(ValueError, match=key):
            Bm25Params(**{key: value})


class TestScore:
    """BM25's properties, on every document's score from ``top_k``."""

    def test_no_shared_terms_scores_zero(self):
        index = build_index([("d1", "red fish"), ("d2", "blue bird")], P)
        assert all_scores(index, "elephant piano")["d1"] == 0.0

    def test_five_doc_corpus_matches_brute_force(self):
        corpus = [
            ("d0", "the cat sat on the mat"),
            ("d1", "a dog chased the cat"),
            ("d2", "birds fly over the mat"),
            ("d3", "the the the cat cat"),
            ("d4", "nothing in common here"),
        ]
        index = build_index(corpus, P)
        query = "the cat mat"
        expected = ref_bm25_scores(
            [tokenize(text) for _, text in corpus], tokenize(query), P.k1, P.b, P.idf_floor_epsilon
        )
        got = all_scores(index, query)
        for (doc_id, _), want in zip(corpus, expected):
            assert got[doc_id] == pytest.approx(want, abs=1e-9)

    def test_additive_over_query_terms(self):
        rng = random.Random(5)
        corpus = [(f"d{i}", " ".join(rng.choice("uvwxyz") for _ in range(8))) for i in range(10)]
        index = build_index(corpus, P)
        q1, q2 = "u v w", "x y"
        total, first, second = (all_scores(index, q) for q in (f"{q1} {q2}", q1, q2))
        for doc_id, _ in corpus:
            assert total[doc_id] == pytest.approx(first[doc_id] + second[doc_id], abs=1e-12)

    def test_repeated_query_term_counts_twice(self):
        index = build_index([("d1", "apple pie"), ("d2", "plain bread"), ("d3", "apple tart")], P)
        assert all_scores(index, "apple apple")["d1"] == pytest.approx(2 * all_scores(index, "apple")["d1"], abs=1e-12)

    def test_b_zero_removes_length_effect(self):
        params = Bm25Params(b=0.0)
        index = build_index(
            [("short", "apple pie"), ("long", "apple " + "filler " * 20)], params
        )
        scores = all_scores(index, "apple")
        assert scores["short"] == pytest.approx(scores["long"], abs=1e-12)


class TestTopK:
    def test_k_equals_n_is_permutation(self):
        corpus = [("a", "one"), ("b", "two"), ("c", "three")]
        index = build_index(corpus, P)
        result = top_k(index, "one three", RetrievalConfig(k=3))
        assert sorted(doc_id for doc_id, _ in result) == ["a", "b", "c"]

    def test_identical_documents_tie_breaks_to_earlier(self):
        index = build_index([("first", "same text"), ("second", "same text")], P)
        result = top_k(index, "same", RetrievalConfig(k=2))
        assert [doc_id for doc_id, _ in result] == ["first", "second"]

    def test_k_above_doc_count_rejected(self):
        index = build_index([("d1", "x")], P)
        with pytest.raises(ValueError):
            top_k(index, "x", RetrievalConfig(k=2))

    def test_exactly_k_results_sorted_descending(self):
        rng = random.Random(6)
        corpus = [(f"d{i}", " ".join(rng.choice("abcdef") for _ in range(10))) for i in range(30)]
        index = build_index(corpus, P)
        result = top_k(index, "a b c", RetrievalConfig(k=7))
        assert len(result) == 7
        scores = [s for _, s in result]
        assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize(
        "query, duplicate_texts",
        [
            pytest.param("alpha gamma theta", False, id="plain"),
            pytest.param("alpha alpha gamma", False, id="repeated-token"),
            pytest.param("alpha omega theta", False, id="out-of-vocabulary"),
            pytest.param("!!! -- ...", False, id="punctuation-only"),
            pytest.param("alpha gamma theta", True, id="duplicate-texts"),
        ],
    )
    def test_random_corpus_matches_full_sort_oracle(self, query, duplicate_texts):
        rng = random.Random(7)
        words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
        texts = [" ".join(rng.choice(words) for _ in range(rng.randint(1, 12))) for _ in range(200)]
        if duplicate_texts:
            texts = [texts[i % 40] for i in range(200)]  # every text five times: exact ties
        corpus = [(f"d{i:03d}", text) for i, text in enumerate(texts)]
        index = build_index(corpus, P)
        scores = ref_bm25_scores(
            [tokenize(text) for _, text in corpus], tokenize(query), P.k1, P.b, P.idf_floor_epsilon
        )
        want_ids = [corpus[i][0] for i in ref_bm25_ranking(scores, 5)]
        got_ids = [doc_id for doc_id, _ in top_k(index, query, RetrievalConfig(k=5))]
        assert got_ids == want_ids

        # Exact equality, not a tolerance: a different accumulation order
        # could reorder near-ties and change few-shot prompts.
        full = top_k(index, query, RetrievalConfig(k=index.doc_count))
        assert [doc_id for doc_id, _ in full] == [
            corpus[i][0] for i in ref_bm25_ranking(scores, index.doc_count)
        ]
        assert dict(full) == dict(zip(index.doc_ids, posting_sums(index, query)))

    def test_describe_mentions_core_statistics(self):
        index = build_index([("d1", "red fish"), ("d2", "blue bird")], P)
        text = index.describe()
        assert "2" in text and "avgdl" in text


class TestTopKPartition:
    """``top_k`` sorts only the documents at or above the k-th largest score;
    the result must equal a stable sort of every document."""

    # Reposts give exact ties, so for most k the tie spans the k-th place.
    CORPUS = [(f"d{i}", text) for i, text in enumerate(["red fish", "red", "blue red", "red"] * 3 + ["green"])]

    def full_sort(self, index, query, k):
        sums = posting_sums(index, query)
        ranked = sorted(range(len(self.CORPUS)), key=lambda i: (-sums[i], i))
        return [(self.CORPUS[i][0], sums[i]) for i in ranked[:k]]

    @pytest.mark.parametrize("query", ["red", "red fish", "purple"], ids=["ties", "mixed", "all-zero"])
    def test_every_k_equals_the_full_stable_sort(self, query):
        index = build_index(self.CORPUS, P)
        for k in range(1, index.doc_count + 1):
            assert top_k(index, query, RetrievalConfig(k=k)) == self.full_sort(index, query, k)

    def test_the_cases_occur(self):
        index = build_index(self.CORPUS, P)
        ranked = [s for _, s in self.full_sort(index, "red", index.doc_count)]
        assert ranked[1] == ranked[2] and ranked[0] != ranked[-1]  # a tie straddles k=2
        assert {s for _, s in self.full_sort(index, "purple", index.doc_count)} == {0.0}


def zipf_corpus(rng: random.Random, n_docs: int) -> list[tuple[str, str]]:
    """Zipf-worded texts whose words come cased and punctuated several ways,
    with parts that strip to nothing and every fifth text a repost."""
    words = [f"w{rank}" for rank in range(150)]
    weights = [1.0 / (rank + 1) for rank in range(150)]
    spellings = [
        lambda w: w,
        str.upper,
        str.capitalize,
        lambda w: w + ",",
        lambda w: f"({w})",
        lambda w: f"\u00bf{w}?",
        lambda w: f'"{w}".',
    ]
    texts: list[str] = []
    for _ in range(n_docs):
        if texts and rng.random() < 0.2:
            texts.append(rng.choice(texts))
            continue
        parts = [rng.choice(spellings)(w) for w in rng.choices(words, weights, k=rng.randint(1, 30))]
        for _ in range(rng.randint(0, 2)):
            parts.insert(rng.randrange(len(parts) + 1), rng.choice(["--", "...", "!!!", "\u2014"]))
        texts.append(" ".join(parts))
    return [(f"d{i:03d}", text) for i, text in enumerate(texts)]


class TestTopKEqualsScore:
    """``top_k`` sums posting weights with one ``bincount``; for every
    document it must give the float of adding them one by one in query
    order, which ``TestIndexLayout`` pins to the BM25 formula."""

    CORPUS = zipf_corpus(random.Random(11), 300)
    QUERIES = [
        "W0 w1, (w2) w3",
        "w0 w0 W0 w7 w7",
        "w5 oov-1 w9 never-seen w5",
        "oov-1 oov-2",
        "!!! -- w149",
        CORPUS[0][1],
    ]

    @pytest.mark.parametrize("k1", [0.0, 1.5])
    @pytest.mark.parametrize("b", [0.0, 0.75, 1.0])
    def test_full_ranking_equals_score_for_every_document(self, k1, b):
        index = build_index(self.CORPUS, Bm25Params(k1=k1, b=b))
        for query in self.QUERIES:
            full = top_k(index, query, RetrievalConfig(k=index.doc_count))
            got = dict(full)
            assert len(got) == index.doc_count
            sums = posting_sums(index, query)
            assert got == {doc_id: sums[i] for i, (doc_id, _) in enumerate(self.CORPUS)}
            # Descending, ties in corpus order.
            ranked = sorted(range(len(sums)), key=lambda i: (-sums[i], i))
            assert [doc_id for doc_id, _ in full] == [self.CORPUS[i][0] for i in ranked]

    def test_corpus_has_the_cases_it_is_built_for(self):
        texts = [text for _, text in self.CORPUS]
        assert len(set(texts)) < len(texts)  # reposts
        parts = {part for text in texts for part in text.split()}
        assert {"--", "...", "!!!", "\u2014"} & parts  # parts that strip to nothing
        assert {"w0", "W0", "(w0)"} <= parts  # one word, several spellings


class TestIndexLayout:
    """The index's exact layout. The order of ``idf`` is the order in which
    the IDF floor sums the positive values, so a change of term order can
    change the floor's last bit, and with it rankings and prompts."""

    CORPUS = zipf_corpus(random.Random(13), 400)

    @pytest.mark.parametrize("params", [P, Bm25Params(k1=1.2, b=0.5, idf_floor_epsilon=0.3)], ids=["default", "other"])
    def test_terms_postings_floor_and_weights(self, params):
        index = build_index(self.CORPUS, params)
        documents = [ref_tokenize(text) for _, text in self.CORPUS]
        n = len(documents)

        # Terms in order of first appearance in the token stream.
        terms = list(dict.fromkeys(token for tokens in documents for token in tokens))
        assert list(index.idf) == terms
        assert list(index.postings) == terms

        # Each term's documents ascending, the terms' slices back to back.
        end = 0
        for term in terms:
            start, stop = index.postings[term]
            assert start == end
            assert index.posting_docs[start:stop].tolist() == [d for d, tokens in enumerate(documents) if term in tokens]
            end = stop
        assert end == len(index.posting_docs) == len(index.posting_weights)

        # The floor sums the positive raw IDFs in term order.
        raw = [math.log((n - (stop - start) + 0.5) / ((stop - start) + 0.5)) for start, stop in index.postings.values()]
        positive = [v for v in raw if v > 0]
        assert len(positive) < len(raw)  # some terms are floored
        floor = params.idf_floor_epsilon * (sum(positive) / len(positive))
        assert list(index.idf.values()) == [v if v > 0 else floor for v in raw]

        # Each weight is idf * tf * (k1 + 1) / (tf + norm), left to right.
        avgdl = sum(map(len, documents)) / n
        assert index.avgdl == avgdl
        for term in terms:
            start, stop = index.postings[term]
            for doc, weight in zip(index.posting_docs[start:stop].tolist(), index.posting_weights[start:stop].tolist()):
                freq = documents[doc].count(term)
                norm = params.k1 * (1.0 - params.b + params.b * len(documents[doc]) / avgdl)
                assert weight == index.idf[term] * freq * (params.k1 + 1.0) / (freq + norm)
