"""Acceptance gate: one test per release criterion, one PASS/FAIL line each."""

import functools
import itertools
import json
import random
import threading
import time
from collections import Counter
from contextlib import contextmanager

import pytest
import yaml

import emoharness.runner
from emoharness import (
    Bm25Params,
    CompletionClient,
    EmotionSet,
    GoldLookupMock,
    KeywordMock,
    LabelVector,
    PredictionRecord,
    RetrievalConfig,
    RunStageError,
    Snippet,
    TaskInstance,
    TransportError,
    aggregate,
    build_index,
    explode,
    macro_f1,
    marginalise,
    mean_pearson_r,
    oversample,
    render_zero_shot,
    run,
    top_k,
    validate_config,
)
from emoharness.prompting import extract_query
from conftest import record_acceptance
from datagen import make_corpus, make_snippets, random_text, random_vectors, write_csv
from oracles import ref_bm25_ranking, ref_bm25_scores, ref_macro_f1, ref_mean_pearson

SIX = EmotionSet.for_language("deu")


@contextmanager
def criterion(name):
    info = {}
    try:
        yield info
    except BaseException:
        record_acceptance(name, False)
        raise
    record_acceptance(name, True, info.get("detail", ""))


def test_metric_oracle_equivalence():
    with criterion("metric-oracle-equivalence") as info:
        rng = random.Random(101)
        ids = [f"s{i:03d}" for i in range(50)]
        worst = 0.0
        started = time.perf_counter()
        for _ in range(1000):
            gold_a = random_vectors(rng, ids, SIX.emotions, "A")
            pred_a = random_vectors(rng, ids, SIX.emotions, "A")
            got = macro_f1(gold_a, pred_a).average
            want = ref_macro_f1(
                {v.snippet_id: v.values for v in gold_a},
                {v.snippet_id: v.values for v in pred_a},
                SIX.emotions,
            )
            worst = max(worst, abs(got - want))

            gold_b = random_vectors(rng, ids, SIX.emotions, "B")
            pred_b = random_vectors(rng, ids, SIX.emotions, "B")
            got = mean_pearson_r(gold_b, pred_b).average
            want = ref_mean_pearson(
                {v.snippet_id: v.values for v in gold_b},
                {v.snippet_id: v.values for v in pred_b},
                SIX.emotions,
            )
            worst = max(worst, abs(got - want))
        elapsed = time.perf_counter() - started
        assert worst <= 1e-9, f"worst metric deviation {worst}"
        assert elapsed < 10.0, f"took {elapsed:.2f}s"
        info["detail"] = f"1000 fixtures, worst |delta| {worst:.2e}, {elapsed:.2f}s"


def test_bm25_oracle_equivalence():
    with criterion("bm25-oracle-equivalence") as info:
        rng = random.Random(202)
        worst = 0.0
        for _ in range(100):
            corpus = make_corpus(rng, rng.randint(5, 200))
            tokens = [doc.split() for _, doc in corpus]
            query = " ".join(rng.choice(tokens[0]) for _ in range(rng.randint(1, 6)))
            index = build_index(corpus)
            ref_scores = ref_bm25_scores(tokens, query.split(), 1.5, 0.75, 0.25)
            got_scores = dict(top_k(index, query, RetrievalConfig(k=len(corpus))))
            for (doc_id, _), want in zip(corpus, ref_scores):
                worst = max(worst, abs(got_scores[doc_id] - want))
            for k in (1, 3, 5):
                if k > len(corpus):
                    continue
                got = [doc_id for doc_id, _ in top_k(index, query, RetrievalConfig(k=k))]
                want_ids = [corpus[i][0] for i in ref_bm25_ranking(ref_scores, k)]
                assert got == want_ids
        assert worst <= 1e-9, f"worst score deviation {worst}"
        info["detail"] = f"100 corpora, k in (1,3,5), worst |delta| {worst:.2e}"


def test_marginalisation_law():
    with criterion("marginalisation-law") as info:
        started = time.perf_counter()
        for combo in itertools.product(range(4), repeat=6):
            values = dict(zip(SIX.emotions, combo))
            flat = marginalise(LabelVector("x", values, "B"))
            assert flat.track == "A"
            for emotion, raw in values.items():
                assert flat.values[emotion] == (1 if raw >= 1 else 0)
            again = marginalise(LabelVector("x", dict(flat.values), "B"))
            assert again.values == flat.values  # idempotent
            for emotion, raw in values.items():
                if raw < 3:
                    bumped = dict(values, **{emotion: raw + 1})
                    higher = marginalise(LabelVector("x", bumped, "B"))
                    assert all(
                        higher.values[e] >= flat.values[e] for e in SIX.emotions
                    )  # monotone in every coordinate
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        info["detail"] = f"4^6 vectors exhaustive, {elapsed:.2f}s"


def test_explosion_aggregation_round_trip():
    with criterion("explosion-aggregation-round-trip") as info:
        rng = random.Random(303)
        for track in ("A", "B"):
            snippets = make_snippets(rng, 500, SIX, track)
            instances = explode(snippets, SIX, track)
            assert len(instances) == 500 * len(SIX.emotions)
            records = [
                PredictionRecord(i.snippet_id, i.emotion, track, str(i.gold), i.gold)
                for i in instances
            ]
            vectors = aggregate(records, SIX)
            assert len(vectors) == 500
            by_id = {v.snippet_id: v for v in vectors}
            for snippet in snippets:
                assert by_id[snippet.id].values == snippet.labels
                assert by_id[snippet.id].track == track
        info["detail"] = "500 snippets per track, labels recovered exactly"


def test_prompt_fidelity(golden_dir=None):
    with criterion("prompt-fidelity") as info:
        from pathlib import Path

        golden_dir = Path(__file__).parent / "fixtures" / "golden_prompts"
        cases = [
            ("eng_track_a.txt", "track_a", "I finally passed my exam!", "English", "joy", "eng"),
            ("eng_track_b.txt", "track_b", "I can't stop crying.", "English", "sadness", "eng"),
            ("deu_track_a.txt", "track_a", "Ich habe so eine Wut auf dich.", "German", "anger", "deu"),
            ("deu_track_b.txt", "track_b", "Das macht mir große Angst.", "German", "fear", "deu"),
            ("chn_track_a.txt", "track_a", "今天的天气真是太好了！", "Chinese", "joy", "chn"),
            ("chn_track_b.txt", "track_b", "我真的气坏了。", "Chinese", "anger", "chn"),
        ]
        for filename, template_id, text, language, emotion, code in cases:
            rendered = render_zero_shot(
                template_id, text, language, emotion,
                emotion_set=EmotionSet.for_language(code),
            )
            golden = (golden_dir / filename).read_bytes()
            assert rendered.encode("utf-8") == golden, filename
        info["detail"] = "6 golden renderings byte-identical"


def test_oversampling_balance():
    with criterion("oversampling-balance") as info:
        rng = random.Random(404)
        for i in range(100):
            rate = rng.uniform(0.05, 0.45)
            snippets = make_snippets(rng, rng.randint(12, 40), SIX, "A", positive_rate=rate)
            # Guarantee both classes per emotion so parity is achievable.
            for j, emotion in enumerate(SIX.emotions):
                snippets[2 * j].labels[emotion] = 1
                snippets[2 * j + 1].labels[emotion] = 0
            instances = explode(snippets, SIX, "A")
            balanced = oversample(instances, seed=i)
            for emotion in SIX.emotions:
                positives = sum(
                    1 for x in balanced if x.emotion == emotion and x.gold == 1
                )
                negatives = sum(
                    1 for x in balanced if x.emotion == emotion and x.gold == 0
                )
                assert positives == negatives, emotion

            key = lambda x: (x.snippet_id, x.emotion, x.gold)
            original_keys = [key(x) for x in instances]
            balanced_keys = [key(x) for x in balanced]
            for wanted in original_keys:  # originals all survive
                assert balanced_keys.count(wanted) >= original_keys.count(wanted)
            rerun = oversample(instances, seed=i)
            assert [key(x) for x in rerun] == balanced_keys  # seed-deterministic
        info["detail"] = "100 datasets balanced, originals kept, reruns identical"


def _run_twice(tmp_path, tag, raw):
    manifests = []
    for attempt in ("x", "y"):
        config = dict(raw, output_dir=str(tmp_path / f"{tag}_{attempt}"))
        manifests.append(run(validate_config(config)))
    return manifests


def test_end_to_end_determinism(tmp_path):
    with criterion("end-to-end-determinism") as info:
        rng = random.Random(505)
        test_csv = write_csv(tmp_path / "test.csv", make_snippets(rng, 50, SIX, "A"), SIX)
        train_csv = write_csv(
            tmp_path / "train.csv", make_snippets(rng, 20, SIX, "A", prefix="t"), SIX
        )
        base = {
            "language": "deu",
            "seed": 13,
            "mock": "keyword",
            "dataset": {"test": str(test_csv)},
        }
        variants = {
            "a_zero": dict(base, track="A", strategy="zero_shot"),
            "a_few": dict(
                base,
                track="A",
                strategy="few_shot",
                retrieval={"k": 1},
                dataset={"test": str(test_csv), "train": str(train_csv)},
            ),
            # 0/1 gold is inside the 0..3 range, so the same file serves track B.
            "b_zero": dict(base, track="B", strategy="zero_shot"),
            "marg": dict(base, track="A", strategy="marginalise_from_b"),
        }
        started = time.perf_counter()
        for tag, raw in variants.items():
            first, second = _run_twice(tmp_path, tag, raw)
            assert first.artifacts == second.artifacts, tag
            assert first.counts == second.counts, tag
            assert first.counts["instances"] == 50 * 6, tag
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"took {elapsed:.2f}s"
        info["detail"] = f"4 strategies x 2 runs, identical hashes, {elapsed:.2f}s"


def test_marginalisation_consistency(tmp_path):
    with criterion("marginalisation-consistency") as info:
        rng = random.Random(606)
        snippets = []
        b_instances = []
        for i in range(12):
            text = f"{random_text(rng)} uniq{i}"
            labels_a = {e: rng.randint(0, 1) for e in SIX.emotions}
            labels_a["fear"] = 0  # keep one emotion entirely absent
            snippet = Snippet(f"s{i:02d}", text, "deu", labels_a)
            snippets.append(snippet)
            for emotion in SIX.emotions:
                gold_b = 0 if emotion == "fear" else rng.randint(0, 3)
                b_instances.append(
                    TaskInstance(snippet.id, text, "deu", emotion, gold_b, "B")
                )

        csv_path = write_csv(tmp_path / "gold.csv", snippets, SIX)
        config = validate_config({
            "track": "A",
            "language": "deu",
            "strategy": "marginalise_from_b",
            "seed": 5,
            "output_dir": str(tmp_path / "out"),
            "dataset": {"test": str(csv_path)},
            "mock": "always-0",
        })
        run(config, mock=GoldLookupMock.from_instances(b_instances))
        report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))

        gold_a = [LabelVector(s.id, dict(s.labels), "A") for s in snippets]
        by_snippet = {s.id: {} for s in snippets}
        for inst in b_instances:
            by_snippet[inst.snippet_id][inst.emotion] = inst.gold
        collapsed = [
            marginalise(LabelVector(sid, values, "B"))
            for sid, values in by_snippet.items()
        ]
        expected = macro_f1(gold_a, collapsed)
        assert report["average"] == expected.average  # exact, no tolerance
        assert report["per_emotion"] == expected.per_emotion
        assert report["per_emotion"]["fear"] == 0.0
        info["detail"] = "pipeline F1 equals oracle composition exactly"


#: The ways a flaky endpoint fails one attempt; "timeout" raises, as the
#: default transport does when a socket times out.
FAILURES = {
    "http-503": (503, "Service Unavailable"),
    "http-429": (429, "Too Many Requests"),
    "timeout": None,
    "not-json": (200, "<html>bad gateway</html>"),
    "no-choices": (200, '{"error": "overloaded"}'),
}


class FlakyTransport:
    """An endpoint transport that fails each distinct prompt a seeded 0-3
    times, each time in a seeded one of ``FAILURES``, then answers with the
    keyword mock's rule. A ``doomed`` (text, emotion) fails four times, every
    attempt the default ``max_retries: 3`` allows. Failures depend on the
    prompt and the attempt, not on thread timing."""

    def __init__(self, seed, doomed=None):
        self.seed = seed
        self.doomed = doomed
        self.keyword = KeywordMock()
        self.lock = threading.Lock()
        self.calls = Counter()
        self.injected = Counter()

    def failures(self, prompt):
        text, emotion, _ = extract_query(prompt)
        if (text, emotion) == self.doomed:
            return 4
        return random.Random(f"{self.seed}:{prompt}").randint(0, 3)

    def __call__(self, url, payload, headers, timeout):
        prompt = payload["messages"][0]["content"]
        with self.lock:
            self.calls[prompt] += 1
            attempt = self.calls[prompt]
        if attempt > self.failures(prompt):
            answer = self.keyword.respond(prompt)
            return 200, json.dumps({"choices": [{"message": {"content": answer}}]})
        kind = random.Random(f"{self.seed}:{attempt}:{prompt}").choice(sorted(FAILURES))
        with self.lock:
            self.injected[kind] += 1
        if FAILURES[kind] is None:
            raise TransportError(f"request to {url} failed: timed out")
        return FAILURES[kind]


def _flaky_run(monkeypatch, raw, transport):
    """Run ``raw`` against ``transport``; returns the manifest and the sleeps
    the client asked for, none of which is slept."""
    sleeps = []
    client = functools.partial(CompletionClient, transport=transport, sleep=sleeps.append)
    with monkeypatch.context() as patch:
        patch.setattr(emoharness.runner, "CompletionClient", client)
        return run(validate_config(raw)), sleeps


ARTIFACTS = ("predictions.jsonl", "aggregated.jsonl", "report.json", "report.txt")


def test_flaky_endpoint(tmp_path, monkeypatch):
    with criterion("flaky-endpoint") as info:
        es = EmotionSet.for_language("eng")
        snippets = make_snippets(random.Random(707), 40, es, "A")
        # Repeated texts render repeated prompts, which a temperature-0 run sends once.
        snippets += [Snippet(f"{s.id}-again", s.text, s.language, s.labels) for s in snippets[:5]]
        test_csv = write_csv(tmp_path / "test.csv", snippets, es)
        base = {"track": "A", "language": "eng", "strategy": "zero_shot", "seed": 17, "dataset": {"test": str(test_csv)}}
        run(validate_config(dict(base, output_dir=str(tmp_path / "clean"), mock="keyword")))
        clean = {name: (tmp_path / "clean" / name).read_bytes() for name in ARTIFACTS}
        # The prompts in the order a single worker sends them.
        distinct = list(dict.fromkeys(
            render_zero_shot("track_a", s.text, "English", emotion, es) for s in snippets for emotion in es
        ))

        injected = []
        for limit in (1, 4):
            transport = FlakyTransport(seed=limit)
            endpoint = {"base_url": "http://flaky.invalid/v1", "concurrency_limit": limit}
            raw = dict(base, output_dir=str(tmp_path / f"flaky{limit}"), endpoint=endpoint)
            manifest, sleeps = _flaky_run(monkeypatch, raw, transport)
            for name in ARTIFACTS:
                assert (tmp_path / f"flaky{limit}" / name).read_bytes() == clean[name], (limit, name)
            planned = [transport.failures(prompt) for prompt in distinct]
            assert transport.calls == Counter({p: n + 1 for p, n in zip(distinct, planned)})
            assert manifest.counts["attempts"] == len(distinct) + sum(planned)
            assert set(transport.injected) == set(FAILURES), transport.injected
            injected.append(str(sum(planned)))
            # Retry n waits 1 s * 2^(n-1) plus a jitter of up to half that.
            if limit == 1:
                rng = random.Random(raw["seed"])
                expected = []
                for failures in planned:
                    for n in range(1, failures + 1):
                        delay = 2.0 ** (n - 1)
                        expected.append(delay + rng.uniform(0.0, 0.5 * delay))
                assert sleeps == expected
            else:
                retry_of = [next(n for n in (1, 2, 3) if 2 ** (n - 1) <= d <= 1.5 * 2 ** (n - 1)) for d in sleeps]
                assert Counter(retry_of) == Counter(n for f in planned for n in range(1, f + 1))

        # A prompt that fails every attempt quarantines the run and is named.
        doomed = snippets[7]
        transport = FlakyTransport(seed=1, doomed=(doomed.text, "fear"))
        endpoint = {"base_url": "http://flaky.invalid/v1", "concurrency_limit": 4}
        raw = dict(base, output_dir=str(tmp_path / "doomed"), endpoint=endpoint)
        with pytest.raises(RunStageError):
            _flaky_run(monkeypatch, raw, transport)
        assert not (tmp_path / "doomed").exists()
        error = json.loads((tmp_path / "doomed.partial" / "error.json").read_text(encoding="utf-8"))
        assert error["stage"] == "infer"
        assert error["message"].startswith(
            f"[stage=infer] snippet {doomed.id!r}, emotion fear: retries exhausted after 4 attempts: "
        ), error["message"]
        info["detail"] = (
            f"{len(distinct)} prompts, {'/'.join(injected)} injected failures at concurrency 1/4, "
            "clean-run bytes, replayed backoff, named quarantine"
        )
