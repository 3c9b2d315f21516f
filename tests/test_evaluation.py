"""Aggregation, marginalisation, and the two shared task metrics."""

import random

import pytest

from emoharness import (
    AlignmentError,
    CompletenessError,
    EmotionSet,
    LabelVector,
    PredictionRecord,
    Snippet,
    ValidationError,
    aggregate,
    count_parse_failures,
    macro_f1,
    marginalise,
    mean_pearson_r,
)
from emoharness.runner import score_predictions
from datagen import random_vectors
from oracles import ref_macro_f1, ref_mean_pearson

SIX = EmotionSet.for_language("deu")
EMO = list(SIX.emotions)


def record(sid, emotion, parsed, track="A", raw=None):
    return PredictionRecord(sid, emotion, track, str(parsed) if raw is None else raw, parsed)


def vec(sid, values, track="A"):
    return LabelVector(sid, values, track)


def as_maps(vectors):
    return {v.snippet_id: v.values for v in vectors}


class TestLabelVector:
    def test_range_validation(self):
        with pytest.raises(ValidationError):
            vec("s", {"joy": 2}, "A")
        with pytest.raises(ValidationError):
            vec("s", {"joy": 4}, "B")
        with pytest.raises(ValidationError):
            vec("s", {"joy": True}, "A")
        with pytest.raises(ValidationError):
            vec("s", {})


class TestAggregate:
    def test_regroups_one_snippet(self):
        records = [record("s1", e, 1 if e == "joy" else 0) for e in EMO]
        (vector,) = aggregate(records, SIX)
        assert vector.values == {e: (1 if e == "joy" else 0) for e in EMO}
        assert vector.track == "A"

    def test_two_snippets_two_vectors(self):
        records = [record(sid, e, 0) for sid in ("s1", "s2") for e in EMO]
        vectors = aggregate(records, SIX)
        assert [v.snippet_id for v in vectors] == ["s1", "s2"]

    def test_missing_pair_reported(self):
        records = [record("s1", e, 0) for e in EMO if e != "surprise"]
        with pytest.raises(CompletenessError, match="s1:surprise"):
            aggregate(records, SIX)

    def test_duplicate_pair_rejected(self):
        records = [record("s1", e, 0) for e in EMO] + [record("s1", "joy", 1)]
        with pytest.raises(ValidationError, match="duplicate"):
            aggregate(records, SIX)

    def test_mixed_tracks_rejected(self):
        records = [record("s1", e, 0) for e in EMO[:-1]] + [record("s1", EMO[-1], 0, track="B")]
        with pytest.raises(ValidationError, match="mix"):
            aggregate(records, SIX)

    def test_emotion_outside_set_rejected(self):
        eng = EmotionSet.for_language("eng")
        records = [record("s1", e, 0) for e in eng] + [record("s1", "disgust", 0)]
        with pytest.raises(ValidationError, match="disgust"):
            aggregate(records, eng)

    def test_parse_failures_become_zero(self):
        records = [record("s1", e, None, raw="eh?") for e in EMO]
        (vector,) = aggregate(records, SIX)
        assert all(v == 0 for v in vector.values.values())
        assert count_parse_failures(records) == 6

    def test_empty_records(self):
        assert aggregate([], SIX) == []

    def test_order_follows_first_appearance(self):
        records = [record(sid, e, 0) for sid in ("z9", "a1", "m5") for e in EMO]
        vectors = aggregate(records, SIX)
        assert [v.snippet_id for v in vectors] == ["z9", "a1", "m5"]


class TestMarginalise:
    def test_mapping_rule(self):
        v = vec(
            "s",
            {"anger": 0, "disgust": 3, "fear": 1, "joy": 0, "sadness": 2, "surprise": 0},
            "B",
        )
        assert marginalise(v).values == {
            "anger": 0, "disgust": 1, "fear": 1, "joy": 0, "sadness": 1, "surprise": 0,
        }
        assert marginalise(v).track == "A"

    def test_all_zero_stays_zero(self):
        v = vec("s", {e: 0 for e in EMO}, "B")
        assert all(x == 0 for x in marginalise(v).values.values())

    def test_saturation(self):
        v = vec("s", {e: 3 for e in EMO}, "B")
        assert all(x == 1 for x in marginalise(v).values.values())

    def test_idempotent_on_presence_shaped_vectors(self):
        rng = random.Random(1)
        for _ in range(20):
            v = vec("s", {e: rng.randint(0, 3) for e in EMO}, "B")
            once = marginalise(v)
            again = marginalise(vec("s", dict(once.values), "B"))
            assert again.values == once.values

    def test_monotone(self):
        rng = random.Random(2)
        for _ in range(50):
            values = {e: rng.randint(0, 2) for e in EMO}
            bumped = dict(values)
            e = rng.choice(EMO)
            bumped[e] += 1
            low = marginalise(vec("s", values, "B")).values
            high = marginalise(vec("s", bumped, "B")).values
            assert all(high[x] >= low[x] for x in EMO)

    def test_rejects_presence_input(self):
        with pytest.raises(ValidationError):
            marginalise(vec("s", {e: 0 for e in EMO}, "A"))


class TestMacroF1:
    def test_identity_is_one(self):
        rng = random.Random(3)
        gold = random_vectors(rng, [f"s{i}" for i in range(20)], EMO, "A")
        report = macro_f1(gold, gold)
        # Every emotion has at least one positive at this size and seed.
        assert all(v == 1.0 for v in report.per_emotion.values())
        assert report.average == 1.0

    def test_worked_example(self):
        ids = ["a", "b", "c", "d"]
        gold_joy = [1, 1, 0, 0]
        pred_joy = [1, 0, 0, 0]
        gold = []
        pred = []
        for i, sid in enumerate(ids):
            gv = {e: 1 if i == 0 else 0 for e in EMO}
            gv["joy"] = gold_joy[i]
            pv = dict(gv)
            pv["joy"] = pred_joy[i]
            gold.append(vec(sid, gv))
            pred.append(vec(sid, pv))
        report = macro_f1(gold, pred)
        assert report.per_emotion["joy"] == pytest.approx(2 / 3, abs=1e-12)
        others = [v for e, v in report.per_emotion.items() if e != "joy"]
        assert all(v == 1.0 for v in others)
        assert report.average == pytest.approx((5 * 1.0 + 2 / 3) / 6, abs=1e-12)

    def test_zero_denominator_is_zero(self):
        gold = [vec("s1", {e: 0 for e in EMO}), vec("s2", {e: 0 for e in EMO})]
        report = macro_f1(gold, gold)
        assert all(v == 0.0 for v in report.per_emotion.values())
        assert report.average == 0.0

    def test_permutation_invariance_is_exact(self):
        rng = random.Random(4)
        ids = [f"s{i}" for i in range(30)]
        gold = random_vectors(rng, ids, EMO, "A")
        pred = random_vectors(rng, ids, EMO, "A")
        base = macro_f1(gold, pred)
        for _ in range(5):
            g2, p2 = list(gold), list(pred)
            rng.shuffle(g2)
            rng.shuffle(p2)
            shuffled = macro_f1(g2, p2)
            assert shuffled.per_emotion == base.per_emotion
            assert shuffled.average == base.average

    def test_id_mismatch(self):
        gold = [vec("s1", {e: 0 for e in EMO})]
        pred = [vec("s2", {e: 0 for e in EMO})]
        with pytest.raises(AlignmentError):
            macro_f1(gold, pred)

    def test_duplicate_ids(self):
        gold = [vec("s1", {e: 0 for e in EMO}), vec("s1", {e: 0 for e in EMO})]
        with pytest.raises(AlignmentError):
            macro_f1(gold, gold)

    def test_track_b_vectors_rejected(self):
        gold = [vec("s1", {e: 0 for e in EMO}, "B")]
        with pytest.raises(ValidationError):
            macro_f1(gold, gold)

    def test_matches_reference_implementation(self):
        rng = random.Random(5)
        ids = [f"s{i}" for i in range(50)]
        for _ in range(50):
            gold = random_vectors(rng, ids, EMO, "A")
            pred = random_vectors(rng, ids, EMO, "A")
            report = macro_f1(gold, pred)
            want = ref_macro_f1(as_maps(gold), as_maps(pred), EMO)
            assert report.average == pytest.approx(want, abs=1e-9)


class TestMeanPearson:
    def test_identity_is_one(self):
        rng = random.Random(6)
        gold = random_vectors(rng, [f"s{i}" for i in range(15)], EMO, "B")
        report = mean_pearson_r(gold, gold)
        assert all(v == pytest.approx(1.0, abs=1e-12) for v in report.per_emotion.values())

    def test_perfect_anticorrelation(self):
        ids = ["a", "b", "c", "d"]
        gold = [vec(sid, {e: i for e in EMO}, "B") for i, sid in enumerate(ids)]
        pred = [vec(sid, {e: 3 - i for e in EMO}, "B") for i, sid in enumerate(ids)]
        report = mean_pearson_r(gold, pred)
        assert all(v == pytest.approx(-1.0, abs=1e-12) for v in report.per_emotion.values())

    def test_constant_gold_flags_degenerate(self):
        rng = random.Random(7)
        ids = [f"s{i}" for i in range(10)]
        gold = random_vectors(rng, ids, EMO, "B")
        for v in gold:
            v.values["anger"] = 2
        pred = random_vectors(rng, ids, EMO, "B")
        report = mean_pearson_r(gold, pred)
        assert report.per_emotion["anger"] == 0.0
        assert "anger" in report.counts["degenerate_emotions"]

    def test_fewer_than_two_snippets(self):
        gold = [vec("s1", {e: 0 for e in EMO}, "B")]
        with pytest.raises(ValueError):
            mean_pearson_r(gold, gold)

    def test_permutation_invariance_is_exact(self):
        rng = random.Random(8)
        ids = [f"s{i}" for i in range(25)]
        gold = random_vectors(rng, ids, EMO, "B")
        pred = random_vectors(rng, ids, EMO, "B")
        base = mean_pearson_r(gold, pred)
        g2, p2 = list(gold), list(pred)
        rng.shuffle(g2)
        rng.shuffle(p2)
        shuffled = mean_pearson_r(g2, p2)
        assert shuffled.per_emotion == base.per_emotion

    def test_matches_reference_implementation(self):
        rng = random.Random(9)
        ids = [f"s{i}" for i in range(40)]
        for _ in range(50):
            gold = random_vectors(rng, ids, EMO, "B")
            pred = random_vectors(rng, ids, EMO, "B")
            report = mean_pearson_r(gold, pred)
            want = ref_mean_pearson(as_maps(gold), as_maps(pred), EMO)
            assert report.average == pytest.approx(want, abs=1e-9)

    def test_values_stay_within_bounds(self):
        rng = random.Random(10)
        ids = [f"s{i}" for i in range(12)]
        for _ in range(30):
            gold = random_vectors(rng, ids, EMO, "B")
            pred = random_vectors(rng, ids, EMO, "B")
            report = mean_pearson_r(gold, pred)
            assert all(-1.0 <= v <= 1.0 for v in report.per_emotion.values())


class TestMetricsReport:
    def test_average_is_unweighted_mean(self):
        rng = random.Random(11)
        ids = [f"s{i}" for i in range(20)]
        gold = random_vectors(rng, ids, EMO, "A")
        pred = random_vectors(rng, ids, EMO, "A")
        report = macro_f1(gold, pred)
        assert report.average == pytest.approx(
            sum(report.per_emotion.values()) / len(report.per_emotion), abs=1e-15
        )

    def test_table_lists_every_emotion_and_average(self):
        gold = [vec("s1", {e: 0 for e in EMO}), vec("s2", {e: 1 for e in EMO})]
        report = macro_f1(gold, gold)
        table = report.format_table()
        for emotion in EMO:
            assert emotion in table
        assert "average" in table

    def test_parse_failures_are_counted_by_the_runner_alone(self):
        snippets = [Snippet(f"s{i}", "t", "deu", {e: i for e in EMO}) for i in (0, 1)]
        records = [record(s.id, e, s.labels[e]) for s in snippets for e in EMO]
        records[0] = record("s0", EMO[0], None, raw="eh?")
        pred = aggregate(records, SIX)
        assert macro_f1(pred, pred).counts == {"instances": 12, "degenerate_emotions": []}
        report = score_predictions(snippets, pred, records, "A")
        assert report.counts == {"instances": 12, "parse_failures": 1, "degenerate_emotions": []}
        assert report.format_table().endswith("\nparse failures scored as 0: 1")

    def test_as_dict_round_trips_through_json(self):
        import json

        gold = [vec("s1", {e: 0 for e in EMO}), vec("s2", {e: 1 for e in EMO})]
        report = macro_f1(gold, gold)
        assert json.loads(json.dumps(report.as_dict()))["metric_kind"] == "macro_f1"
