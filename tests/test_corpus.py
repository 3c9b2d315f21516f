"""Dataset loading, instance explosion, and oversampling."""

import logging
import random
from collections import Counter

import pytest

from emoharness import (
    EMOTIONS,
    ColumnSchema,
    EmotionSet,
    LabelVector,
    PredictionRecord,
    SchemaError,
    Snippet,
    TaskInstance,
    ValidationError,
    display_name,
    explode,
    load_dataset,
    oversample,
)
from datagen import make_snippets, write_csv
from oracles import RefDatasetError, ref_load_dataset
from test_input_fuzz import CSV_MUTATIONS, _csv, _rows, make_workdir


def write_rows(path, header, rows):
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")
    return path


class TestEmotionSet:
    def test_default_is_all_six_in_fixed_order(self):
        assert EmotionSet.for_language("deu").emotions == EMOTIONS
        assert EMOTIONS == ("anger", "disgust", "fear", "joy", "sadness", "surprise")

    def test_english_excludes_disgust(self):
        assert EmotionSet.for_language("eng").emotions == (
            "anger", "fear", "joy", "sadness", "surprise",
        )

    def test_afrikaans_excludes_surprise(self):
        assert EmotionSet.for_language("afr").emotions == (
            "anger", "disgust", "fear", "joy", "sadness",
        )

    def test_unlisted_language_gets_default_set(self):
        assert EmotionSet.for_language("xyz").emotions == EMOTIONS

    def test_rejects_empty_duplicate_and_unknown(self):
        with pytest.raises(ValidationError):
            EmotionSet("eng", ())
        with pytest.raises(ValidationError):
            EmotionSet("eng", ("joy", "joy"))
        with pytest.raises(ValidationError):
            EmotionSet("eng", ("joy", "boredom"))

    def test_container_protocol(self):
        es = EmotionSet.for_language("eng")
        assert len(es) == 5
        assert "joy" in es and "disgust" not in es
        assert list(es) == list(es.emotions)

    def test_display_names(self):
        assert display_name("eng") == "English"
        assert display_name("deu") == "German"
        assert display_name("chn") == "Chinese"
        assert display_name("zzz") == "zzz"


class TestLoadDataset:
    def test_maps_row_fields_onto_snippet(self, tmp_path):
        es = EmotionSet.for_language("eng")
        path = write_rows(
            tmp_path / "d.csv",
            ["id", "text", "anger", "fear", "joy", "sadness", "surprise"],
            [["eng_01", "What a day!", 0, 0, 1, 0, 0]],
        )
        (snippet,) = load_dataset(path, ColumnSchema(), es, "A")
        assert snippet.id == "eng_01"
        assert snippet.text == "What a day!"
        assert snippet.language == "eng"
        assert snippet.labels == {"anger": 0, "fear": 0, "joy": 1, "sadness": 0, "surprise": 0}

    def test_three_rows_six_emotions(self, tmp_path):
        es = EmotionSet.for_language("deu")
        rng = random.Random(1)
        snippets = make_snippets(rng, 3, es, "A")
        path = write_csv(tmp_path / "d.csv", snippets, es)
        loaded = load_dataset(path, ColumnSchema(), es, "A")
        assert len(loaded) == 3
        assert all(len(s.labels) == 6 for s in loaded)
        assert [s.id for s in loaded] == [s.id for s in snippets]  # row order kept
        assert loaded == snippets

    def test_quoted_text_with_commas_survives(self, tmp_path):
        es = EmotionSet.for_language("eng")
        path = tmp_path / "d.csv"
        path.write_text(
            'id,text,anger,fear,joy,sadness,surprise\n'
            'r1,"Hello, world, again",0,0,0,0,0\n',
            encoding="utf-8",
        )
        (snippet,) = load_dataset(path, ColumnSchema(), es, "A")
        assert snippet.text == "Hello, world, again"

    def test_byte_order_mark_and_crlf_lines_load(self, tmp_path):
        # A spreadsheet's "CSV UTF-8" export starts with a BOM and ends lines in CRLF.
        es = EmotionSet.for_language("eng")
        path = tmp_path / "d.csv"
        path.write_bytes(
            b"\xef\xbb\xbfid,text,anger,fear,joy,sadness,surprise\r\n"
            b'r1,"Gr\xc3\xbc\xc3\x9fe,\r\nbis bald",0,0,1,0,0\r\n'
            b"r2,plain,1,0,0,0,0\r\n"
        )
        loaded = load_dataset(path, ColumnSchema(), es, "A")
        assert [s.id for s in loaded] == ["r1", "r2"]
        assert loaded[0].text == "Grüße,\r\nbis bald"
        assert loaded[0].labels["joy"] == 1 and loaded[1].labels["anger"] == 1

    def test_missing_column_names_it(self, tmp_path):
        es = EmotionSet.for_language("eng")
        path = write_rows(
            tmp_path / "d.csv",
            ["id", "text", "anger", "fear", "joy", "sadness"],
            [["r1", "hi", 0, 0, 0, 0]],
        )
        with pytest.raises(SchemaError, match="surprise"):
            load_dataset(path, ColumnSchema(), es, "A")

    def test_out_of_range_label_cites_row_id(self, tmp_path):
        es = EmotionSet.for_language("deu")
        path = write_rows(
            tmp_path / "d.csv",
            ["id", "text", "anger", "disgust", "fear", "joy", "sadness", "surprise"],
            [["r7", "hi", 0, 0, 4, 0, 0, 0]],
        )
        with pytest.raises(ValidationError, match="r7"):
            load_dataset(path, ColumnSchema(), es, "B")

    def test_track_a_rejects_intensity_two(self, tmp_path):
        es = EmotionSet.for_language("eng")
        path = write_rows(
            tmp_path / "d.csv",
            ["id", "text", "anger", "fear", "joy", "sadness", "surprise"],
            [["r1", "hi", 0, 0, 2, 0, 0]],
        )
        with pytest.raises(ValidationError, match="joy"):
            load_dataset(path, ColumnSchema(), es, "A")

    def test_non_integer_label_rejected(self, tmp_path):
        es = EmotionSet.for_language("eng")
        path = write_rows(
            tmp_path / "d.csv",
            ["id", "text", "anger", "fear", "joy", "sadness", "surprise"],
            [["r1", "hi", 0, 0, "yes", 0, 0]],
        )
        with pytest.raises(ValidationError, match="yes"):
            load_dataset(path, ColumnSchema(), es, "A")

    def test_duplicate_id_rejected(self, tmp_path):
        es = EmotionSet.for_language("eng")
        path = write_rows(
            tmp_path / "d.csv",
            ["id", "text", "anger", "fear", "joy", "sadness", "surprise"],
            [["r1", "hi", 0, 0, 0, 0, 0], ["r1", "again", 0, 0, 0, 0, 0]],
        )
        with pytest.raises(ValidationError, match="r1"):
            load_dataset(path, ColumnSchema(), es, "A")

    def test_empty_text_rejected(self, tmp_path):
        es = EmotionSet.for_language("eng")
        path = write_rows(
            tmp_path / "d.csv",
            ["id", "text", "anger", "fear", "joy", "sadness", "surprise"],
            [["r1", "  ", 0, 0, 0, 0, 0]],
        )
        with pytest.raises(ValidationError, match="empty text"):
            load_dataset(path, ColumnSchema(), es, "A")

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([["r1", "hi", 0, 0, 0, 0, 0], ["r1", "again", 0, 0, 0, 0, 0]], "line 3: duplicate id 'r1'"),
            ([["r1", "hi", 0, 0, 0, 0, 0], [" ", "hi", 0, 0, 0, 0, 0]], "line 3: empty id"),
            ([["r1", "  ", 0, 0, 0, 0, 0]], "line 2: row 'r1': empty text"),
            ([], "no rows"),
        ],
    )
    def test_row_errors_name_the_file(self, tmp_path, rows, message):
        es = EmotionSet.for_language("eng")
        path = write_rows(tmp_path / "d.csv", ["id", "text", "anger", "fear", "joy", "sadness", "surprise"], rows)
        with pytest.raises(ValidationError) as info:
            load_dataset(path, ColumnSchema(), es, "A")
        assert str(info.value) == f"{path}: {message}"

    def test_unparsable_csv_cites_path_and_line(self, tmp_path):
        # The csv module refuses a field longer than its limit (131072 by default).
        es = EmotionSet.for_language("eng")
        path = write_rows(
            tmp_path / "d.csv",
            ["id", "text", "anger", "fear", "joy", "sadness", "surprise"],
            [["r1", "hi", 0, 0, 0, 0, 0], ["r2", "x" * 140_000, 0, 0, 0, 0, 0]],
        )
        with pytest.raises(SchemaError, match=rf"^{path}: line 3: field larger than field limit"):
            load_dataset(path, ColumnSchema(), es, "A")

    def test_column_remapping(self, tmp_path):
        es = EmotionSet.for_language("eng")
        path = write_rows(
            tmp_path / "d.csv",
            ["key", "sentence", "anger", "fear", "Joy", "sadness", "surprise"],
            [["r1", "fine", 0, 0, 1, 0, 0]],
        )
        schema = ColumnSchema(id="key", text="sentence", emotions={"joy": "Joy"})
        (snippet,) = load_dataset(path, schema, es, "A")
        assert snippet.labels["joy"] == 1



#: Column mappings that point two logical columns at one CSV column, and the message.
ALIASED_SCHEMAS = [
    pytest.param({"id": "x", "text": "x"}, "id and text both name CSV column 'x'", id="id-is-text"),
    pytest.param({"text": "joy"}, "text and emotions.joy both name CSV column 'joy'", id="text-on-an-emotion"),
    pytest.param(
        {"emotions": {"joy": "fear"}}, "emotions.fear and emotions.joy both name CSV column 'fear'", id="emotion-on-another"
    ),
    pytest.param(
        {"emotions": {"anger": "Gefühl", "joy": "Gefühl"}},
        "emotions.anger and emotions.joy both name CSV column 'Gefühl'",
        id="two-emotions-on-one",
    ),
    # English has no disgust column, but a schema does not know the language.
    pytest.param({"text": "disgust"}, "text and emotions.disgust both name CSV column 'disgust'", id="text-on-disgust"),
    # A key that is not an emotion would otherwise change nothing: joy is still read from "joy".
    pytest.param({"emotions": {"jy": "Freude"}}, "emotions.jy: not a known emotion", id="unknown-emotion"),
]


class TestColumnSchema:
    @pytest.mark.parametrize("kwargs, message", ALIASED_SCHEMAS)
    def test_each_logical_column_reads_its_own_csv_column(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            ColumnSchema(**kwargs)
        assert str(info.value) == message

    def test_swapped_emotion_columns_are_distinct(self, tmp_path):
        es = EmotionSet.for_language("eng")
        path = write_rows(
            tmp_path / "d.csv", ["id", "text", "anger", "fear", "joy", "sadness", "surprise"], [["r1", "hi", 0, 1, 0, 0, 0]]
        )
        (snippet,) = load_dataset(path, ColumnSchema(emotions={"joy": "fear", "fear": "joy"}), es, "A")
        assert snippet.labels == {"anger": 0, "fear": 0, "joy": 1, "sadness": 0, "surprise": 0}

#: Label cells as a CSV holds them, and what loading them gives on each track:
#: the label, or the exact message of the ValidationError for row r1's joy
#: column after its "<path>: line 2: " prefix.
LABEL_CELLS = [
    ("0", "A", 0),
    ("1", "A", 1),
    (" 1", "A", 1),
    ("1 ", "A", 1),
    ("01", "A", 1),
    ("+1", "A", 1),
    ("3", "B", 3),
    ("1.0", "A", "row 'r1': column 'joy' has non-integer label '1.0'"),
    ("", "A", "row 'r1': column 'joy' has non-integer label ''"),
    ("-0", "A", 0),
    ("-1", "B", "row 'r1': column 'joy' label -1 outside track B range [0, 3]"),
    ("2", "A", "row 'r1': column 'joy' label 2 outside track A range [0, 1]"),
    ("3", "A", "row 'r1': column 'joy' label 3 outside track A range [0, 1]"),
    ("4", "B", "row 'r1': column 'joy' label 4 outside track B range [0, 3]"),
    ("yes", "B", "row 'r1': column 'joy' has non-integer label 'yes'"),
    ("\u0661", "A", "row 'r1': column 'joy' has non-integer label '\u0661'"),
    ("1_0", "A", "row 'r1': column 'joy' has non-integer label '1_0'"),
    ("+-1", "A", "row 'r1': column 'joy' has non-integer label '+-1'"),
]


class TestLabelCells:
    """Every cell outside the exact in-range digits takes the one checked
    parse, so its value or message does not depend on which path read it."""

    HEADER = ["id", "text", "anger", "fear", "joy", "sadness", "surprise"]

    @pytest.mark.parametrize("cell, track, want", LABEL_CELLS)
    def test_cell(self, tmp_path, cell, track, want):
        es = EmotionSet.for_language("eng")
        path = tmp_path / "d.csv"
        path.write_text(",".join(self.HEADER) + f"\nr1,hi,0,0,{cell},0,1\n", encoding="utf-8")
        if isinstance(want, int):
            (snippet,) = load_dataset(path, ColumnSchema(), es, track)
            assert snippet.labels == {"anger": 0, "fear": 0, "joy": want, "sadness": 0, "surprise": 1}
            assert type(snippet.labels["joy"]) is int
        else:
            with pytest.raises(ValidationError) as info:
                load_dataset(path, ColumnSchema(), es, track)
            assert str(info.value) == f"{path}: line 2: {want}"

    def test_short_row_names_its_first_missing_column(self, tmp_path):
        # DictReader fills the cells a short row lacks with None.
        es = EmotionSet.for_language("eng")
        path = write_rows(tmp_path / "d.csv", self.HEADER, [["r1", "hi", 0, 1, 0, 0, 0], ["r2", "short", 1, 0]])
        with pytest.raises(ValidationError) as info:
            load_dataset(path, ColumnSchema(), es, "A")
        assert str(info.value) == f"{path}: line 3: row 'r2': column 'joy' has non-integer label ''"

    def test_first_bad_column_in_emotion_order_is_named(self, tmp_path):
        es = EmotionSet.for_language("eng")
        path = write_rows(tmp_path / "d.csv", self.HEADER, [["r1", "hi", 0, "x", 0, 5, 0]])
        with pytest.raises(ValidationError) as info:
            load_dataset(path, ColumnSchema(), es, "A")
        assert str(info.value) == f"{path}: line 2: row 'r1': column 'fear' has non-integer label 'x'"

    def test_remapped_columns(self, tmp_path):
        es = EmotionSet.for_language("eng")
        header = ["id", "text", "Anger", "fear", "Freude", "sadness", "surprise"]
        schema = ColumnSchema(emotions={"anger": "Anger", "joy": "Freude"})
        good = write_rows(tmp_path / "good.csv", header, [["r1", "hi", 1, 0, " 1", 0, 0], ["r2", "ho", 0, 1, 0, 0, 1]])
        assert [s.labels for s in load_dataset(good, schema, es, "A")] == [
            {"anger": 1, "fear": 0, "joy": 1, "sadness": 0, "surprise": 0},
            {"anger": 0, "fear": 1, "joy": 0, "sadness": 0, "surprise": 1},
        ]
        bad = write_rows(tmp_path / "bad.csv", header, [["r1", "hi", 0, 0, 2, 0, 0]])
        with pytest.raises(ValidationError) as info:
            load_dataset(bad, schema, es, "A")
        assert str(info.value) == f"{bad}: line 2: row 'r1': column 'Freude' label 2 outside track A range [0, 1]"
        # A remapped emotion is read under its mapped name only.
        unmapped = write_rows(tmp_path / "unmapped.csv", ["id", "text", "Anger", "fear", "joy", "sadness", "surprise"], [])
        with pytest.raises(SchemaError, match=r"missing column\(s\): Freude$"):
            load_dataset(unmapped, schema, es, "A")


def _edit_rows(edit):
    """A CSV case that rewrites the rows of the text as ``csv`` reads them."""
    return lambda text, rng: _csv(edit(_rows(text)))


#: Cases past the fuzz gate's CSV_MUTATIONS, each mapping the CSV's text to new text.
READER_CASES = {
    "blank-lines": lambda t, rng: "\n".join(t.splitlines()[:2] + ["", ""] + t.splitlines()[2:]) + "\n\n",
    "blank-crlf-lines": lambda t, rng: t.replace("\r\n", "\r\n\r\n"),
    "blank-lines-before-a-bad-row": _edit_rows(lambda rows: rows[:2] + [[], []] + [[rows[1][0]] + rows[2][1:]]),
    "short-rows": _edit_rows(lambda rows: [rows[0] + ["note"]] + rows[1:]),
    "short-row-of-id-and-text": _edit_rows(lambda rows: rows[:2] + [rows[2][:2]] + rows[3:]),
    "short-row-of-id": _edit_rows(lambda rows: rows[:2] + [rows[2][:1]] + rows[3:]),
    "row-of-one-empty-cell": _edit_rows(lambda rows: rows[:2] + [[""]] + rows[2:]),
    "long-rows": _edit_rows(lambda rows: rows[:1] + [row + ["x", "1"] for row in rows[1:]]),
    "quoted-newline-before-a-bad-row": _edit_rows(
        lambda rows: [rows[0], [rows[1][0], "two\nlines"] + rows[1][2:], rows[2][:-1] + ["x"]] + rows[3:]
    ),
    "blank-header-line": lambda t, rng: "\n" + t,
    "reordered-columns": _edit_rows(lambda rows: [row[::-1] for row in rows]),
    "repeated-unmapped-column": _edit_rows(lambda rows: [row + ["note", "note"] for row in rows]),
}


def _outcome(read):
    """The snippets as tuples, or the error's class name and message."""
    try:
        return [(s.id, s.text, s.language, s.labels) for s in read()]
    except (SchemaError, ValidationError) as exc:
        return type(exc).__name__, str(exc)


def _ref_outcome(read):
    try:
        return read()
    except RefDatasetError as exc:
        return exc.kind, str(exc)


@pytest.mark.parametrize("track", ["A", "B"])
@pytest.mark.parametrize("name", [*CSV_MUTATIONS, *(f"reader-{n}" for n in READER_CASES)])
def test_reader_matches_dictreader_oracle(tmp_path, name, track):
    """``load_dataset`` reads cells by column index; the oracle is the
    ``csv.DictReader`` loop it replaced, run on the fuzz gate's test.csv."""
    make_workdir(tmp_path)
    path = tmp_path / "test.csv"
    mutate = READER_CASES[name[7:]] if name.startswith("reader-") else CSV_MUTATIONS[name]
    data = mutate(path.read_text(encoding="utf-8"), random.Random(len(name)))
    path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    es = EmotionSet.for_language("eng")
    got = _outcome(lambda: load_dataset(path, ColumnSchema(), es, track))
    want = _ref_outcome(lambda: ref_load_dataset(path, "id", "text", [(e, e) for e in es], "eng", track))
    assert got == want


class TestExplode:
    def test_one_snippet_six_instances(self):
        es = EmotionSet.for_language("deu")
        s = Snippet("x", "hallo", "deu", {e: 0 for e in es})
        instances = explode([s], es, "A")
        assert len(instances) == 6
        assert [i.emotion for i in instances] == list(es.emotions)

    def test_empty_input(self):
        assert explode([], EmotionSet.for_language("deu"), "A") == []

    def test_ten_english_snippets_fifty_instances(self):
        es = EmotionSet.for_language("eng")
        rng = random.Random(3)
        instances = explode(make_snippets(rng, 10, es, "B"), es, "B")
        assert len(instances) == 50

    def test_order_is_snippet_cross_emotion(self):
        es = EmotionSet.for_language("eng")
        rng = random.Random(4)
        snippets = make_snippets(rng, 3, es, "A")
        instances = explode(snippets, es, "A")
        expected = [(s.id, e) for s in snippets for e in es]
        assert [(i.snippet_id, i.emotion) for i in instances] == expected

    def test_gold_copied_from_labels(self):
        es = EmotionSet.for_language("eng")
        s = Snippet("x", "yay", "eng", {"anger": 0, "fear": 0, "joy": 1, "sadness": 0, "surprise": 1})
        by_emotion = {i.emotion: i for i in explode([s], es, "A")}
        assert by_emotion["joy"].gold == 1
        assert by_emotion["anger"].gold == 0
        assert all(i.text == "yay" and i.track == "A" for i in by_emotion.values())

    def test_mismatched_labels_rejected(self):
        es = EmotionSet.for_language("eng")
        s = Snippet("x", "hi", "eng", {"joy": 1})
        with pytest.raises(ValidationError):
            explode([s], es, "A")

    @pytest.mark.parametrize("track", ["A", "B"])
    @pytest.mark.parametrize("label", [True, 1.0], ids=["bool", "float"])
    def test_non_int_label_rejected(self, track, label):
        # The SFT export writes str(gold), so True or 1.0 would reach a training file.
        es = EmotionSet("eng", ("joy", "fear"))
        s = Snippet("x", "hi", "eng", {"joy": label, "fear": 0})
        with pytest.raises(ValidationError, match=rf"'x': joy label {label!r} is not an integer"):
            explode([s], es, track)


def _explode_one(label):
    explode([Snippet("x", "hi", "eng", {"joy": label})], EmotionSet("eng", ("joy",)), "A")


def _label_vector(label):
    LabelVector("x", {"joy": label}, "A")


def _prediction_record(label):
    PredictionRecord.from_dict({"snippet_id": "x", "emotion": "joy", "track": "A", "raw_text": "", "parsed": label})


@pytest.mark.parametrize("label", [True, 2, -1, 1.0, "1"])
@pytest.mark.parametrize("accept", [_explode_one, _label_vector, _prediction_record])
def test_every_layer_rejects_a_bad_label_in_one_message(accept, label):
    with pytest.raises(ValidationError) as info:
        accept(label)
    assert str(info.value) == f"snippet 'x': joy label {label!r} is not an integer in track A range [0, 1]"


def _class_counts(instances):
    counts = {}
    for inst in instances:
        pos, neg = counts.get(inst.emotion, (0, 0))
        counts[inst.emotion] = (pos + 1, neg) if inst.gold == 1 else (pos, neg + 1)
    return counts


def _make_instance(snippet_id, emotion, gold):
    return TaskInstance(snippet_id, f"text {snippet_id}", "eng", emotion, gold, "A")


class TestOversample:
    def _instances(self, pos, neg, emotion="joy"):
        instances = [_make_instance(f"p{i}", emotion, 1) for i in range(pos)]
        instances += [_make_instance(f"n{i}", emotion, 0) for i in range(neg)]
        return instances

    def test_three_pos_seven_neg_becomes_seven_seven(self):
        instances = self._instances(3, 7)
        out = oversample(instances, seed=9)
        assert len(out) == 14
        assert _class_counts(out)["joy"] == (7, 7)

    def test_balanced_group_unchanged(self):
        instances = self._instances(5, 5)
        assert oversample(instances, seed=1) == instances

    def test_single_class_group_warns_and_stays(self, caplog):
        instances = self._instances(0, 4)
        with caplog.at_level(logging.WARNING):
            out = oversample(instances, seed=2)
        assert out == instances
        assert any("single class" in r.message for r in caplog.records)

    def test_track_b_instances_rejected(self):
        instances = [TaskInstance("s1", "text", "eng", "joy", 2, "B")]
        with pytest.raises(ValueError, match="track A instances only"):
            oversample(instances, seed=3)

    def test_seed_determinism(self):
        rng = random.Random(11)
        es = EmotionSet.for_language("eng")
        instances = explode(make_snippets(rng, 40, es, "A", positive_rate=0.2), es, "A")
        assert oversample(instances, seed=77) == oversample(instances, seed=77)

    def test_originals_are_sub_multiset(self):
        rng = random.Random(12)
        es = EmotionSet.for_language("deu")
        instances = explode(make_snippets(rng, 30, es, "A", positive_rate=0.25), es, "A")
        out = oversample(instances, seed=5)
        inputs = Counter((i.snippet_id, i.emotion, i.gold) for i in instances)
        outputs = Counter((i.snippet_id, i.emotion, i.gold) for i in out)
        assert all(outputs[key] >= n for key, n in inputs.items())

    def test_duplicates_copy_minority_instances(self):
        instances = self._instances(1, 3)
        out = oversample(instances, seed=0)
        assert _class_counts(out)["joy"] == (3, 3)
        extra = out[len(instances):]
        assert all(i.gold == 1 and i.snippet_id == "p0" for i in extra)

    def test_balances_each_emotion_group_separately(self):
        rng = random.Random(13)
        es = EmotionSet.for_language("eng")
        instances = explode(make_snippets(rng, 50, es, "A", positive_rate=0.3), es, "A")
        out = oversample(instances, seed=21)
        for emotion, (pos, neg) in _class_counts(out).items():
            original = _class_counts(instances)[emotion]
            if 0 in original:
                assert (pos, neg) == original
            else:
                assert pos == neg
