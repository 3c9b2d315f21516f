"""Instruction-dataset JSONL export and the two-stage fine-tuning plan."""

import json
import random

import pytest

from emoharness import (
    EMOTIONS,
    HYPERPARAMETERS,
    LEARNING_RATES,
    ConfigError,
    PredictionRecord,
    TaskInstance,
    ValidationError,
    display_name,
    export_ebridge_plan,
    export_sft_dataset,
    render_zero_shot,
)
from emoharness import exports
from emoharness.evaluation import LabelVector, marginalise
from emoharness.exports import _encode_line, write_predictions, write_vectors
from emoharness.prompting import TEMPLATE_IDS
from datagen import escape_text


def inst(sid, text, emotion, gold, track="A", language="eng"):
    return TaskInstance(sid, text, language, emotion, gold, track)


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


class TestSftExportConfig:
    """The track picks the export's template and learning rate."""

    @pytest.mark.parametrize(
        "track, template_id, learning_rate",
        [("A", "track_a", 2e-5), ("B", "track_b", 5e-5)],
        ids=["A", "B"],
    )
    def test_track_picks_template_and_learning_rate(self, tmp_path, track, template_id, learning_rate):
        out = tmp_path / "sft.jsonl"
        export_sft_dataset([inst("s1", "fuming", "anger", 1, track=track)], track, out)
        meta = json.loads(out.with_suffix(".meta.json").read_text(encoding="utf-8"))
        assert meta["template_id"] == template_id
        assert meta["hyperparameters"] == dict(HYPERPARAMETERS, learning_rate=learning_rate)

    def test_hyperparameter_block_values(self):
        assert HYPERPARAMETERS == {
            "lora_rank": 32,
            "lora_alpha": 64,
            "dropout": 0.05,
            "max_len": 512,
            "epochs": 10,
            "batch_size": 2,
            "quantisation": "4-bit",
        }
        assert LEARNING_RATES == {"track_a": 2e-5, "track_b": 5e-5}

    def test_unknown_track_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown track 'C'"):
            export_sft_dataset([], "C", tmp_path / "sft.jsonl")


class TestExportSftDataset:
    def test_presence_line_shape(self, tmp_path):
        out = tmp_path / "sft.jsonl"
        assert export_sft_dataset([inst("s1", "good news", "joy", 1)], "A", out) is None
        (line,) = read_jsonl(out)
        assert set(line) == {"instruction", "output"}
        assert line["instruction"].endswith("Answer 1 for yes and 0 for no.")
        assert line["output"] == "1"

    def test_intensity_gold_three(self, tmp_path):
        out = tmp_path / "sft.jsonl"
        export_sft_dataset([inst("s1", "fuming", "anger", 3, track="B")], "B", out)
        (line,) = read_jsonl(out)
        assert line["output"] == "3"
        assert line["instruction"].startswith("Task: Categorize the tweet")

    def test_empty_instances(self, tmp_path):
        out = tmp_path / "sft.jsonl"
        export_sft_dataset([], "A", out)
        assert out.read_bytes() == b""
        meta = json.loads((tmp_path / "sft.meta.json").read_text(encoding="utf-8"))
        assert meta["instances"] == 0
        assert meta["per_emotion"] == {}
        assert meta["languages"] == []

    def test_metadata_carries_hyperparameters_verbatim(self, tmp_path):
        out = tmp_path / "sft.jsonl"
        export_sft_dataset(
            [inst("s1", "good", "joy", 1), inst("s1b", "bad", "sadness", 1)],
            "A",
            out,
        )
        meta = json.loads((tmp_path / "sft.meta.json").read_text(encoding="utf-8"))
        assert meta["hyperparameters"] == dict(HYPERPARAMETERS, learning_rate=2e-5)
        assert meta["template_id"] == "track_a"
        assert meta["instances"] == 2
        assert meta["per_emotion"] == {"joy": 1, "sadness": 1}
        assert meta["languages"] == ["eng"]

    def test_track_mismatch_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="'track_a' expects track A instances; got track B"):
            export_sft_dataset([inst("s1", "x", "joy", 2, track="B")], "A", tmp_path / "sft.jsonl")

    def test_non_ascii_text_is_not_escaped(self, tmp_path):
        out = tmp_path / "sft.jsonl"
        export_sft_dataset([inst("s1", "große Freude", "joy", 1, language="deu")], "A", out)
        raw = out.read_text(encoding="utf-8")
        assert "große Freude" in raw
        assert "\\u" not in raw
        assert "written in German" in raw

    def test_every_line_is_json_with_two_keys(self, tmp_path):
        out = tmp_path / "sft.jsonl"
        instances = [inst(f"s{i}", f"text {i}", "joy", i % 2) for i in range(10)]
        export_sft_dataset(instances, "A", out)
        lines = read_jsonl(out)
        assert len(lines) == 10
        assert all(set(line) == {"instruction", "output"} for line in lines)


def escape_instances(track, count=400, seed=7):
    """Instances whose texts and language codes stress JSON escaping.

    Texts repeat across instances; some texts equal a language code, and
    some unknown codes (shown as themselves) hold quotes or backslashes.
    Texts and codes hold "\x00" and "\x01", the texts the writer renders
    to find where a prompt's text starts and ends.
    """
    rng = random.Random(seed)
    languages = ["eng", "deu", 'x"y', "a\\b", "q\u2028\x01", "n\x00l"]
    texts = [escape_text(rng) for _ in range(60)] + languages + ["\x00", "a\x00b\x00"]
    hi = 1 if track == "A" else 3
    return [
        inst(
            f"s{i}",
            rng.choice(texts),
            rng.choice(EMOTIONS),
            rng.randint(0, hi),
            track=track,
            language=rng.choice(languages),
        )
        for i in range(count)
    ]


def encoded(instances, template_id):
    """The SFT file's bytes as ``_encode_line`` writes each line."""
    return "".join(
        _encode_line({
            "instruction": render_zero_shot(template_id, i.text, display_name(i.language), i.emotion),
            "output": str(i.gold),
        })
        + "\n"
        for i in instances
    ).encode("utf-8")


class TestExportBytes:
    @pytest.mark.parametrize("track", ["A", "B"])
    def test_lines_equal_the_json_encoder(self, tmp_path, track):
        instances = escape_instances(track)
        out = tmp_path / "sft.jsonl"
        export_sft_dataset(instances, track, out)
        assert out.read_bytes() == encoded(instances, TEMPLATE_IDS[track])

    @pytest.mark.parametrize(
        "count",
        [exports._BATCH_LINES + 1, 2 * exports._BATCH_LINES],
        ids=["batch-and-one", "two-batches"],
    )
    def test_lines_across_write_batches(self, tmp_path, count):
        instances = escape_instances("B", count=count)
        out = tmp_path / "sft.jsonl"
        export_sft_dataset(instances, "B", out)
        assert out.read_bytes() == encoded(instances, "track_b")

    def test_renders_through_the_module_name(self, tmp_path, monkeypatch):
        # bench/child.py counts prompt renders by wrapping this name.
        calls = []

        def counting(*args):
            calls.append(args)
            return render_zero_shot(*args)

        monkeypatch.setattr(exports, "render_zero_shot", counting)
        instances = escape_instances("A", count=50)
        out = tmp_path / "sft.jsonl"
        export_sft_dataset(instances, "A", out)
        assert {args[2:] for args in calls} == {(display_name(i.language), i.emotion) for i in instances}
        # JSON escapes newlines inside strings, so each raw one ends a line.
        assert out.read_bytes().count(b"\n") == 50

    def test_golds_that_compare_equal_print_apart(self, tmp_path):
        # Hand-built instances may hold any gold; each prints as str() does.
        golds = [1, True, 1.0, 0, False, 'a"b', "x\\y"]
        instances = [inst(f"s{i}", "x", "joy", gold) for i, gold in enumerate(golds)]
        out = tmp_path / "sft.jsonl"
        export_sft_dataset(instances, "A", out)
        assert [line["output"] for line in read_jsonl(out)] == ["1", "True", "1.0", "0", "False", 'a"b', "x\\y"]

    def test_lone_surrogate_still_fails_to_encode(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            export_sft_dataset([inst("s1", "bad \ud800", "joy", 1)], "A", tmp_path / "sft.jsonl")

    def test_template_literals_that_json_escapes(self, tmp_path, replace_template):
        # A template may hold any character; each line is still what the encoder writes.
        replace_template("track_a", ('Say "\\', "language", '\x01" of ', "text", "\x00\n\\is ", "emotion", '"?'))
        instances = escape_instances("A")
        out = tmp_path / "sft.jsonl"
        export_sft_dataset(instances, "A", out)
        expected = encoded(instances, "track_a")
        assert b'Say \\"\\\\' in expected
        assert out.read_bytes() == expected


def prediction_records(count, seed=7):
    """Records whose ids and raw texts stress JSON escaping, with every
    ``parsed`` a hand-built record may hold: None, labels and booleans."""
    rng = random.Random(seed)
    ids = [escape_text(rng) for _ in range(30)] + ["", "s1"]
    raws = [escape_text(rng) for _ in range(60)] + ["", "2"]
    return [
        PredictionRecord(
            rng.choice(ids), rng.choice(EMOTIONS), rng.choice("AB"), rng.choice(raws),
            rng.choice([None, 0, 1, 2, 3, True, False]),
        )
        for _ in range(count)
    ]


class TestWritePredictions:
    @pytest.mark.parametrize("count", [50, 2 * exports._BATCH_LINES + 1], ids=["one-batch", "three-batches"])
    def test_lines_equal_the_json_encoder(self, tmp_path, count):
        records = prediction_records(count)
        assert any(r.parsed is True for r in records) and any(r.parsed is None for r in records)
        out = tmp_path / "predictions.jsonl"
        write_predictions(out, records)
        expected = "".join(_encode_line(r.as_dict()) + "\n" for r in records)
        assert out.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("field", ["raw_text", "snippet_id", "emotion"])
    def test_lone_surrogate_is_written_as_its_json_escape(self, tmp_path, field):
        # An endpoint answer cut off mid-emoji; UTF-8 cannot encode it, JSON can escape it.
        # A record built by hand may hold one in any string field.
        fields = {"snippet_id": "s1", "emotion": "joy", "track": "A", "raw_text": "bad", "parsed": None}
        record = PredictionRecord(**{**fields, field: "bad \ud800 \udfff"})
        out = tmp_path / "p.jsonl"
        write_predictions(out, [record])
        line = out.read_text(encoding="utf-8")
        assert line == json.dumps(record.as_dict()) + "\n"
        assert "\\ud800 \\udfff" in line
        assert PredictionRecord.from_dict(json.loads(line)) == record


def label_vectors(count, seed=7):
    """Vectors of both tracks, and marginalised ones, whose ids stress JSON
    escaping; intensity values repeat, so most lines share their tail."""
    rng = random.Random(seed)
    vectors = []
    for i in range(count):
        sid = f"{escape_text(rng)}#{i}"
        track = rng.choice("AB")
        values = {e: rng.randint(0, 1 if track == "A" else 3) for e in EMOTIONS}
        vector = LabelVector(sid, values, track)
        vectors.append(marginalise(vector) if track == "B" and rng.random() < 0.3 else vector)
    return vectors


class TestWriteVectors:
    @pytest.mark.parametrize("count", [50, 2 * exports._BATCH_LINES + 1], ids=["one-batch", "three-batches"])
    def test_lines_equal_the_json_encoder(self, tmp_path, count):
        vectors = label_vectors(count)
        assert {v.track for v in vectors} == {"A", "B"}
        out = tmp_path / "aggregated.jsonl"
        write_vectors(out, vectors)
        expected = "".join(
            _encode_line({"snippet_id": v.snippet_id, "track": v.track, "values": v.values}) + "\n" for v in vectors
        )
        assert out.read_bytes() == expected.encode("utf-8")

    def test_lone_surrogate_id_still_fails_to_encode(self, tmp_path):
        vector = LabelVector("bad \ud800", {"joy": 1}, "A")
        with pytest.raises(UnicodeEncodeError):
            write_vectors(tmp_path / "aggregated.jsonl", [vector])


class TestExportEbridgePlan:
    def _instances(self, language, count=4):
        return [
            inst(f"{language}{i}", f"text {i}", "joy", i % 2, language=language)
            for i in range(count)
        ]

    def test_plan_orders_english_then_target(self, tmp_path):
        eng, deu = self._instances("eng", count=6), self._instances("deu", count=3)
        assert export_ebridge_plan(eng, deu, "A", tmp_path) is None
        manifest = json.loads((tmp_path / "plan.json").read_text(encoding="utf-8"))
        assert manifest["kind"] == "staged_sft"
        assert manifest["template_id"] == "track_a"
        assert manifest["stages"] == [
            {
                "stage": 1,
                "language": "eng",
                "dataset": "stage1_eng.jsonl",
                "metadata": "stage1_eng.meta.json",
                "instances": 6,
            },
            {
                "stage": 2,
                "language": "deu",
                "dataset": "stage2_deu.jsonl",
                "metadata": "stage2_deu.meta.json",
                "instances": 3,
            },
        ]
        for stage in manifest["stages"]:
            assert (tmp_path / stage["metadata"]).is_file()

    def test_stage_two_must_differ_from_english(self, tmp_path):
        with pytest.raises(ValidationError):
            export_ebridge_plan(self._instances("eng"), self._instances("eng"), "A", tmp_path)

    def test_mixed_language_stage_rejected(self, tmp_path):
        mixed = self._instances("eng") + self._instances("deu", count=1)
        with pytest.raises(ValidationError):
            export_ebridge_plan(mixed, self._instances("deu"), "A", tmp_path)
        with pytest.raises(ValidationError):
            export_ebridge_plan(
                self._instances("eng"),
                self._instances("deu") + self._instances("ron", count=1),
                "A",
                tmp_path,
            )

    @pytest.mark.parametrize("empty_stage", [1, 2])
    def test_empty_stage_is_named(self, tmp_path, empty_stage):
        eng = [] if empty_stage == 1 else self._instances("eng")
        deu = [] if empty_stage == 2 else self._instances("deu")
        with pytest.raises(ValidationError, match=f"^stage {empty_stage} has no instances$"):
            export_ebridge_plan(eng, deu, "A", tmp_path)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("language", ["de/ch", "de\x00x", "de\tch", "de\x85"], ids=["slash", "nul", "tab", "c1"])
    def test_language_that_cannot_name_the_stage_two_file_writes_nothing(self, tmp_path, language):
        out = tmp_path / "plan"
        message = f"{language!r} names the stage-2 file; it may hold no '/' or control character"
        with pytest.raises(ValidationError) as info:
            export_ebridge_plan(self._instances("eng"), self._instances(language), "A", out)
        assert str(info.value) == message
        assert not out.exists()

    def test_language_with_a_lone_surrogate_writes_nothing(self, tmp_path):
        # A YAML "\\ud800" escape gives one; UTF-8 cannot encode the stage-2 file's name.
        out = tmp_path / "plan"
        with pytest.raises(ValidationError) as info:
            export_ebridge_plan(self._instances("eng"), self._instances("de\ud800"), "A", out)
        assert str(info.value) == "'de\\ud800' names the stage-2 file; it may hold no lone surrogate"
        assert not out.exists()

    # stage2_<language>.meta.json must fit Linux's NAME_MAX of 255 bytes: 17 go to the rest of the name.
    @pytest.mark.parametrize("language", ["x" * 239, "ß" * 120], ids=["239-ascii", "240-utf8"])
    def test_language_too_long_for_the_stage_two_file_writes_nothing(self, tmp_path, language):
        out = tmp_path / "plan"
        size = len(language.encode("utf-8"))
        message = f"{language!r} names the stage-2 file; it may be at most 238 UTF-8 bytes, not {size}"
        with pytest.raises(ValidationError) as info:
            export_ebridge_plan(self._instances("eng"), self._instances(language), "A", out)
        assert str(info.value) == message
        assert not out.exists()

    def test_longest_language_names_every_file(self, tmp_path):
        language = "x" * 238
        export_ebridge_plan(self._instances("eng"), self._instances(language), "A", tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [f"stage1_eng{suffix}" for suffix in (".jsonl", ".meta.json")]
            + [f"stage2_{language}{suffix}" for suffix in (".jsonl", ".meta.json")]
            + ["plan.json"]
        )

    def test_round_trip_counts(self, tmp_path):
        eng = self._instances("eng", count=6)
        deu = self._instances("deu", count=3)
        export_ebridge_plan(eng, deu, "A", tmp_path)
        assert len(read_jsonl(tmp_path / "stage1_eng.jsonl")) == 6
        assert len(read_jsonl(tmp_path / "stage2_deu.jsonl")) == 3
        manifest = json.loads((tmp_path / "plan.json").read_text(encoding="utf-8"))
        assert [s["instances"] for s in manifest["stages"]] == [6, 3]
