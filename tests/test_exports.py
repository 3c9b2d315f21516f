"""Instruction-dataset JSONL export and the two-stage fine-tuning plan."""

import json
import random

import pytest

from emoharness import (
    EMOTIONS,
    HYPERPARAMETERS,
    LEARNING_RATES,
    ConfigError,
    TaskInstance,
    ValidationError,
    display_name,
    export_ebridge_plan,
    export_sft_dataset,
    render_zero_shot,
)
from emoharness import exports
from emoharness.exports import _encode_line
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
    some unknown codes (shown as themselves) hold quotes or backslashes. A
    text and a code hold "\x00", the character the writer splits prompts at.
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


class TestExportBytes:
    @pytest.mark.parametrize("track", ["A", "B"])
    def test_lines_equal_the_json_encoder(self, tmp_path, track):
        instances = escape_instances(track)
        out = tmp_path / "sft.jsonl"
        export_sft_dataset(instances, track, out)
        expected = "".join(
            _encode_line({
                "instruction": render_zero_shot(
                    TEMPLATE_IDS[track], i.text, display_name(i.language), i.emotion
                ),
                "output": str(i.gold),
            })
            + "\n"
            for i in instances
        )
        assert out.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize(
        "count",
        [exports._BATCH_LINES + 1, 2 * exports._BATCH_LINES],
        ids=["batch-and-one", "two-batches"],
    )
    def test_lines_across_write_batches(self, tmp_path, count):
        instances = escape_instances("B", count=count)
        out = tmp_path / "sft.jsonl"
        export_sft_dataset(instances, "B", out)
        expected = "".join(
            _encode_line({
                "instruction": render_zero_shot("track_b", i.text, display_name(i.language), i.emotion),
                "output": str(i.gold),
            })
            + "\n"
            for i in instances
        )
        assert out.read_bytes() == expected.encode("utf-8")

    def test_renders_through_the_module_name(self, tmp_path, monkeypatch):
        # bench/child.py counts prompt renders by wrapping this name. The
        # writer renders each (language, emotion) pair once, not each line.
        calls = []

        def counting(*args):
            calls.append(args)
            return render_zero_shot(*args)

        monkeypatch.setattr(exports, "render_zero_shot", counting)
        instances = escape_instances("A", count=50)
        out = tmp_path / "sft.jsonl"
        export_sft_dataset(instances, "A", out)
        pairs = {(exports._escape(display_name(i.language)), i.emotion) for i in instances}
        assert sorted(args[2:] for args in calls) == sorted(pairs)
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

    def test_escaping_template_literal_fails_at_import(self, monkeypatch):
        monkeypatch.setattr(exports, "_TEMPLATE_PARTS", {"quoted": ('Say "', "text", '" now')})
        with pytest.raises(RuntimeError, match="JSON escaping changes"):
            exports._check_escape_free()


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

    def test_round_trip_counts(self, tmp_path):
        eng = self._instances("eng", count=6)
        deu = self._instances("deu", count=3)
        export_ebridge_plan(eng, deu, "A", tmp_path)
        assert len(read_jsonl(tmp_path / "stage1_eng.jsonl")) == 6
        assert len(read_jsonl(tmp_path / "stage2_deu.jsonl")) == 3
        manifest = json.loads((tmp_path / "plan.json").read_text(encoding="utf-8"))
        assert [s["instances"] for s in manifest["stages"]] == [6, 3]
