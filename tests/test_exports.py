"""Instruction-dataset JSONL export and the two-stage fine-tuning plan."""

import json
import random

import pytest

from emoharness import (
    EMOTIONS,
    HYPERPARAMETERS,
    LEARNING_RATES,
    ConfigError,
    SftExportConfig,
    TaskInstance,
    ValidationError,
    display_name,
    export_ebridge_plan,
    export_sft_dataset,
    render_zero_shot,
)
from emoharness import exports
from emoharness.exports import _encode_line
from datagen import escape_text


def inst(sid, text, emotion, gold, track="A", language="eng"):
    return TaskInstance(sid, text, language, emotion, gold, track)


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


class TestSftExportConfig:
    def test_for_track_a(self):
        config = SftExportConfig.for_track("A")
        assert config.template_id == "track_a"
        assert config.hyperparameters["learning_rate"] == 2e-5

    def test_for_track_b(self):
        config = SftExportConfig.for_track("B")
        assert config.template_id == "track_b"
        assert config.hyperparameters["learning_rate"] == 5e-5

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

    def test_unknown_template_rejected(self):
        with pytest.raises(ConfigError):
            SftExportConfig("track_c", {})


class TestExportSftDataset:
    def test_presence_line_shape(self, tmp_path):
        out = tmp_path / "sft.jsonl"
        summary = export_sft_dataset(
            [inst("s1", "good news", "joy", 1)], SftExportConfig.for_track("A"), out
        )
        (line,) = read_jsonl(out)
        assert set(line) == {"instruction", "output"}
        assert line["instruction"].endswith("Answer 1 for yes and 0 for no.")
        assert line["output"] == "1"
        assert summary.instance_count == 1

    def test_intensity_gold_three(self, tmp_path):
        out = tmp_path / "sft.jsonl"
        export_sft_dataset(
            [inst("s1", "fuming", "anger", 3, track="B")], SftExportConfig.for_track("B"), out
        )
        (line,) = read_jsonl(out)
        assert line["output"] == "3"
        assert line["instruction"].startswith("Task: Categorize the tweet")

    def test_empty_instances(self, tmp_path):
        out = tmp_path / "sft.jsonl"
        summary = export_sft_dataset([], SftExportConfig.for_track("A"), out)
        assert out.read_text(encoding="utf-8") == ""
        meta = json.loads(summary.metadata_path.read_text(encoding="utf-8"))
        assert meta["instances"] == 0

    def test_metadata_carries_hyperparameters_verbatim(self, tmp_path):
        out = tmp_path / "sft.jsonl"
        summary = export_sft_dataset(
            [inst("s1", "good", "joy", 1), inst("s1b", "bad", "sadness", 1)],
            SftExportConfig.for_track("A"),
            out,
        )
        meta = json.loads(summary.metadata_path.read_text(encoding="utf-8"))
        assert meta["hyperparameters"] == dict(HYPERPARAMETERS, learning_rate=2e-5)
        assert meta["template_id"] == "track_a"
        assert meta["instances"] == 2
        assert meta["per_emotion"] == {"joy": 1, "sadness": 1}
        assert meta["languages"] == ["eng"]

    def test_track_mismatch_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            export_sft_dataset(
                [inst("s1", "x", "joy", 2, track="B")],
                SftExportConfig.for_track("A"),
                tmp_path / "sft.jsonl",
            )

    def test_non_ascii_text_is_not_escaped(self, tmp_path):
        out = tmp_path / "sft.jsonl"
        export_sft_dataset(
            [inst("s1", "große Freude", "joy", 1, language="deu")],
            SftExportConfig.for_track("A"),
            out,
        )
        raw = out.read_text(encoding="utf-8")
        assert "große Freude" in raw
        assert "\\u" not in raw
        assert "written in German" in raw

    def test_every_line_is_json_with_two_keys(self, tmp_path):
        out = tmp_path / "sft.jsonl"
        instances = [inst(f"s{i}", f"text {i}", "joy", i % 2) for i in range(10)]
        export_sft_dataset(instances, SftExportConfig.for_track("A"), out)
        lines = read_jsonl(out)
        assert len(lines) == 10
        assert all(set(line) == {"instruction", "output"} for line in lines)


def escape_instances(track, count=400, seed=7):
    """Instances whose texts and language codes stress JSON escaping.

    Texts repeat across instances; some texts equal a language code, and
    some unknown codes (shown as themselves) hold quotes or backslashes.
    """
    rng = random.Random(seed)
    languages = ["eng", "deu", 'x"y', "a\\b", "q\u2028\x01"]
    texts = [escape_text(rng) for _ in range(60)] + languages
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
        config = SftExportConfig.for_track(track)
        instances = escape_instances(track)
        out = tmp_path / "sft.jsonl"
        export_sft_dataset(instances, config, out)
        expected = "".join(
            _encode_line({
                "instruction": render_zero_shot(
                    config.template_id, i.text, display_name(i.language), i.emotion
                ),
                "output": str(i.gold),
            })
            + "\n"
            for i in instances
        )
        assert out.read_bytes() == expected.encode("utf-8")

    def test_renders_through_the_module_name(self, tmp_path, monkeypatch):
        # bench/child.py counts prompt renders by wrapping this name.
        calls = []

        def counting(*args):
            calls.append(args)
            return render_zero_shot(*args)

        monkeypatch.setattr(exports, "render_zero_shot", counting)
        instances = escape_instances("A", count=50)
        out = tmp_path / "sft.jsonl"
        export_sft_dataset(instances, SftExportConfig.for_track("A"), out)
        # JSON escapes newlines inside strings, so each raw one ends a line.
        assert len(calls) == out.read_bytes().count(b"\n") == 50

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
        plan = export_ebridge_plan(
            self._instances("eng"),
            self._instances("deu"),
            SftExportConfig.for_track("A"),
            tmp_path,
        )
        manifest = json.loads(plan.plan_path.read_text(encoding="utf-8"))
        assert [s["language"] for s in manifest["stages"]] == ["eng", "deu"]
        assert manifest["stages"][0]["dataset"] == "stage1_eng.jsonl"
        assert manifest["stages"][1]["dataset"] == "stage2_deu.jsonl"

    def test_stage_two_must_differ_from_english(self, tmp_path):
        with pytest.raises(ValidationError):
            export_ebridge_plan(
                self._instances("eng"),
                self._instances("eng"),
                SftExportConfig.for_track("A"),
                tmp_path,
            )

    def test_mixed_language_stage_rejected(self, tmp_path):
        mixed = self._instances("eng") + self._instances("deu", count=1)
        with pytest.raises(ValidationError):
            export_ebridge_plan(
                mixed, self._instances("deu"), SftExportConfig.for_track("A"), tmp_path
            )
        with pytest.raises(ValidationError):
            export_ebridge_plan(
                self._instances("eng"),
                self._instances("deu") + self._instances("ron", count=1),
                SftExportConfig.for_track("A"),
                tmp_path,
            )

    def test_round_trip_counts(self, tmp_path):
        eng = self._instances("eng", count=6)
        deu = self._instances("deu", count=3)
        plan = export_ebridge_plan(eng, deu, SftExportConfig.for_track("A"), tmp_path)
        assert len(read_jsonl(plan.stage1.dataset_path)) == 6
        assert len(read_jsonl(plan.stage2.dataset_path)) == 3
        manifest = json.loads(plan.plan_path.read_text(encoding="utf-8"))
        assert [s["instances"] for s in manifest["stages"]] == [6, 3]
