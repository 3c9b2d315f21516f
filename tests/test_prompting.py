"""Template rendering: exact zero-shot strings and few-shot assembly."""

from pathlib import Path

import pytest

from emoharness import (
    EmotionSet,
    ValidationError,
    render_few_shot,
    render_zero_shot,
)
from emoharness.prompting import _PLACEHOLDER, TEMPLATES, frame

GOLDEN_DIR = Path(__file__).parent / "fixtures" / "golden_prompts"

# (file, template, text, language display name, emotion)
GOLDEN_CASES = [
    ("eng_track_a.txt", "track_a", "I finally passed my exam!", "English", "joy"),
    ("deu_track_a.txt", "track_a", "Ich habe so eine Wut auf dich.", "German", "anger"),
    ("chn_track_a.txt", "track_a", "今天的天气真是太好了！", "Chinese", "joy"),
    ("eng_track_b.txt", "track_b", "I can't stop crying.", "English", "sadness"),
    ("deu_track_b.txt", "track_b", "Das macht mir große Angst.", "German", "fear"),
    ("chn_track_b.txt", "track_b", "我真的气坏了。", "Chinese", "anger"),
]


class TestZeroShot:
    @pytest.mark.parametrize("filename,template,text,language,emotion", GOLDEN_CASES)
    def test_byte_identical_to_golden_file(self, filename, template, text, language, emotion):
        rendered = render_zero_shot(template, text, language, emotion)
        golden = (GOLDEN_DIR / filename).read_bytes()
        assert rendered.encode("utf-8") == golden
        head, tail = frame(template, language, emotion)
        assert (head + text + tail).encode("utf-8") == golden

    def test_presence_rendering(self):
        assert render_zero_shot("track_a", "I won!", "English", "joy") == (
            "You are detecting emotions on a statement written in English. "
            "Statement: I won!. Does this statement express joy? "
            "Answer 1 for yes and 0 for no."
        )

    def test_intensity_rendering_shape(self):
        rendered = render_zero_shot("track_b", "so tired", "English", "sadness")
        assert rendered.startswith("Task: Categorize the tweet into an intensity level")
        assert rendered.endswith("Emotion sadness Intensity class:")
        assert "Tweet: so tired " in rendered

    def test_no_residual_placeholders(self):
        for template in ("track_a", "track_b"):
            rendered = render_zero_shot(template, "plain", "English", "joy")
            for marker in ("{text}", "{language}", "{emotion}"):
                assert marker not in rendered

    @pytest.mark.parametrize("template", ["track_a", "track_b"])
    @pytest.mark.parametrize(
        "text,language",
        [
            ("I said {emotion} loudly", "English"),
            ("{text} {language} {emotion}", "English"),
            (r"\1 \g<0>", "English"),
            ("{{x}}", "English"),
            ("plain", "{text}"),
        ],
        ids=["emotion_in_text", "all_placeholders", "backreferences", "double_braces", "placeholder_language"],
    )
    def test_braces_in_text_stay_literal(self, template, text, language):
        values = {"language": language, "text": text, "emotion": "joy"}
        reference = _PLACEHOLDER.sub(lambda m: values[m.group(1)], TEMPLATES[template])
        rendered = render_zero_shot(template, text, language, "joy")
        assert rendered == reference
        assert text in rendered
        assert rendered.count("joy") == 1

    def test_unknown_template_id(self):
        with pytest.raises(ValueError, match="unknown template id 'track_c'"):
            render_zero_shot("track_c", "x", "English", "boredom")
        with pytest.raises(ValueError, match="unknown template id 'track_c'"):
            frame("track_c", "English", "joy")

    def test_frame_follows_a_replaced_template(self, replace_template):
        assert frame("track_a", "English", "joy")[0].startswith("You are detecting")
        replace_template("track_a", ("[", "language", "] ", "text", " (", "emotion", ")"))
        assert frame("track_a", "English", "joy") == ("[English] ", " (joy)")
        assert render_zero_shot("track_a", "t", "English", "joy") == "[English] t (joy)"

    def test_emotion_outside_active_set(self):
        eng = EmotionSet.for_language("eng")
        with pytest.raises(ValidationError):
            render_zero_shot("track_a", "x", "English", "disgust", emotion_set=eng)
        with pytest.raises(ValidationError):
            render_zero_shot("track_a", "x", "English", "boredom")

    def test_injective_on_text_and_emotion(self):
        seen = set()
        for text in ("one", "two", "three"):
            for emotion in ("joy", "fear"):
                seen.add(render_zero_shot("track_a", text, "English", emotion))
        assert len(seen) == 6


class TestFewShot:
    def test_single_example_structure(self):
        prompt = render_few_shot([("Great win today", 1)], "I lost", "English", "joy")
        assert prompt.count("You are detecting emotions") == 2
        assert "Answer: 1" in prompt
        assert prompt.endswith("Answer 1 for yes and 0 for no.")
        example_block, query_block = prompt.split("\n\n")
        assert example_block.endswith("Answer: 1")
        assert query_block == render_zero_shot("track_a", "I lost", "English", "joy")

    def test_zero_examples_degenerates_to_zero_shot(self):
        prompt = render_few_shot([], "I lost", "English", "joy")
        assert prompt == render_zero_shot("track_a", "I lost", "English", "joy")

    def test_example_order_preserved(self):
        prompt = render_few_shot(
            [("happy text", 1), ("flat text", 0)],
            "query text",
            "English",
            "joy",
        )
        assert prompt.index("Answer: 1") < prompt.index("Answer: 0")
        assert prompt.count("Answer: ") == 2

    def test_example_gold_must_be_presence_label(self):
        with pytest.raises(ValidationError):
            render_few_shot([("a", 3)], "q", "English", "joy")

    @pytest.mark.parametrize("gold", [True, 1.0], ids=["bool", "float"])
    def test_example_gold_must_be_an_int(self, gold):
        # Rendering would write "Answer: True" or "Answer: 1.0".
        with pytest.raises(ValidationError, match=rf"gold {gold!r} is not a presence label"):
            render_few_shot([("a", gold)], "q", "English", "joy")

    def test_blocks_separated_by_blank_line(self):
        prompt = render_few_shot(
            [("one", 0), ("two", 1), ("three", 0)],
            "query",
            "English",
            "joy",
        )
        blocks = prompt.split("\n\n")
        assert len(blocks) == 4
        assert all(b.endswith(("Answer: 0", "Answer: 1")) for b in blocks[:-1])
