"""Deterministic mock models and prompt query recovery."""

import random
import re

import pytest

from emoharness import (
    AlwaysZeroMock,
    ConfigError,
    GoldLookupMock,
    KeywordMock,
    TaskInstance,
    build_mock,
    render_few_shot,
    render_zero_shot,
)
from emoharness.mocks import extract_query
from emoharness.prompting import _PLACEHOLDER, TEMPLATE_TRACKS, TEMPLATES
from datagen import ESCAPE_FRAGMENTS


#: (text, language) pairs that a rendered prompt must read back from: a plain
#: text, the five cases of test_braces_in_text_stay_literal, a non-ASCII text
#: and a text holding the intensity template's " Emotion " separator.
ROUND_TRIP_CASES = [
    pytest.param("I feel great", "English", id="plain"),
    pytest.param("I said {emotion} loudly", "English", id="emotion_in_text"),
    pytest.param("{text} {language} {emotion}", "English", id="all_placeholders"),
    pytest.param(r"\1 \g<0>", "English", id="backreferences"),
    pytest.param("{{x}}", "English", id="double_braces"),
    pytest.param("plain", "{text}", id="placeholder_language"),
    pytest.param("Schöne Grüße, 我很高兴 😀", "Deutsch", id="non_ascii"),
    pytest.param("fear Emotion joy Intensity class: or not", "English", id="emotion_separator"),
]


class TestExtractQuery:
    @pytest.mark.parametrize("text,language", ROUND_TRIP_CASES)
    def test_presence_prompt(self, text, language):
        prompt = render_zero_shot("track_a", text, language, "joy")
        assert extract_query(prompt) == (text, "joy", "A")

    @pytest.mark.parametrize("text,language", ROUND_TRIP_CASES)
    def test_intensity_prompt(self, text, language):
        prompt = render_zero_shot("track_b", text, language, "sadness")
        assert extract_query(prompt) == (text, "sadness", "B")

    @pytest.mark.parametrize("text,language", ROUND_TRIP_CASES)
    def test_few_shot_prompt_returns_final_query(self, text, language):
        prompt = render_few_shot([("example text", 1)], text, language, "joy")
        assert extract_query(prompt) == (text, "joy", "A")

    def test_unrecognized_prompt(self):
        with pytest.raises(ValueError):
            extract_query("Tell me a story.")

    def test_matches_the_full_template_patterns(self):
        # The reference is the read-back this replaced: each template split on
        # its placeholders into one pattern, literals escaped, that an
        # intensity prompt must match whole.
        groups = {"language": r"(?P<language>.*?)", "text": r"(?P<text>.*?)", "emotion": r"(?P<emotion>\w+)"}
        patterns = {
            TEMPLATE_TRACKS[tid]: re.compile(
                "".join(groups[p] if i % 2 else re.escape(p) for i, p in enumerate(_PLACEHOLDER.split(t))),
                re.DOTALL,
            )
            for tid, t in TEMPLATES.items()
        }

        def reference(prompt):
            match = patterns["B"].fullmatch(prompt)
            if match:
                return match["text"], match["emotion"], "B"
            matches = list(patterns["A"].finditer(prompt))
            if matches:
                return matches[-1]["text"], matches[-1]["emotion"], "A"
            raise ValueError(f"prompt does not match a known template: {prompt[:120]!r}")

        def outcome(read, prompt):
            try:
                return read(prompt)
            except ValueError as exc:
                return str(exc)

        rng = random.Random(16)
        pieces = ESCAPE_FRAGMENTS + ["_", "é", "٣", "\x00", "\n", "Emotion", "joy", " ", "jo_y٣"]
        words = ["joy", "sadness", "jo_y", "é٣", "_", "", "jo y", "joy\n", "x Emotion y", "\x00"]
        head, _, separator, _, end = _PLACEHOLDER.split(TEMPLATES["track_b"])
        outcomes = {"A": 0, "B": 0, "error": 0}

        def text():
            return "".join(rng.choice(pieces) for _ in range(rng.randint(0, 6)))

        for _ in range(12000):
            kind = rng.randrange(5)
            if kind == 0:
                prompt = render_zero_shot("track_b", text(), text(), rng.choice(["joy", "sadness", "fear"]))
            elif kind == 1:  # any emotion word, or none, after a whole, partial or missing separator
                sep = rng.choice([separator, separator, "", separator[1:], separator[:-1]])
                prompt = head + text() + sep + rng.choice(words) + end
            elif kind == 2:
                examples = [(text(), rng.randint(0, 1)) for _ in range(rng.randint(0, 2))]
                prompt = render_few_shot(examples, text(), text(), "joy")
            elif kind == 3:
                prompt = render_zero_shot("track_a", text(), text(), "anger")
            else:
                prompt = text()
            cut = rng.randint(0, len(prompt))
            mutation = rng.randrange(5)
            if mutation == 1:
                prompt = prompt[:cut] if rng.random() < 0.5 else prompt[cut:]
            elif mutation == 2:
                prompt = prompt[:cut] + rng.choice(pieces) + prompt[cut:]
            elif mutation == 3:
                prompt = prompt[:cut] + prompt[cut + 1 :]
            expected = outcome(reference, prompt)
            assert outcome(extract_query, prompt) == expected, prompt
            outcomes[expected[2] if isinstance(expected, tuple) else "error"] += 1
        # Every way out of the read-back is taken often.
        assert min(outcomes.values()) > 1000, outcomes


class TestBuiltinMocks:
    def test_always_zero(self):
        assert AlwaysZeroMock().respond("anything") == "0"

    def test_keyword_presence(self):
        mock = KeywordMock()
        hit = render_zero_shot("track_a", "there is joy here", "English", "joy")
        miss = render_zero_shot("track_a", "nothing here", "English", "joy")
        assert mock.respond(hit) == "1"
        assert mock.respond(miss) == "0"

    def test_keyword_intensity_counts_occurrences(self):
        mock = KeywordMock()
        double = render_zero_shot("track_b", "fear upon fear", "English", "fear")
        many = render_zero_shot("track_b", "fear fear fear fear", "English", "fear")
        assert mock.respond(double) == "2"
        assert mock.respond(many) == "3"  # capped at the intensity ceiling

    def test_keyword_mock_keeps_no_stale_text(self):
        # One mock answers a stream whose texts repeat, interleave (A, B, A)
        # and differ only in case or by one character, "İ" among them, whose
        # lowercase is two characters long; a fresh mock is the reference.
        texts = [
            "joy and JOY", "Joy and joy", "joy and jox", "İjoy joy JOY", "i̇joy joy joy", "İ",
            "FEAR fear İfear", "fear fear ifear", "sadness SADNESS Sadness sadness", "anger Surprise ANGER",
        ]
        rng = random.Random(22)
        shared = KeywordMock()
        answers = set()
        previous = []
        for _ in range(600):
            roll = rng.random()
            if previous and roll < 0.3:  # back to a text asked about two turns ago
                text = previous[-2] if len(previous) > 1 else previous[-1]
            elif roll < 0.5:
                text = "".join(c.swapcase() if rng.random() < 0.3 else c for c in rng.choice(texts))
            else:
                text = rng.choice(texts)
            previous.append(text)
            kind = rng.randrange(3)
            for emotion in rng.sample(["anger", "fear", "joy", "sadness", "surprise"], rng.randint(1, 5)):
                if kind == 0:
                    prompt = render_zero_shot("track_a", text, "English", emotion)
                elif kind == 1:
                    prompt = render_zero_shot("track_b", text, "Turkish", emotion)
                else:
                    prompt = render_few_shot([(rng.choice(texts), rng.randint(0, 1))], text, "English", emotion)
                answer = shared.respond(prompt)
                assert answer == KeywordMock().respond(prompt), prompt
                answers.add(answer)
        assert answers == {"0", "1", "2", "3"}

    def test_build_mock_ids(self):
        assert isinstance(build_mock("always-0"), AlwaysZeroMock)
        assert isinstance(build_mock("keyword"), KeywordMock)

    def test_build_mock_unknown_id(self):
        with pytest.raises(ConfigError, match="keyword"):
            build_mock("gpt-5")


class TestGoldLookupMock:
    def test_returns_gold_for_queried_pair(self):
        instances = [
            TaskInstance("s1", "happy text", "eng", "joy", 3, "B"),
            TaskInstance("s1", "happy text", "eng", "fear", 0, "B"),
        ]
        mock = GoldLookupMock.from_instances(instances)
        joy = render_zero_shot("track_b", "happy text", "English", "joy")
        fear = render_zero_shot("track_b", "happy text", "English", "fear")
        assert mock.respond(joy) == "3"
        assert mock.respond(fear) == "0"

    def test_unknown_pair_raises(self):
        mock = GoldLookupMock({})
        with pytest.raises(KeyError):
            mock.respond(render_zero_shot("track_b", "unseen", "English", "joy"))
