"""Seeded random fixture generators shared by the tests."""

import csv
import random
from pathlib import Path

from emoharness import EmotionSet, LabelVector, Snippet

# Includes the emotion names so the keyword mock has something to find.
WORDS = [
    "anger", "disgust", "fear", "joy", "sadness", "surprise",
    "the", "a", "day", "rain", "sun", "exam", "friend", "news", "storm",
    "quiet", "loud", "bright", "dark", "road", "home", "work", "song",
    "letter", "win", "loss", "smile", "tears", "heart", "open", "closed",
]


def random_text(rng: random.Random, min_words: int = 2, max_words: int = 8) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(min_words, max_words)))


def make_snippets(
    rng: random.Random,
    count: int,
    emotion_set: EmotionSet,
    track: str,
    positive_rate: float = 0.4,
    prefix: str = "s",
) -> list[Snippet]:
    hi = 1 if track == "A" else 3
    snippets = []
    for i in range(count):
        labels = {}
        for emotion in emotion_set:
            if rng.random() < positive_rate:
                labels[emotion] = rng.randint(1, hi)
            else:
                labels[emotion] = 0
        snippets.append(
            Snippet(f"{prefix}{i:04d}", random_text(rng), emotion_set.language_code, labels)
        )
    return snippets


def write_csv(path: Path, snippets: list[Snippet], emotion_set: EmotionSet) -> Path:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "text"] + list(emotion_set.emotions))
        for s in snippets:
            writer.writerow([s.id, s.text] + [s.labels[e] for e in emotion_set])
    return path


def vectors_from_snippets(snippets: list[Snippet], track: str) -> list[LabelVector]:
    return [LabelVector(s.id, dict(s.labels), track) for s in snippets]


def random_vectors(
    rng: random.Random, ids: list[str], emotions, track: str
) -> list[LabelVector]:
    hi = 1 if track == "A" else 3
    return [
        LabelVector(sid, {e: rng.randint(0, hi) for e in emotions}, track) for sid in ids
    ]


def make_corpus(rng: random.Random, n_docs: int, max_tokens: int = 30) -> list[tuple[str, str]]:
    """Punctuation-free corpus so any sane tokenizer agrees on the tokens."""
    return [
        (f"d{i:03d}", " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, max_tokens))))
        for i in range(n_docs)
    ]


# Pieces that JSON escaping or prompt rendering could get wrong: quotes,
# backslashes, every control character, U+2028/U+2029, characters outside the
# BMP, braces and placeholder names, and fragments of both templates.
ESCAPE_FRAGMENTS = (
    ['"', "\\", '\\"', "\x7f", "\u2028", "\u2029", "\U0001f600", "\U00010348", "ß", "é"]
    + [chr(c) for c in range(0x20)]
    + ["{", "}", "{text}", "{language}", "{emotion}", "{{text}}", "{}"]
    + [". Statement: ", "Tweet: ", " Emotion ", " Intensity class:", "Answer 1 for yes and 0 for no."]
    + WORDS
)


def escape_text(rng: random.Random, max_fragments: int = 8) -> str:
    """A non-empty text built from ``ESCAPE_FRAGMENTS`` and spaces."""
    pieces = [rng.choice(ESCAPE_FRAGMENTS) for _ in range(rng.randint(1, max_fragments))]
    return "".join(p + rng.choice(("", " ")) for p in pieces)
