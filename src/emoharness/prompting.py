"""Prompt templates: rendering presence, intensity and few-shot prompts, and reading them back."""

from __future__ import annotations

import functools
import re

from .corpus import EMOTIONS, TRACK_A, TRACK_B, EmotionSet
from .errors import ValidationError

TEMPLATES = {
    "track_a": (
        "You are detecting emotions on a statement written in {language}. "
        "Statement: {text}. Does this statement express {emotion}? "
        "Answer 1 for yes and 0 for no."
    ),
    "track_b": (
        "Task: Categorize the tweet into an intensity level of the specified "
        "emotion E, representing the mental state of the tweeter. "
        "0: no E can be inferred. 1: low amount of E can be inferred. "
        "2: moderate amount of E can be inferred. 3: high amount of E can be "
        "inferred. Tweet: {text} Emotion {emotion} Intensity class:"
    ),
}

#: The track each template renders prompts for: the one pairing of the two.
TEMPLATE_TRACKS = {"track_a": TRACK_A, "track_b": TRACK_B}
TEMPLATE_IDS = {track: tid for tid, track in TEMPLATE_TRACKS.items()}

_PLACEHOLDER = re.compile(r"\{(language|text|emotion)\}")

# Each template split once: literal text at even positions, placeholder
# names at odd positions.
_TEMPLATE_PARTS = {tid: tuple(_PLACEHOLDER.split(t)) for tid, t in TEMPLATES.items()}

# The presence read-back pattern, built from the same split: literals escaped,
# placeholders as named groups. The emotion is one word; language and text
# match lazily, so a few-shot prompt's blocks each match apart.
_GROUPS = {"language": r"(?P<language>.*?)", "text": r"(?P<text>.*?)", "emotion": r"(?P<emotion>\w+)"}
_PRESENCE_QUERY = re.compile(
    "".join(_GROUPS[part] if i % 2 else re.escape(part) for i, part in enumerate(_TEMPLATE_PARTS["track_a"])),
    re.DOTALL,
)
_WORD = re.compile(r"\w+")


@functools.lru_cache(maxsize=256)
def frame(template_id: str, language: str, emotion: str) -> tuple[str, str]:
    """The template text around ``{text}`` as ``(head, tail)``, with the
    language and emotion filled in: a zero-shot prompt is ``head + text + tail``.

    The emotion is not checked here; ``render_zero_shot`` checks it.
    """
    parts = _TEMPLATE_PARTS.get(template_id)
    if parts is None:
        raise ValueError(f"unknown template id {template_id!r}")
    at = 2 * parts[1::2].index("text") + 1
    values = {"language": language, "emotion": emotion}
    filled = [values[part] if i % 2 else part for i, part in enumerate(parts) if i != at]
    return "".join(filled[:at]), "".join(filled[at:])


def render_zero_shot(
    template_id: str,
    text: str,
    language: str,
    emotion: str,
    emotion_set: EmotionSet | None = None,
) -> str:
    """Substitute the template placeholders and nothing else.

    The statement text is inserted raw between the template's ``frame``:
    no escaping, trimming or reflowing, and braces inside it are never
    re-expanded. ``emotion`` is checked against ``emotion_set`` when given,
    else against the six known emotions.
    """
    head, tail = frame(template_id, language, emotion)
    allowed = emotion_set.emotions if emotion_set is not None else EMOTIONS
    if emotion not in allowed:
        raise ValidationError(f"emotion {emotion!r} not in active set {list(allowed)}")
    return head + text + tail


def extract_query(prompt: str) -> tuple[str, str, str]:
    """Recover (text, emotion, track) from a rendered prompt.

    An intensity prompt is read back through its template's literals: it
    must start with the text before ``{text}`` and end with the text after
    ``{emotion}``, and the emotion is the one word after the last
    ``" Emotion "`` separator between them. A word holds no space, so no
    earlier separator could end the emotion; a text holding the separator
    reads back whole. Few-shot prompts contain several presence blocks,
    found by a pattern built from the presence template; the query is
    always the final one.
    """
    head, _, separator, _, end = _TEMPLATE_PARTS["track_b"]
    if prompt.startswith(head) and prompt.endswith(end):
        text, found, emotion = prompt[len(head) : len(prompt) - len(end)].rpartition(separator)
        if found and _WORD.fullmatch(emotion):
            return text, emotion, TRACK_B
    matches = list(_PRESENCE_QUERY.finditer(prompt))
    if matches:
        last = matches[-1]
        return last["text"], last["emotion"], TRACK_A
    raise ValueError(f"prompt does not match a known template: {prompt[:120]!r}")


def render_few_shot(
    examples: list[tuple[str, int]],
    query_text: str,
    language: str,
    emotion: str,
    emotion_set: EmotionSet | None = None,
) -> str:
    """Assemble a k-shot presence prompt from retrieved labelled examples.

    Each example ``(text, gold)``, labelled for the queried emotion, becomes
    the zero-shot presence prompt followed by an ``Answer: {gold}`` line;
    blocks are separated by blank lines and the query's zero-shot prompt
    comes last. No examples degenerates to plain zero-shot rendering.
    """
    query = render_zero_shot("track_a", query_text, language, emotion, emotion_set)
    head, tail = frame("track_a", language, emotion)
    blocks = []
    for text, gold in examples:
        if type(gold) is not int or gold not in (0, 1):
            raise ValidationError(f"example gold {gold!r} is not a presence label")
        blocks.append(f"{head}{text}{tail}\nAnswer: {gold}")
    blocks.append(query)
    return "\n\n".join(blocks)
