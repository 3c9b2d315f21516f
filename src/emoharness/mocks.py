"""Deterministic stand-in models for offline end-to-end runs.

Mocks receive the fully rendered prompt string, exactly like the HTTP
endpoint would. The ones that need the query text or emotion read them
back with ``prompting.extract_query``. An intensity prompt is read back
through its template's literal head and end; presence and few-shot prompts,
through a pattern built from the presence template. A statement text that
itself embeds a full presence block would confuse that recovery, which is
an accepted limit for test doubles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import LABEL_RANGES, TRACK_A, TRACK_B, TaskInstance
from .errors import ConfigError
from .prompting import extract_query


class AlwaysZeroMock:
    def respond(self, prompt: str) -> str:
        return "0"


class KeywordMock:
    """Scores by how often the queried emotion word appears in the text.

    Presence prompts get 1 when the word occurs at all; intensity prompts
    get the occurrence count capped at 3.

    A run asks about one text's emotions one after another, so the last text
    is kept with its lowercase as one ``(text, lowered)`` pair, replaced
    whole, and a text is lowered only when it differs from the kept one.
    """

    def __init__(self):
        self._last = ("", "")

    def respond(self, prompt: str) -> str:
        text, emotion, track = extract_query(prompt)
        last_text, lowered = self._last
        if text != last_text:
            lowered = text.lower()
            self._last = (text, lowered)
        count = lowered.count(emotion.lower())
        if track == TRACK_A:
            return "1" if count else "0"
        _, hi = LABEL_RANGES[TRACK_B]
        return str(min(hi, count))


@dataclass
class GoldLookupMock:
    """Answers with the gold label for the queried (text, emotion) pair.

    A perfect model over a known dataset; used to check pipeline identities
    such as intensity-to-presence consistency.
    """

    labels: dict[tuple[str, str], int]

    @classmethod
    def from_instances(cls, instances: list[TaskInstance]) -> "GoldLookupMock":
        return cls({(i.text, i.emotion): i.gold for i in instances})

    def respond(self, prompt: str) -> str:
        text, emotion, _ = extract_query(prompt)
        return str(self.labels[(text, emotion)])


BUILTIN_MOCKS = {
    "always-0": AlwaysZeroMock,
    "keyword": KeywordMock,
}


def build_mock(mock_id: str):
    if mock_id not in BUILTIN_MOCKS:
        known = ", ".join(sorted(BUILTIN_MOCKS))
        raise ConfigError(f"unknown mock {mock_id!r}; built-in mocks: {known}")
    return BUILTIN_MOCKS[mock_id]()
