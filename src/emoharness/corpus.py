"""Dataset ingestion and per-emotion instance construction.

A multi-label dataset arrives as one CSV per language with one column per
emotion. Every row becomes a :class:`Snippet`; :func:`explode` turns each
snippet into one classification instance per emotion so a model can answer
the emotions independently.
"""

from __future__ import annotations

import csv
import logging
import random
from dataclasses import dataclass, field
from pathlib import Path

from .errors import SchemaError, ValidationError

log = logging.getLogger(__name__)

#: Canonical emotion order; every EmotionSet is an ordered subset of this.
EMOTIONS = ("anger", "disgust", "fear", "joy", "sadness", "surprise")

TRACK_A = "A"  # presence labels in {0, 1}
TRACK_B = "B"  # intensity labels in {0, 1, 2, 3}
TRACKS = (TRACK_A, TRACK_B)

LABEL_RANGES = {TRACK_A: (0, 1), TRACK_B: (0, 3)}

#: The digits a label is written with. ``str.isdigit`` would also accept
#: non-ASCII ones, such as the Arabic-Indic and Devanagari digits.
ASCII_DIGITS = "0123456789"

#: Languages whose annotation scheme drops one of the six emotions.
EMOTION_SET_OVERRIDES = {
    "eng": ("anger", "fear", "joy", "sadness", "surprise"),
    "afr": ("anger", "disgust", "fear", "joy", "sadness"),
}

#: English display names used when rendering prompts; ``display_name`` falls
#: back to the code itself for a language not listed here.
LANGUAGE_NAMES = {
    "afr": "Afrikaans",
    "amh": "Amharic",
    "arq": "Algerian Arabic",
    "ary": "Moroccan Arabic",
    "chn": "Chinese",
    "deu": "German",
    "eng": "English",
    "esp": "Spanish",
    "hau": "Hausa",
    "hin": "Hindi",
    "ibo": "Igbo",
    "ind": "Indonesian",
    "jav": "Javanese",
    "kin": "Kinyarwanda",
    "mar": "Marathi",
    "orm": "Oromo",
    "pcm": "Nigerian Pidgin",
    "ptbr": "Brazilian Portuguese",
    "ptmz": "Mozambican Portuguese",
    "ron": "Romanian",
    "rus": "Russian",
    "som": "Somali",
    "sun": "Sundanese",
    "swa": "Swahili",
    "swe": "Swedish",
    "tat": "Tatar",
    "tir": "Tigrinya",
    "ukr": "Ukrainian",
    "vmw": "Emakhuwa",
    "xho": "isiXhosa",
    "yor": "Yoruba",
    "zul": "isiZulu",
}


def display_name(language_code: str) -> str:
    """English display name for a language code; falls back to the code."""
    return LANGUAGE_NAMES.get(language_code, language_code)


@dataclass(frozen=True)
class EmotionSet:
    """Ordered set of emotions annotated for one language."""

    language_code: str
    emotions: tuple[str, ...] = EMOTIONS

    def __post_init__(self):
        if not self.emotions:
            raise ValidationError("emotion set must not be empty")
        if len(set(self.emotions)) != len(self.emotions):
            raise ValidationError(f"duplicate emotions in {self.emotions!r}")
        unknown = [e for e in self.emotions if e not in EMOTIONS]
        if unknown:
            raise ValidationError(f"unknown emotion(s): {', '.join(unknown)}")

    @classmethod
    def for_language(cls, language_code: str) -> "EmotionSet":
        """The default set for a language, honouring per-language exceptions."""
        return cls(language_code, EMOTION_SET_OVERRIDES.get(language_code, EMOTIONS))

    def __iter__(self):
        return iter(self.emotions)

    def __len__(self):
        return len(self.emotions)

    def __contains__(self, emotion):
        return emotion in self.emotions


@dataclass(slots=True)
class Snippet:
    """One annotated text with a label per emotion."""

    id: str
    text: str
    language: str
    labels: dict[str, int]


@dataclass(slots=True)
class TaskInstance:
    """One (text, emotion) classification instance with its gold target."""

    snippet_id: str
    text: str
    language: str
    emotion: str
    gold: int
    track: str


@dataclass(frozen=True)
class ColumnSchema:
    """Maps the harness' logical columns onto a CSV's actual header names.

    Emotion columns default to the emotion names themselves; ``emotions``
    overrides individual ones. ``id``, ``text`` and all six emotions' columns
    must be pairwise distinct, even for a language without one of the
    emotions: a schema does not know its emotion set, and this way every
    subset that :func:`load_dataset` reads is distinct too. Raises
    ValueError otherwise.
    """

    id: str = "id"
    text: str = "text"
    emotions: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        named: dict[str, str] = {}
        logical = [("id", self.id), ("text", self.text)] + [(f"emotions.{e}", self.column_for(e)) for e in EMOTIONS]
        for name, column in logical:
            if column in named:
                raise ValueError(f"{named[column]} and {name} both name CSV column {column!r}")
            named[column] = name

    def column_for(self, emotion: str) -> str:
        return self.emotions.get(emotion, emotion)


def label_range(track: str) -> tuple[int, int]:
    """The inclusive ``(lo, hi)`` label range of ``track``; raises ValueError
    for an unknown track."""
    # Membership in the tuple, not the dict: an unhashable track is unknown,
    # not a TypeError.
    if track not in TRACKS:
        raise ValueError(f"unknown track {track!r}")
    return LABEL_RANGES[track]


def check_labels(snippet_id: str, labels: dict, track: str) -> None:
    """Raise :class:`ValidationError` unless every ``{emotion: label}`` value
    is an int, not a bool, in ``track``'s range."""
    lo, hi = label_range(track)
    for emotion, label in labels.items():
        if type(label) is not int or not lo <= label <= hi:
            raise ValidationError(
                f"snippet {snippet_id!r}: {emotion} label {label!r} is not an "
                f"integer in track {track} range [{lo}, {hi}]"
            )


def _parse_label_cell(value: str | None, track: str, row_id: str, column: str) -> int:
    raw = (value or "").strip()
    # An optional sign, then ASCII digits only: int() alone would also read
    # non-ASCII digits ("١" as 1) and underscores ("1_0" as 10).
    digits = raw[1:] if raw[:1] in ("+", "-") else raw
    if not digits or digits.strip(ASCII_DIGITS):
        raise ValidationError(f"row {row_id!r}: column {column!r} has non-integer label {raw!r}")
    label = int(raw)
    lo, hi = LABEL_RANGES[track]
    if not lo <= label <= hi:
        raise ValidationError(
            f"row {row_id!r}: column {column!r} label {label} outside "
            f"track {track} range [{lo}, {hi}]"
        )
    return label


def load_dataset(
    path: str | Path,
    schema: ColumnSchema,
    emotion_set: EmotionSet,
    track: str,
) -> list[Snippet]:
    """Read an annotated CSV (UTF-8, header row) into validated snippets.

    A leading byte order mark, as spreadsheet exports write, is skipped.

    Blank lines are skipped. A row shorter than the header reads its missing
    cells as empty, and cells past the header are ignored.

    Row order is preserved. Raises :class:`SchemaError` when the file cannot
    be read as UTF-8 or a mapped column is absent or repeated, and
    :class:`ValidationError` for a file without rows or a row with a bad
    label, an empty text or a duplicate id. Every error names the file, and a
    row's error also its line.
    """
    lo, hi = label_range(track)
    path = Path(path)
    try:
        with path.open(encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            columns = [(e, schema.column_for(e)) for e in emotion_set]
            required = [schema.id, schema.text] + [column for _, column in columns]
            missing = [c for c in required if c not in header]
            if missing:
                raise SchemaError(f"{path}: missing column(s): {', '.join(missing)}")
            # header.index would silently read the first of two same-named columns.
            repeated = [c for c in required if header.count(c) > 1]
            if repeated:
                raise SchemaError(f"{path}: duplicate column(s): {', '.join(repeated)}")
            id_at, text_at = header.index(schema.id), header.index(schema.text)
            label_at = [(e, column, header.index(column)) for e, column in columns]
            width = len(header)
            # The exact in-range cells; anything else (" 1", "01", "", None)
            # goes through _parse_label_cell, which accepts or names it.
            cells = {str(label): label for label in range(lo, hi + 1)}
            snippets: list[Snippet] = []
            seen: set[str] = set()
            for row in reader:
                if len(row) < width:
                    if not row:
                        continue
                    row += [None] * (width - len(row))
                row_id = (row[id_at] or "").strip()
                if not row_id:
                    raise ValidationError("empty id")
                if row_id in seen:
                    raise ValidationError(f"duplicate id {row_id!r}")
                seen.add(row_id)
                text = row[text_at] or ""
                if not text.strip():
                    raise ValidationError(f"row {row_id!r}: empty text")
                labels = {e: cells.get(row[at]) for e, _, at in label_at}
                if None in labels.values():
                    labels = {e: _parse_label_cell(row[at], track, row_id, column) for e, column, at in label_at}
                snippets.append(Snippet(row_id, text, emotion_set.language_code, labels))
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: cannot read dataset: {exc}") from exc
    except csv.Error as exc:
        raise SchemaError(f"{path}: line {reader.line_num}: {exc}") from exc
    except ValidationError as exc:  # only the row loop raises one
        raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from exc
    if not snippets:
        raise ValidationError(f"{path}: no rows")
    return snippets


def explode(snippets: list[Snippet], emotion_set: EmotionSet, track: str) -> list[TaskInstance]:
    """Turn every snippet into one instance per emotion.

    Output order is snippet order crossed with emotion-set order, so
    ``len(result) == len(snippets) * len(emotion_set)``. Raises
    :class:`ValidationError` when a snippet's label keys differ from the
    emotion set or a label fails :func:`check_labels`.
    """
    expected = set(emotion_set)
    for s in snippets:
        if s.labels.keys() != expected:
            raise ValidationError(
                f"snippet {s.id!r}: label keys {sorted(s.labels)} "
                f"do not match emotion set {list(emotion_set)}"
            )
        check_labels(s.id, s.labels, track)
    return [
        TaskInstance(s.id, s.text, s.language, emotion, s.labels[emotion], track)
        for s in snippets
        for emotion in emotion_set
    ]


def oversample(instances: list[TaskInstance], seed: int) -> list[TaskInstance]:
    """Balance positive/negative counts within each emotion group.

    Minority-class instances are duplicated by seeded sampling with
    replacement until the counts match. All originals are kept; duplicates
    are appended after their group. A group with a single class present is
    left unchanged with a warning, since duplication cannot balance it.
    """
    if any(inst.track != TRACK_A for inst in instances):
        raise ValueError("oversampling applies to track A instances only")
    rng = random.Random(seed)
    groups: dict[str, list[TaskInstance]] = {}
    for inst in instances:
        groups.setdefault(inst.emotion, []).append(inst)

    balanced: list[TaskInstance] = []
    for emotion, group in groups.items():
        positives = [i for i in group if i.gold == 1]
        negatives = [i for i in group if i.gold == 0]
        if not positives or not negatives:
            log.warning(
                "oversample: emotion %r has a single class (%d instances); left unchanged",
                emotion,
                len(group),
            )
            balanced.extend(group)
            continue
        minority = positives if len(positives) < len(negatives) else negatives
        shortfall = abs(len(positives) - len(negatives))
        balanced.extend(group)
        balanced.extend(rng.choice(minority) for _ in range(shortfall))
    return balanced
