"""Instruction-dataset export, staged fine-tuning plans and the artifact writers.

Fine-tuning itself runs in external trainers; this module only writes the
JSONL datasets those trainers consume, plus sidecar metadata carrying the
training hyperparameters verbatim. Every artifact, a run's too, is UTF-8
written in binary: no newline translation, so its bytes, and the manifest's
hashes, are the same on every platform.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from json.encoder import encode_basestring
from pathlib import Path

from .corpus import TaskInstance, display_name
from .errors import ConfigError, ValidationError
from .prompting import TEMPLATE_IDS, render_zero_shot

#: Emitted into export metadata as-is; never interpreted by this package.
HYPERPARAMETERS = {
    "lora_rank": 32,
    "lora_alpha": 64,
    "dropout": 0.05,
    "max_len": 512,
    "epochs": 10,
    "batch_size": 2,
    "quantisation": "4-bit",
}

LEARNING_RATES = {"track_a": 2e-5, "track_b": 5e-5}


# Built once: ``json.dumps(..., ensure_ascii=False)`` builds a new encoder per call.
_encode_line = json.JSONEncoder(ensure_ascii=False).encode
_BATCH_LINES = 4096  # lines per write: a few MB, never the whole file
#: The longest E-bridge language whose ``stage2_<language>.meta.json`` fits NAME_MAX (255 bytes).
_STAGE2_LANGUAGE_BYTES = 255 - len("stage2_.meta.json")


def _escape(s: str) -> str:
    """The body of ``s`` as a JSON string, as ``_encode_line`` writes it."""
    return encode_basestring(s)[1:-1]


class _Memo(dict):
    """A dict that stores and returns ``make(key)`` for a key it lacks."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def write_json(path: Path, payload: dict) -> None:
    path.write_bytes((json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def write_vectors(path: Path, vectors: list) -> None:
    """Write a list of ``LabelVector``s as JSONL, each line byte for byte
    ``_encode_line`` of ``{"snippet_id": …, "track": …, "values": …}``.
    The file is strict UTF-8: an id holding a lone surrogate raises
    ``UnicodeEncodeError``.

    Everything after the escaped id is fixed by the track and the values,
    so that text is built once per such pair.
    """
    tails = _Memo(lambda k: f'", "track": {_encode_line(k[0])}, "values": {_encode_line(dict(k[1]))}}}\n')
    with path.open("wb") as fh:
        for start in range(0, len(vectors), _BATCH_LINES):
            pieces: list[str] = []
            for v in vectors[start : start + _BATCH_LINES]:
                tail = tails[v.track, tuple(v.values.items())]
                pieces += ('{"snippet_id": "', _escape(v.snippet_id), tail)
            fh.write("".join(pieces).encode())


def write_predictions(path: Path, records: list) -> None:
    """Write a list of ``PredictionRecord``s as JSONL, each line byte for
    byte ``_encode_line(record.as_dict()) + "\\n"``, with one exception: a
    lone surrogate, which an endpoint answer cut off mid-emoji can hold and
    UTF-8 cannot encode, is written as its JSON ``\\uXXXX`` escape, as
    ``json.dumps`` writes it, so the line reads back the same.

    A line's escaped snippet id and raw text sit in text that is fixed by
    the emotion, the track and ``parsed`` with its type (``True == 1``
    prints apart), so that text is built once per such key. A snippet id
    repeats once per emotion and an answer across the run, so each distinct
    string is escaped once.
    """
    frames = _Memo(lambda k: (
        f'", "emotion": "{_escape(k[0])}", "track": "{_escape(k[1])}", "raw_text": "',
        f'", "parsed": {_encode_line(k[2])}}}\n',
    ))
    escaped = _Memo(_escape)
    with path.open("wb") as fh:
        for start in range(0, len(records), _BATCH_LINES):
            pieces: list[str] = []
            for r in records[start : start + _BATCH_LINES]:
                head, tail = frames[r.emotion, r.track, r.parsed, type(r.parsed)]
                pieces += ('{"snippet_id": "', escaped[r.snippet_id], head, escaped[r.raw_text], tail)
            # Every character UTF-8 cannot encode sits in a JSON string, where
            # backslashreplace's lowercase \udxxx is that surrogate's JSON escape.
            fh.write("".join(pieces).encode("utf-8", "backslashreplace"))


def export_sft_dataset(instances: list[TaskInstance], track: str, out: str | Path) -> None:
    """Write instances as instruction-tuning JSONL plus a metadata sidecar.

    ``track`` picks the template and the learning rate. Each line is
    ``{"instruction": <rendered prompt>, "output": <gold>}`` with the gold
    label as a decimal string, byte for byte what ``_encode_line`` writes for
    that dict. The sidecar (same stem, ``.meta.json``) records the
    hyperparameter block and instance counts.
    """
    template_id = TEMPLATE_IDS.get(track)
    if template_id is None:
        raise ConfigError(f"unknown track {track!r}; expected one of {sorted(TEMPLATE_IDS)}")
    mismatched = [i for i in instances if i.track != track]
    if mismatched:
        raise ConfigError(
            f"template {template_id!r} expects track {track} instances; "
            f"got track {mismatched[0].track} (snippet {mismatched[0].snippet_id!r})"
        )
    out = Path(out)
    # A line is head + escaped text + tail, fixed by language, emotion, gold and its type
    # (True == 1 prints apart). Two renders whose texts differ in one character differ only
    # there while the template holds {text} once, and JSON escapes one character at a time.
    def frame(key: tuple[str, str, int, type]) -> tuple[bytes, bytes]:
        language, emotion, gold, _ = key
        first, second = (render_zero_shot(template_id, t, display_name(language), emotion) for t in "\x00\x01")
        head = os.path.commonprefix((first, second))
        return (
            f'{{"instruction": "{_escape(head)}'.encode(),
            f'{_escape(first[len(head) + 1 :])}", "output": "{_escape(str(gold))}"}}\n'.encode(),
        )

    # Long prompt pieces that repeat across lines: each is encoded once and the
    # batch joined as bytes. The other writers' short pieces join faster as str.
    frames = _Memo(frame)
    texts = _Memo(lambda s: _escape(s).encode())
    with out.open("wb") as fh:
        for start in range(0, len(instances), _BATCH_LINES):
            pieces: list[bytes] = []
            for inst in instances[start : start + _BATCH_LINES]:
                head, tail = frames[inst.language, inst.emotion, inst.gold, type(inst.gold)]
                pieces += (head, texts[inst.text], tail)
            fh.write(b"".join(pieces))

    write_json(
        out.with_suffix(".meta.json"),
        {
            "template_id": template_id,
            "hyperparameters": dict(HYPERPARAMETERS, learning_rate=LEARNING_RATES[template_id]),
            "instances": len(instances),
            "per_emotion": Counter(i.emotion for i in instances),
            "languages": sorted({language for language, *_ in frames}),
        },
    )


def check_stage2_language(language: str) -> None:
    """Raise :class:`ValidationError` unless ``language`` can name the
    stage-2 files ``stage2_<language>.jsonl`` and ``.meta.json``: no '/', no
    control character, no lone surrogate, and a longest name within Linux's
    255-byte NAME_MAX."""
    if any(c == "/" or c < " " or "\x7f" <= c <= "\x9f" for c in language):
        raise ValidationError(f"{language!r} names the stage-2 file; it may hold no '/' or control character")
    try:
        size = len(language.encode("utf-8"))
    except UnicodeEncodeError:  # a YAML "\ud800" escape gives a lone surrogate
        raise ValidationError(f"{language!r} names the stage-2 file; it may hold no lone surrogate") from None
    if size > _STAGE2_LANGUAGE_BYTES:
        raise ValidationError(
            f"{language!r} names the stage-2 file; it may be at most {_STAGE2_LANGUAGE_BYTES} UTF-8 bytes, not {size}"
        )


def export_ebridge_plan(
    english_instances: list[TaskInstance],
    target_instances: list[TaskInstance],
    track: str,
    out_dir: str | Path,
) -> None:
    """Write the two-stage (English, then target language) SFT datasets.

    Stage 1 must be entirely English; stage 2 must be a single non-English
    language that passes :func:`check_stage2_language`. Nothing is written
    unless both hold. A ``plan.json`` manifest records the stage order.
    """
    if not english_instances or not target_instances:
        raise ValidationError(f"stage {2 if english_instances else 1} has no instances")
    eng_langs = {i.language for i in english_instances}
    if eng_langs != {"eng"}:
        raise ValidationError(f"stage 1 must be English only; got languages {sorted(eng_langs)}")
    target_langs = {i.language for i in target_instances}
    if len(target_langs) != 1:
        raise ValidationError(f"stage 2 mixes languages {sorted(target_langs)}")
    target_language = target_langs.pop()
    if target_language == "eng":
        raise ValidationError("stage 2 language must differ from English")
    check_stage2_language(target_language)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stages = []
    stage_sets = ((1, "eng", english_instances), (2, target_language, target_instances))
    for number, language, instances in stage_sets:
        dataset = out_dir / f"stage{number}_{language}.jsonl"
        export_sft_dataset(instances, track, dataset)
        stages.append({
            "stage": number,
            "language": language,
            "dataset": dataset.name,
            "metadata": dataset.with_suffix(".meta.json").name,
            "instances": len(instances),
        })
    write_json(
        out_dir / "plan.json", {"kind": "staged_sft", "template_id": TEMPLATE_IDS[track], "stages": stages}
    )
