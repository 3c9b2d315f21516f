"""Instruction-dataset export and staged fine-tuning plans.

Fine-tuning itself runs in external trainers; this module only writes the
JSONL datasets those trainers consume, plus sidecar metadata carrying the
training hyperparameters verbatim.
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


def write_json(path: Path, payload: dict) -> None:
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")


def write_vectors(path: Path, vectors: list) -> None:
    """Write a list of ``LabelVector``s as JSONL, each line byte for byte
    ``_encode_line`` of ``{"snippet_id": …, "track": …, "values": …}``.
    The file is strict UTF-8: an id holding a lone surrogate raises
    ``UnicodeEncodeError``.

    Everything after the escaped id is fixed by the track and the values
    with their types (``True == 1`` prints apart), so that text is built
    once per such key.
    """
    tails: dict[tuple, str] = {}
    with path.open("w", encoding="utf-8") as fh:
        for start in range(0, len(vectors), _BATCH_LINES):
            pieces: list[str] = []
            for v in vectors[start : start + _BATCH_LINES]:
                values = v.values
                key = (v.track, tuple(values.items()), tuple(map(type, values.values())))
                tail = tails.get(key)
                if tail is None:
                    tail = tails[key] = f'", "track": {_encode_line(v.track)}, "values": {_encode_line(values)}}}\n'
                pieces += ('{"snippet_id": "', _escape(v.snippet_id), tail)
            fh.write("".join(pieces))


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
    frames: dict[tuple, tuple[str, str]] = {}
    escaped: dict[str, str] = {}
    # Every character UTF-8 cannot encode sits in a JSON string, where
    # backslashreplace's lowercase \udxxx is that surrogate's JSON escape.
    with path.open("w", encoding="utf-8", errors="backslashreplace") as fh:
        for start in range(0, len(records), _BATCH_LINES):
            pieces: list[str] = []
            for r in records[start : start + _BATCH_LINES]:
                key = (r.emotion, r.track, r.parsed, type(r.parsed))
                frame = frames.get(key)
                if frame is None:
                    frame = frames[key] = (
                        f'", "emotion": "{_escape(r.emotion)}", "track": "{_escape(r.track)}", "raw_text": "',
                        f'", "parsed": {_encode_line(r.parsed)}}}\n',
                    )
                snippet_id = escaped.get(r.snippet_id)
                if snippet_id is None:
                    snippet_id = escaped[r.snippet_id] = _escape(r.snippet_id)
                raw_text = escaped.get(r.raw_text)
                if raw_text is None:
                    raw_text = escaped[r.raw_text] = _escape(r.raw_text)
                pieces += ('{"snippet_id": "', snippet_id, frame[0], raw_text, frame[1])
            fh.write("".join(pieces))


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
    frames: dict[tuple[str, str, int, type], tuple[bytes, bytes]] = {}
    texts: dict[str, bytes] = {}
    with out.open("wb") as fh:
        for start in range(0, len(instances), _BATCH_LINES):
            pieces: list[bytes] = []
            for inst in instances[start : start + _BATCH_LINES]:
                key = (inst.language, inst.emotion, inst.gold, type(inst.gold))
                frame = frames.get(key)
                if frame is None:
                    language = display_name(inst.language)
                    first, second = (render_zero_shot(template_id, t, language, inst.emotion) for t in "\x00\x01")
                    head = os.path.commonprefix((first, second))
                    tail = first[len(head) + 1 :]
                    frame = frames[key] = (
                        f'{{"instruction": "{_escape(head)}'.encode(),
                        f'{_escape(tail)}", "output": "{_escape(str(inst.gold))}"}}\n'.encode(),
                    )
                text = texts.get(inst.text)
                if text is None:
                    text = texts[inst.text] = _escape(inst.text).encode("utf-8")
                pieces += (frame[0], text, frame[1])
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
