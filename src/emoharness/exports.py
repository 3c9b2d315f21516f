"""Instruction-dataset export and staged fine-tuning plans.

Fine-tuning itself runs in external trainers; this module only writes the
JSONL datasets those trainers consume, plus sidecar metadata carrying the
training hyperparameters verbatim.
"""

from __future__ import annotations

import json
from collections import Counter
from json.encoder import encode_basestring
from pathlib import Path

from .corpus import EMOTIONS, TaskInstance, display_name
from .errors import ConfigError, ValidationError
from .prompting import _TEMPLATE_PARTS, TEMPLATE_IDS, render_zero_shot

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
_BATCH_LINES = 4096  # SFT lines per write: a few MB, never the whole file


def _escape(s: str) -> str:
    """The body of ``s`` as a JSON string, as ``_encode_line`` writes it."""
    return encode_basestring(s)[1:-1]


def _check_escape_free() -> None:
    """Fail at import if JSON escaping would change a template literal or emotion.

    The SFT writer renders prompts from escaped values instead of escaping
    each rendered prompt. Escaping works one character at a time, so the two
    give the same bytes as long as escaping leaves the template literals and
    the emotion names unchanged.
    """
    literals = {part for parts in _TEMPLATE_PARTS.values() for part in parts[::2]}
    changed = sorted(s for s in literals.union(EMOTIONS) if _escape(s) != s)
    if changed:
        raise RuntimeError(f"JSON escaping changes prompt literals {changed!r}")


_check_escape_free()


def _write_json(path: Path, payload: dict) -> None:
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")


def _write_jsonl(path: Path, rows) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(_encode_line(row) + "\n")


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
    # (True == 1 prints apart). A prompt rendered with "\x00" as its text splits in two there:
    # JSON escapes a raw "\x00"; _check_escape_free keeps it out of the literals (unpacking checks).
    prompts: dict[tuple[str, str], list[str]] = {}
    frames: dict[tuple[str, str, int, type], tuple[bytes, bytes]] = {}
    texts: dict[str, bytes] = {}
    with out.open("wb") as fh:
        for start in range(0, len(instances), _BATCH_LINES):
            pieces: list[bytes] = []
            for inst in instances[start : start + _BATCH_LINES]:
                key = (inst.language, inst.emotion, inst.gold, type(inst.gold))
                frame = frames.get(key)
                if frame is None:
                    pair = key[:2]
                    if pair not in prompts:
                        language = _escape(display_name(inst.language))
                        prompts[pair] = render_zero_shot(template_id, "\x00", language, inst.emotion).split("\x00")
                    head, tail = prompts[pair]
                    output = _escape(str(inst.gold))
                    frame = frames[key] = (
                        f'{{"instruction": "{head}'.encode(), f'{tail}", "output": "{output}"}}\n'.encode()
                    )
                text = texts.get(inst.text)
                if text is None:
                    text = texts[inst.text] = _escape(inst.text).encode("utf-8")
                pieces += (frame[0], text, frame[1])
            fh.write(b"".join(pieces))

    _write_json(
        out.with_suffix(".meta.json"),
        {
            "template_id": template_id,
            "hyperparameters": dict(HYPERPARAMETERS, learning_rate=LEARNING_RATES[template_id]),
            "instances": len(instances),
            "per_emotion": Counter(i.emotion for i in instances),
            "languages": sorted({language for language, _ in prompts}),
        },
    )


def export_ebridge_plan(
    english_instances: list[TaskInstance],
    target_instances: list[TaskInstance],
    track: str,
    out_dir: str | Path,
) -> None:
    """Write the two-stage (English, then target language) SFT datasets.

    Stage 1 must be entirely English; stage 2 must be a single non-English
    language. A ``plan.json`` manifest records the stage order.
    """
    eng_langs = {i.language for i in english_instances}
    if eng_langs != {"eng"}:
        raise ValidationError(f"stage 1 must be English only; got languages {sorted(eng_langs)}")
    target_langs = {i.language for i in target_instances}
    if len(target_langs) != 1:
        raise ValidationError(f"stage 2 mixes languages {sorted(target_langs)}")
    target_language = target_langs.pop()
    if target_language == "eng":
        raise ValidationError("stage 2 language must differ from English")

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
    _write_json(
        out_dir / "plan.json", {"kind": "staged_sft", "template_id": TEMPLATE_IDS[track], "stages": stages}
    )
