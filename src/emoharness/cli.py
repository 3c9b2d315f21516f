"""Command-line entry points: run, score, export-sft, retrieve."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .corpus import TRACK_A, TRACK_B, ColumnSchema, EmotionSet, load_dataset
from .errors import ConfigError, HarnessError, ValidationError
from .evaluation import aggregate, marginalise
from .exports import _write_json
from .inference import PredictionRecord
from .retrieval import RetrievalConfig, build_index, top_k
from .runner import RUN_STRATEGIES, load_config, run, score_predictions


def _read_predictions(path: Path) -> list[PredictionRecord]:
    records = []
    try:
        with path.open(encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                    if not isinstance(payload, dict):
                        raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
                    records.append(PredictionRecord.from_dict(payload))
                except (ValueError, KeyError, ValidationError) as exc:
                    raise ValidationError(f"{path}: line {line_no}: bad prediction record: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: cannot read predictions: {exc}") from exc
    if not records:
        raise ValidationError(f"{path}: no prediction records")
    return records


def _cmd_run(args) -> int:
    config = load_config(args.config)
    run(config)
    print(f"run complete: {config.output_dir}")
    report_path = config.output_dir / "report.txt"
    if report_path.exists():
        print(report_path.read_text(encoding="utf-8"), end="")
    return 0


def _cmd_score(args) -> int:
    records = _read_predictions(args.predictions)
    emotion_set = EmotionSet.for_language(args.language)
    try:
        vectors = aggregate(records, emotion_set)
    except ValidationError as exc:  # and its subclass CompletenessError
        raise type(exc)(f"{args.predictions}: {exc}") from exc
    pred_track = records[0].track
    if args.marginalise and pred_track != TRACK_B:
        raise ConfigError("--marginalise needs intensity (track B) predictions")
    gold_track = TRACK_A if args.marginalise else pred_track

    snippets = load_dataset(args.gold, ColumnSchema(), emotion_set, gold_track)
    if args.marginalise:
        vectors = [marginalise(v) for v in vectors]
    try:
        report = score_predictions(snippets, vectors, records, gold_track)
    except ValueError as exc:
        raise ValidationError(f"{args.gold}: {exc}") from exc
    print(report.format_table())
    if args.json_out is not None:
        try:
            _write_json(args.json_out, report.as_dict())
        except OSError as exc:
            raise ConfigError(f"--json-out {args.json_out}: cannot write report: {exc}") from exc
    return 0


def _cmd_export_sft(args) -> int:
    config = load_config(args.config)
    if config.strategy in RUN_STRATEGIES:
        raise ConfigError(
            f"strategy: export-sft expects export_sft or export_ebridge, got {config.strategy!r}"
        )
    manifest = run(config)
    print(f"export complete: {config.output_dir}")
    for name in sorted(manifest.artifacts):
        print(f"  {name}")
    return 0


def _cmd_retrieve(args) -> int:
    config = load_config(args.config)
    if config.dataset.train is None:
        raise ConfigError("dataset.train: required for retrieve")
    train = load_dataset(config.dataset.train, config.schema, config.emotion_set, config.track)
    try:
        index = build_index([(s.id, s.text) for s in train], config.bm25)
    except ValueError as exc:
        raise ConfigError(f"dataset.train: {exc}") from exc
    k, source = (args.k, "-k") if args.k is not None else (config.retrieval.k, "retrieval.k")
    try:
        hits = top_k(index, args.query, RetrievalConfig(k=k))
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    by_id = {s.id: s for s in train}
    for rank, (doc_id, doc_score) in enumerate(hits, 1):
        print(f"{rank}\t{doc_id}\t{doc_score:.6f}\t{by_id[doc_id].text}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emoharness",
        description="Batch experiment harness for multilingual emotion recognition",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config end to end")
    p_run.add_argument("config", type=Path, help="YAML experiment config")
    p_run.set_defaults(func=_cmd_run)

    p_score = sub.add_parser("score", help="score a predictions file against gold labels")
    p_score.add_argument("gold", type=Path, help="gold dataset CSV")
    p_score.add_argument("predictions", type=Path, help="predictions JSONL from a run")
    p_score.add_argument("--language", required=True, help="language code selecting the emotion set")
    p_score.add_argument(
        "--marginalise",
        action="store_true",
        help="collapse intensity predictions to presence and score against presence gold",
    )
    p_score.add_argument("--json-out", type=Path, default=None, help="also write the report as JSON")
    p_score.set_defaults(func=_cmd_score)

    p_export = sub.add_parser("export-sft", help="write instruction-tuning datasets from a config")
    p_export.add_argument("config", type=Path, help="YAML config with an export strategy")
    p_export.set_defaults(func=_cmd_export_sft)

    p_retrieve = sub.add_parser("retrieve", help="query the training-corpus index")
    p_retrieve.add_argument("config", type=Path, help="YAML config naming dataset.train")
    p_retrieve.add_argument("--query", required=True, help="query text")
    p_retrieve.add_argument("-k", type=int, default=None, help="number of results (default: config)")
    p_retrieve.set_defaults(func=_cmd_retrieve)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
