"""Experiment orchestration: strict config validation, end-to-end pipeline
execution, and artifact persistence with all-or-nothing output directories.

A run writes into ``<output_dir>.partial`` and only renames it to the final
directory after every artifact, including the manifest, is on disk. Failed
runs leave the partial directory behind (with an ``error.json``) and never
touch the final path.
"""

from __future__ import annotations

import hashlib
import logging
import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import yaml

from .corpus import (
    EMOTIONS,
    TRACK_A,
    TRACK_B,
    TRACKS,
    ColumnSchema,
    EmotionSet,
    display_name,
    explode,
    load_dataset,
    oversample,
)
from .errors import ConfigError, RunStageError, ValidationError
from .evaluation import (
    LabelVector,
    aggregate,
    count_parse_failures,
    macro_f1,
    marginalise,
    mean_pearson_r,
)
from .exports import SftExportConfig, _write_json, _write_jsonl, export_ebridge_plan, export_sft_dataset
from .inference import (
    CompletionClient,
    CompletionRequest,
    EndpointConfig,
    PredictionRecord,
    parse_label,
)
from .mocks import BUILTIN_MOCKS, build_mock
from .prompting import render_few_shot, render_zero_shot
from .retrieval import Bm25Params, RetrievalConfig, build_index, top_k

log = logging.getLogger(__name__)

STRATEGIES = ("zero_shot", "few_shot", "marginalise_from_b", "export_sft", "export_ebridge")
RUN_STRATEGIES = ("zero_shot", "few_shot", "marginalise_from_b")

_TOP_KEYS = {
    "track",
    "language",
    "strategy",
    "seed",
    "output_dir",
    "dataset",
    "emotions",
    "columns",
    "bm25",
    "retrieval",
    "endpoint",
    "mock",
    "oversample",
}
_DATASET_KEYS = {"train", "dev", "test", "english_train"}
_COLUMNS_KEYS = {"id", "text", "emotions"}
_BM25_KEYS = {"k1", "b", "idf_floor_epsilon"}
_RETRIEVAL_KEYS = {"k"}
_ENDPOINT_KEYS = {
    "base_url",
    "model_name",
    "temperature",
    "max_tokens",
    "timeout",
    "max_retries",
    "concurrency_limit",
    "api_key_env",
}


@dataclass(frozen=True)
class DatasetPaths:
    train: Path | None = None
    dev: Path | None = None
    test: Path | None = None
    english_train: Path | None = None

    def as_dict(self) -> dict:
        return {
            "train": str(self.train) if self.train else None,
            "dev": str(self.dev) if self.dev else None,
            "test": str(self.test) if self.test else None,
            "english_train": str(self.english_train) if self.english_train else None,
        }


@dataclass
class ExperimentConfig:
    """One validated (track, language, strategy) experiment."""

    track: str
    language: str
    strategy: str
    seed: int
    output_dir: Path
    dataset: DatasetPaths
    emotion_set: EmotionSet
    schema: ColumnSchema
    bm25: Bm25Params
    retrieval: RetrievalConfig
    endpoint: EndpointConfig | None
    mock_id: str | None
    oversample: bool

    def snapshot(self) -> dict:
        """JSON-serializable echo of the config with defaults filled in.

        Contains no secret material; endpoint settings only name the API
        key's environment variable.
        """
        return {
            "track": self.track,
            "language": self.language,
            "strategy": self.strategy,
            "seed": self.seed,
            "output_dir": str(self.output_dir),
            "dataset": self.dataset.as_dict(),
            "emotions": list(self.emotion_set.emotions),
            "columns": {
                "id": self.schema.id,
                "text": self.schema.text,
                "emotions": dict(self.schema.emotions),
            },
            "bm25": {
                "k1": self.bm25.k1,
                "b": self.bm25.b,
                "idf_floor_epsilon": self.bm25.idf_floor_epsilon,
            },
            "retrieval": {"k": self.retrieval.k},
            "endpoint": self.endpoint.as_dict() if self.endpoint else None,
            "mock": self.mock_id,
            "oversample": self.oversample,
        }


@dataclass
class RunManifest:
    config: dict
    artifacts: dict[str, str]
    counts: dict
    timing: dict
    output_dir: Path

    def as_dict(self) -> dict:
        return {
            "config": self.config,
            "artifacts": self.artifacts,
            "counts": self.counts,
            "timing": self.timing,
        }


def _reject_unknown(section: dict, allowed: set[str], prefix: str) -> None:
    unknown = sorted(str(k) for k in section if k not in allowed)
    if unknown:
        where = f"{prefix}.{unknown[0]}" if prefix else unknown[0]
        raise ConfigError(f"unknown config key {where!r}")


def _as_mapping(value, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str) or not value.strip():
        raise ConfigError(f"{path}: expected a non-empty string, got {value!r}")
    return value


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true/false, got {value!r}")
    return value


def _require(raw: dict, key: str, path: str):
    if key not in raw or raw[key] is None:
        raise ConfigError(f"{path}: required key is missing")
    return raw[key]


def _resolve(path_str: str, base: Path) -> Path:
    p = Path(path_str)
    return p if p.is_absolute() else base / p


def validate_config(raw: dict, base_dir: str | Path | None = None) -> ExperimentConfig:
    """Check every field and cross-field invariant; fill documented defaults.

    Unknown keys anywhere are fatal and violations name the offending field
    path, so a typo can never silently change an experiment.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"config root: expected a mapping, got {type(raw).__name__}")
    _reject_unknown(raw, _TOP_KEYS, "")
    base = Path(base_dir) if base_dir is not None else Path(".")

    track = _as_str(_require(raw, "track", "track"), "track")
    if track not in TRACKS:
        raise ConfigError(f"track: expected one of {list(TRACKS)}, got {track!r}")
    language = _as_str(_require(raw, "language", "language"), "language")
    strategy = _as_str(_require(raw, "strategy", "strategy"), "strategy")
    if strategy not in STRATEGIES:
        raise ConfigError(f"strategy: expected one of {list(STRATEGIES)}, got {strategy!r}")
    seed = _as_int(_require(raw, "seed", "seed"), "seed")
    output_dir = _resolve(_as_str(_require(raw, "output_dir", "output_dir"), "output_dir"), base)

    dataset_raw = _as_mapping(raw.get("dataset"), "dataset")
    _reject_unknown(dataset_raw, _DATASET_KEYS, "dataset")
    paths = {}
    for key in sorted(_DATASET_KEYS):
        if dataset_raw.get(key) is not None:
            paths[key] = _resolve(_as_str(dataset_raw[key], f"dataset.{key}"), base)
    dataset = DatasetPaths(**paths)

    if "emotions" in raw and raw["emotions"] is not None:
        emotions_raw = raw["emotions"]
        if not isinstance(emotions_raw, list) or not emotions_raw:
            raise ConfigError(f"emotions: expected a non-empty list, got {emotions_raw!r}")
        emotions = tuple(_as_str(e, "emotions") for e in emotions_raw)
        try:
            emotion_set = EmotionSet(language, emotions)
        except ValidationError as exc:
            raise ConfigError(f"emotions: {exc}") from exc
    else:
        emotion_set = EmotionSet.for_language(language)

    columns_raw = _as_mapping(raw.get("columns"), "columns")
    _reject_unknown(columns_raw, _COLUMNS_KEYS, "columns")
    emotion_columns = _as_mapping(columns_raw.get("emotions"), "columns.emotions")
    for key, value in emotion_columns.items():
        if key not in EMOTIONS:
            raise ConfigError(f"columns.emotions.{key}: not a known emotion")
        _as_str(value, f"columns.emotions.{key}")
    schema = ColumnSchema(
        id=_as_str(columns_raw.get("id", "id"), "columns.id"),
        text=_as_str(columns_raw.get("text", "text"), "columns.text"),
        emotions={k: v for k, v in emotion_columns.items()},
    )

    bm25_raw = _as_mapping(raw.get("bm25"), "bm25")
    _reject_unknown(bm25_raw, _BM25_KEYS, "bm25")
    try:
        bm25 = Bm25Params(
            k1=_as_number(bm25_raw.get("k1", 1.5), "bm25.k1"),
            b=_as_number(bm25_raw.get("b", 0.75), "bm25.b"),
            idf_floor_epsilon=_as_number(
                bm25_raw.get("idf_floor_epsilon", 0.25), "bm25.idf_floor_epsilon"
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"bm25: {exc}") from exc

    retrieval_raw = _as_mapping(raw.get("retrieval"), "retrieval")
    _reject_unknown(retrieval_raw, _RETRIEVAL_KEYS, "retrieval")
    try:
        retrieval = RetrievalConfig(k=_as_int(retrieval_raw.get("k", 1), "retrieval.k"))
    except ValueError as exc:
        raise ConfigError(f"retrieval.k: {exc}") from exc

    endpoint = None
    if raw.get("endpoint") is not None:
        endpoint_raw = _as_mapping(raw["endpoint"], "endpoint")
        _reject_unknown(endpoint_raw, _ENDPOINT_KEYS, "endpoint")
        kwargs = {}
        for key, caster in (
            ("base_url", _as_str),
            ("model_name", _as_str),
            ("temperature", _as_number),
            ("max_tokens", _as_int),
            ("timeout", _as_number),
            ("max_retries", _as_int),
            ("concurrency_limit", _as_int),
            ("api_key_env", _as_str),
        ):
            if key in endpoint_raw:
                kwargs[key] = caster(endpoint_raw[key], f"endpoint.{key}")
        try:
            endpoint = EndpointConfig(**kwargs)
        except ConfigError as exc:
            raise ConfigError(f"endpoint: {exc}") from exc

    mock_id = None
    if raw.get("mock") is not None:
        mock_id = _as_str(raw["mock"], "mock")
        if mock_id not in BUILTIN_MOCKS:
            raise ConfigError(f"mock: unknown mock {mock_id!r}; built-in: {sorted(BUILTIN_MOCKS)}")

    oversample_flag = _as_bool(raw.get("oversample", True), "oversample")

    # Cross-field invariants.
    if endpoint is not None and mock_id is not None:
        raise ConfigError("endpoint and mock are mutually exclusive; configure one")
    if strategy in RUN_STRATEGIES:
        if dataset.test is None:
            raise ConfigError(f"dataset.test: required for strategy {strategy}")
        if endpoint is None and mock_id is None:
            raise ConfigError(f"strategy {strategy} needs either endpoint or mock")
    if strategy == "few_shot":
        if dataset.train is None:
            raise ConfigError("dataset.train: required for strategy few_shot")
        if track != TRACK_A:
            raise ConfigError("strategy few_shot renders presence examples; set track: A")
    if strategy == "marginalise_from_b" and track != TRACK_A:
        raise ConfigError("strategy marginalise_from_b scores presence labels; set track: A")
    if strategy == "export_sft" and dataset.train is None:
        raise ConfigError("dataset.train: required for strategy export_sft")
    if strategy == "export_ebridge":
        if dataset.train is None:
            raise ConfigError("dataset.train: required for strategy export_ebridge")
        if dataset.english_train is None:
            raise ConfigError("dataset.english_train: required for strategy export_ebridge")
        if language == "eng":
            raise ConfigError("language: export_ebridge target must differ from eng")

    return ExperimentConfig(
        track=track,
        language=language,
        strategy=strategy,
        seed=seed,
        output_dir=output_dir,
        dataset=dataset,
        emotion_set=emotion_set,
        schema=schema,
        bm25=bm25,
        retrieval=retrieval,
        endpoint=endpoint,
        mock_id=mock_id,
        oversample=oversample_flag,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a YAML config file; relative paths resolve against its directory."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    return validate_config(raw, base_dir=path.parent)


@contextmanager
def _stage(name: str, seconds: dict[str, float]):
    """Run one pipeline stage, record its monotonic duration in ``seconds``
    and wrap any failure in a :class:`RunStageError` naming the stage."""
    start = time.monotonic()
    try:
        yield
    except RunStageError:
        raise
    except Exception as exc:
        raise RunStageError(name, exc) from exc
    seconds[name] = time.monotonic() - start


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run(config: ExperimentConfig, mock=None) -> RunManifest:
    """Execute the configured strategy end to end.

    ``mock`` overrides the config's mock id with an arbitrary in-process
    model object (anything with ``respond(prompt) -> str``).
    """
    started = time.monotonic()
    started_at = datetime.now(timezone.utc).isoformat()
    out_dir = config.output_dir
    staging = out_dir.parent / (out_dir.name + ".partial")
    if out_dir.exists():
        raise ConfigError(f"output directory {out_dir} already exists; pick a fresh one")
    if staging.exists():
        raise ConfigError(f"quarantined partial run at {staging}; inspect and remove it first")

    if mock is None and config.mock_id is not None:
        mock = build_mock(config.mock_id)

    staging.mkdir(parents=True)
    stage_seconds: dict[str, float] = {}
    try:
        if config.strategy in ("export_sft", "export_ebridge"):
            counts = _execute_export(config, staging, stage_seconds)
        else:
            counts = _execute_run(config, mock, staging, stage_seconds)
    except RunStageError as exc:
        cause = exc.__cause__
        _write_json(
            staging / "error.json",
            {
                "stage": exc.stage,
                "error": type(cause).__name__ if cause else type(exc).__name__,
                "message": str(exc),
                "time": datetime.now(timezone.utc).isoformat(),
            },
        )
        log.error("run failed; partial artifacts quarantined in %s", staging)
        raise

    finished_at = datetime.now(timezone.utc).isoformat()
    artifacts = {
        str(p.relative_to(staging)): _sha256(p)
        for p in sorted(staging.rglob("*"))
        if p.is_file()
    }
    timing = {
        "started": started_at,
        "finished": finished_at,
        "seconds": time.monotonic() - started,
        "stages": stage_seconds,
    }
    manifest = RunManifest(
        config=config.snapshot(),
        artifacts=artifacts,
        counts=counts,
        timing=timing,
        output_dir=out_dir,
    )
    # The manifest hashes every other artifact, so it is written last and
    # carries no hash of itself.
    _write_json(staging / "manifest.json", manifest.as_dict())
    os.replace(staging, out_dir)
    return manifest


def _execute_run(config: ExperimentConfig, mock, staging: Path, stage_seconds: dict[str, float]) -> dict:
    emotion_set = config.emotion_set
    gold_track = TRACK_A if config.strategy == "marginalise_from_b" else config.track
    prompt_track = TRACK_B if config.strategy == "marginalise_from_b" else config.track
    template_id = "track_a" if prompt_track == TRACK_A else "track_b"
    language = display_name(config.language)

    with _stage("load", stage_seconds):
        snippets = load_dataset(config.dataset.test, config.schema, emotion_set, gold_track)
    with _stage("transform", stage_seconds):
        instances = explode(snippets, emotion_set, gold_track)

    if config.strategy == "few_shot":
        with _stage("retrieve", stage_seconds):
            train = load_dataset(config.dataset.train, config.schema, emotion_set, TRACK_A)
            train_by_id = {s.id: s for s in train}
            index = build_index([(s.id, s.text) for s in train], config.bm25)
            hits_by_snippet = {s.id: top_k(index, s.text, config.retrieval) for s in snippets}
        with _stage("prompt", stage_seconds):
            requests = []
            for inst in instances:
                examples = [
                    (train_by_id[doc_id].text, inst.emotion, train_by_id[doc_id].labels[inst.emotion])
                    for doc_id, _ in hits_by_snippet[inst.snippet_id]
                ]
                prompt = render_few_shot(
                    examples, inst.text, language, inst.emotion, config.retrieval.k, emotion_set
                )
                requests.append(CompletionRequest(inst.snippet_id, inst.emotion, prompt))
    else:
        with _stage("prompt", stage_seconds):
            requests = [
                CompletionRequest(
                    inst.snippet_id,
                    inst.emotion,
                    render_zero_shot(template_id, inst.text, language, inst.emotion, emotion_set),
                )
                for inst in instances
            ]

    with _stage("infer", stage_seconds):
        endpoint = config.endpoint if config.endpoint is not None else EndpointConfig()
        client = CompletionClient(endpoint, mock=mock, rng=random.Random(config.seed))
        completions = client.complete_all(requests)

    with _stage("parse", stage_seconds):
        records = [
            PredictionRecord(
                c.snippet_id, c.emotion, prompt_track, c.raw_text, parse_label(c.raw_text, prompt_track)
            )
            for c in completions
        ]
        _write_jsonl(staging / "predictions.jsonl", (r.as_dict() for r in records))

    with _stage("aggregate", stage_seconds):
        vectors = aggregate(records, emotion_set)
        if config.strategy == "marginalise_from_b":
            vectors = [marginalise(v) for v in vectors]
        _write_jsonl(
            staging / "aggregated.jsonl",
            ({"snippet_id": v.snippet_id, "track": v.track, "values": v.values} for v in vectors),
        )

    with _stage("score", stage_seconds):
        gold = [
            LabelVector(s.id, {e: s.labels[e] for e in emotion_set}, gold_track) for s in snippets
        ]
        failures = count_parse_failures(records)
        if gold_track == TRACK_A:
            report = macro_f1(gold, vectors, parse_failures=failures)
        else:
            report = mean_pearson_r(gold, vectors, parse_failures=failures)
        _write_json(staging / "report.json", report.as_dict())
        (staging / "report.txt").write_text(report.format_table() + "\n", encoding="utf-8")

    return {
        "snippets": len(snippets),
        "instances": len(instances),
        "requests": len(requests),
        "parse_failures": failures,
        "attempts": sum(c.attempt_count for c in completions),
    }


def _execute_export(config: ExperimentConfig, staging: Path, stage_seconds: dict[str, float]) -> dict:
    emotion_set = config.emotion_set
    sft_config = SftExportConfig.for_track(config.track)
    balance = config.track == TRACK_A and config.oversample

    if config.strategy == "export_sft":
        with _stage("load", stage_seconds):
            train = load_dataset(config.dataset.train, config.schema, emotion_set, config.track)
        with _stage("transform", stage_seconds):
            instances = explode(train, emotion_set, config.track)
            if balance:
                instances = oversample(instances, config.seed)
        with _stage("export", stage_seconds):
            summary = export_sft_dataset(instances, sft_config, staging / "sft.jsonl")
        return {
            "snippets": len(train),
            "instances": summary.instance_count,
            "requests": 0,
            "parse_failures": 0,
        }

    eng_set = EmotionSet.for_language("eng")
    with _stage("load", stage_seconds):
        eng_train = load_dataset(config.dataset.english_train, config.schema, eng_set, config.track)
        target_train = load_dataset(config.dataset.train, config.schema, emotion_set, config.track)
    with _stage("transform", stage_seconds):
        eng_instances = explode(eng_train, eng_set, config.track)
        target_instances = explode(target_train, emotion_set, config.track)
        if balance:
            eng_instances = oversample(eng_instances, config.seed)
            target_instances = oversample(target_instances, config.seed)
    with _stage("export", stage_seconds):
        plan = export_ebridge_plan(eng_instances, target_instances, sft_config, staging)
    return {
        "snippets": len(eng_train) + len(target_train),
        "instances": plan.stage1.instance_count + plan.stage2.instance_count,
        "requests": 0,
        "parse_failures": 0,
    }
