"""Experiment orchestration: strict config validation, end-to-end pipeline
execution, and artifact persistence with all-or-nothing output directories.

A run writes into ``<output_dir>.partial`` and only renames it to the final
directory after every artifact, including the manifest, is on disk. Failed
runs leave the partial directory behind (with an ``error.json``) and never
touch the final path.
"""

from __future__ import annotations

import gc
import hashlib
import logging
import math
import os
import random
import time
from contextlib import contextmanager
from dataclasses import MISSING, asdict, astuple, dataclass, fields, is_dataclass
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
    Snippet,
    display_name,
    explode,
    load_dataset,
    oversample,
)
from .errors import ConfigError, RunStageError, ValidationError
from .evaluation import (
    LabelVector,
    MetricsReport,
    aggregate,
    count_parse_failures,
    macro_f1,
    marginalise,
    mean_pearson_r,
)
from .exports import export_ebridge_plan, export_sft_dataset, write_json, write_jsonl, write_predictions
from .inference import (
    CompletionClient,
    CompletionRequest,
    EndpointConfig,
    PredictionRecord,
    parse_label,
)
from .mocks import BUILTIN_MOCKS, build_mock
from .prompting import TEMPLATE_IDS, render_few_shot, render_zero_shot
from .retrieval import Bm25Params, RetrievalConfig, build_index, top_k

log = logging.getLogger(__name__)

#: Each strategy with the dataset splits it reads.
_SPLITS = {
    "zero_shot": ("test",),
    "few_shot": ("test", "train"),
    "marginalise_from_b": ("test",),
    "export_sft": ("train",),
    "export_ebridge": ("train", "english_train"),
}
STRATEGIES = tuple(_SPLITS)
RUN_STRATEGIES = ("zero_shot", "few_shot", "marginalise_from_b")

#: ExperimentConfig attributes whose config key has another name.
_CONFIG_KEYS = {"emotion_set": "emotions", "schema": "columns", "mock_id": "mock"}


def _non_empty_str(value) -> bool:
    return isinstance(value, str) and bool(value.strip())


def _finite_number(value) -> bool:
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


#: For each settings-field annotation: what a value must be, the test and the
#: conversion. Annotations are strings: the settings modules all use
#: ``from __future__ import annotations``.
_CHECKS = {
    "str": ("a non-empty string", _non_empty_str, str),
    "Path": ("a non-empty string without NUL", lambda v: _non_empty_str(v) and "\x00" not in v, Path),
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool), int),
    "float": ("a finite number", _finite_number, float),
    "bool": ("true/false", lambda v: isinstance(v, bool), bool),
}


@dataclass(frozen=True)
class DatasetPaths:
    # In name order, which is the order their checks run and report in.
    english_train: Path | None = None
    test: Path | None = None
    train: Path | None = None


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
    endpoint: EndpointConfig | None = None
    mock_id: str | None = None
    oversample: bool = True

    def snapshot(self) -> dict:
        """JSON-serializable echo of the config with defaults filled in; it
        validates back to the same config.

        Contains no secret material; endpoint settings only name the API
        key's environment variable.
        """
        return {_CONFIG_KEYS.get(f.name, f.name): _plain(getattr(self, f.name)) for f in fields(self)}


def _plain(value):
    """A config value as the YAML scalar, list or mapping it is read from."""
    if isinstance(value, EmotionSet):
        return list(value.emotions)
    if is_dataclass(value):
        return {key: _plain(item) for key, item in asdict(value).items()}
    return str(value) if isinstance(value, Path) else value


@dataclass
class RunManifest:
    """The ``manifest.json`` payload."""

    config: dict
    artifacts: dict[str, str]
    counts: dict
    timing: dict


def _mapping(value, path: str, keys=None) -> dict:
    """A config section as a dict (null is absent), with every key in ``keys``
    unless ``keys`` is None."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    unknown = sorted(str(k) for k in value if keys is not None and k not in keys)
    if unknown:
        where = f"{path}.{unknown[0]}" if path else unknown[0]
        raise ConfigError(f"unknown config key {where!r}")
    return value


def _cast(value, type_: str, path: str, required: bool = False):
    """Check one config value against a settings-field annotation (a key of
    ``_CHECKS``, maybe with ``| None``) and return it converted.

    Null is a missing key where ``required``, None where the annotation
    allows it, and a type error elsewhere: it never stands in for a default.
    """
    if value is None and required:
        raise ConfigError(f"{path}: required key is missing")
    if value is None and type_.endswith(" | None"):
        return None
    expected, accepts, convert = _CHECKS[type_.removesuffix(" | None")]
    if not accepts(value):
        raise ConfigError(f"{path}: expected {expected}, got {value!r}")
    return convert(value)


def _section(cls, value, path: str, where: str | None = None, **given):
    """Build the settings dataclass ``cls`` from its config mapping.

    Field names, or their ``_CONFIG_KEYS`` names, are the allowed keys, each
    field's annotation picks its check, field defaults fill absent keys and a
    field without one is required; fields in ``given`` are already checked.
    Errors from ``cls``'s own range checks are reported under ``where``
    (default: ``path``).
    """
    keys = {f.name: _CONFIG_KEYS.get(f.name, f.name) for f in fields(cls)}
    section = _mapping(value, path, set(keys.values()))
    for f in fields(cls):
        key = keys[f.name]
        required = f.default is MISSING and f.default_factory is MISSING
        if f.name not in given and (key in section or required):
            given[f.name] = _cast(section.get(key), f.type, f"{path}.{key}" if path else key, required)
    try:
        return cls(**given)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{where or path}: {exc}") from exc


def validate_config(raw: dict, base_dir: str | Path | None = None) -> ExperimentConfig:
    """Check every field and cross-field invariant; fill documented defaults.

    Unknown keys anywhere are fatal and violations name the offending field
    path, so a typo can never silently change an experiment.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"config root: expected a mapping, got {type(raw).__name__}")
    base = Path(base_dir) if base_dir is not None else Path(".")
    language = _cast(raw.get("language"), "str", "language", required=True)
    relative = _section(DatasetPaths, raw.get("dataset"), "dataset")

    if raw.get("emotions") is not None:
        emotions_raw = raw["emotions"]
        if not isinstance(emotions_raw, list) or not emotions_raw:
            raise ConfigError(f"emotions: expected a non-empty list, got {emotions_raw!r}")
        emotions = tuple(_cast(e, "str", "emotions") for e in emotions_raw)
        try:
            emotion_set = EmotionSet(language, emotions)
        except ValidationError as exc:
            raise ConfigError(f"emotions: {exc}") from exc
    else:
        emotion_set = EmotionSet.for_language(language)

    columns = _mapping(raw.get("columns"), "columns", {f.name for f in fields(ColumnSchema)})
    emotion_columns = _mapping(columns.get("emotions"), "columns.emotions")
    for key, value in emotion_columns.items():
        if key not in EMOTIONS:
            raise ConfigError(f"columns.emotions.{key}: not a known emotion")
        _cast(value, "str", f"columns.emotions.{key}")

    config = _section(
        ExperimentConfig, raw, "",
        language=language,
        dataset=DatasetPaths(*(p and base / p for p in astuple(relative))),
        emotion_set=emotion_set,
        schema=_section(ColumnSchema, columns, "columns", emotions=dict(emotion_columns)),
        bm25=_section(Bm25Params, raw.get("bm25"), "bm25"),
        retrieval=_section(RetrievalConfig, raw.get("retrieval"), "retrieval", where="retrieval.k"),
        endpoint=(
            None if raw.get("endpoint") is None else _section(EndpointConfig, raw["endpoint"], "endpoint")
        ),
    )
    config.output_dir = base / config.output_dir
    track, strategy, mock_id = config.track, config.strategy, config.mock_id
    if track not in TRACKS:
        raise ConfigError(f"track: expected one of {list(TRACKS)}, got {track!r}")
    if strategy not in STRATEGIES:
        raise ConfigError(f"strategy: expected one of {list(STRATEGIES)}, got {strategy!r}")
    if mock_id is not None and mock_id not in BUILTIN_MOCKS:
        raise ConfigError(f"mock: unknown mock {mock_id!r}; built-in: {sorted(BUILTIN_MOCKS)}")

    # Cross-field invariants.
    if config.endpoint is not None and mock_id is not None:
        raise ConfigError("endpoint and mock are mutually exclusive; configure one")
    for split in _SPLITS[strategy]:
        if getattr(config.dataset, split) is None:
            raise ConfigError(f"dataset.{split}: required for strategy {strategy}")
    if strategy in RUN_STRATEGIES and config.endpoint is None and mock_id is None:
        raise ConfigError(f"strategy {strategy} needs either endpoint or mock")
    if strategy in ("few_shot", "marginalise_from_b") and track != TRACK_A:
        raise ConfigError(f"strategy {strategy} uses presence labels; set track: A")
    if strategy == "export_ebridge":
        if language == "eng":
            raise ConfigError("language: export_ebridge target must differ from eng")
        # The code names the stage-2 file, stage2_<language>.jsonl.
        if any(c == "/" or c < " " or "\x7f" <= c <= "\x9f" for c in language):
            raise ConfigError(f"language: {language!r} names the stage-2 file; it may hold no '/' or control character")
    return config


class _ConfigLoader(yaml.SafeLoader):
    """``yaml.SafeLoader``, except that a mapping may not set a key twice,
    where ``safe_load`` keeps the last value. Keys that a ``<<`` merge brings
    in are not the mapping's own, so setting one again overrides it."""

    def construct_document(self, node):
        self._check_keys(node, "", set())
        return super().construct_document(node)

    def _check_keys(self, node: yaml.Node, path: str, seen: set[int]) -> None:
        # Lists are not walked: no config key takes a mapping inside a list.
        if not isinstance(node, yaml.MappingNode) or id(node) in seen:
            return  # a scalar, a list, or an alias of a mapping already checked
        seen.add(id(node))
        keys = set()
        for key, value in node.value:
            if isinstance(key, yaml.ScalarNode):  # a list or mapping as a key fails construction
                name = f"{path}.{key.value}" if path else key.value
                if (key.tag, key.value) in keys:
                    raise yaml.YAMLError(f"line {key.start_mark.line + 1}: repeated key {name}")
                keys.add((key.tag, key.value))
                self._check_keys(value, name, seen)


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a YAML config file; relative paths resolve against its directory."""
    path = Path(path)
    try:
        raw = yaml.load(path.read_text(encoding="utf-8"), Loader=_ConfigLoader)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    except (yaml.YAMLError, RecursionError) as exc:  # PyYAML recurses once per nesting level
        # PyYAML's message spans lines; an error is reported as one line.
        raise ConfigError(f"{path}: not valid YAML: {' '.join(str(exc).split())}") from exc
    return validate_config(raw, base_dir=path.parent)


@contextmanager
def _stage(name: str, seconds: dict[str, float]):
    """Run one pipeline stage, record its monotonic duration in ``seconds``
    and wrap any failure in a :class:`RunStageError` naming the stage."""
    start = time.monotonic()
    try:
        yield
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

    Python's cyclic garbage collector is paused while the run works and
    turned back on when it returns or raises, if it was on before. A run
    keeps more than 100k container objects, which form no cycles, until it
    ends, so each collection would only walk them again; reference counting
    still frees everything else as it goes.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(config, mock)
    finally:
        if gc_was_enabled:
            gc.enable()


def _run(config: ExperimentConfig, mock) -> RunManifest:
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

    try:
        staging.mkdir(parents=True)
    except OSError as exc:
        raise ConfigError(f"output_dir: cannot create {staging}: {exc}") from exc
    stage_seconds: dict[str, float] = {}
    try:
        if config.strategy in RUN_STRATEGIES:
            counts = _execute_run(config, mock, staging, stage_seconds)
        else:
            counts = _execute_export(config, staging, stage_seconds)
        # The manifest hashes every other artifact, so it is written last and
        # carries no hash of itself, nor the time spent publishing.
        with _stage("publish", {}):
            artifacts = {str(p.relative_to(staging)): _sha256(p) for p in sorted(staging.rglob("*")) if p.is_file()}
            timing = {
                "started": started_at,
                "finished": datetime.now(timezone.utc).isoformat(),
                "seconds": time.monotonic() - started,
                "stages": stage_seconds,
            }
            manifest = RunManifest(config=config.snapshot(), artifacts=artifacts, counts=counts, timing=timing)
            write_json(staging / "manifest.json", asdict(manifest))
            os.replace(staging, out_dir)
    except RunStageError as exc:
        # A failed publish leaves the manifest behind; without it the
        # quarantined directory cannot pass for a finished run.
        (staging / "manifest.json").unlink(missing_ok=True)
        write_json(
            staging / "error.json",
            {
                "stage": exc.stage,
                "error": type(exc.__cause__).__name__,
                "message": str(exc),
                "time": datetime.now(timezone.utc).isoformat(),
            },
        )
        log.error("run failed; partial artifacts quarantined in %s", staging)
        raise
    return manifest


def score_predictions(
    snippets: list[Snippet], vectors: list[LabelVector], records: list[PredictionRecord], gold_track: str
) -> MetricsReport:
    """Score aggregated prediction vectors against the gold snippets: macro F1
    for presence gold (track A), mean Pearson r for intensity gold (track B).
    Parse failures among ``records`` are counted in the report."""
    gold = [LabelVector(s.id, s.labels, gold_track) for s in snippets]
    report = (macro_f1 if gold_track == TRACK_A else mean_pearson_r)(gold, vectors)
    report.counts["parse_failures"] = count_parse_failures(records)
    return report


def _execute_run(config: ExperimentConfig, mock, staging: Path, stage_seconds: dict[str, float]) -> dict:
    emotion_set = config.emotion_set
    # marginalise_from_b asks for intensities; validate_config holds its gold to track A.
    prompt_track = TRACK_B if config.strategy == "marginalise_from_b" else config.track
    template_id = TEMPLATE_IDS[prompt_track]
    language = display_name(config.language)

    with _stage("load", stage_seconds):
        snippets = load_dataset(config.dataset.test, config.schema, emotion_set, config.track)
    with _stage("transform", stage_seconds):
        instances = explode(snippets, emotion_set, config.track)

    if config.strategy == "few_shot":
        with _stage("retrieve", stage_seconds):
            train = load_dataset(config.dataset.train, config.schema, emotion_set, TRACK_A)
            if config.retrieval.k > len(train):
                raise ConfigError(f"retrieval.k: {config.retrieval.k} exceeds the {len(train)} rows of dataset.train")
            train_by_id = {s.id: s for s in train}
            index = build_index([(s.id, s.text) for s in train], config.bm25)
            hits_by_snippet = {s.id: top_k(index, s.text, config.retrieval) for s in snippets}

        def render(inst):
            examples = [
                (train_by_id[doc_id].text, train_by_id[doc_id].labels[inst.emotion])
                for doc_id, _ in hits_by_snippet[inst.snippet_id]
            ]
            return render_few_shot(examples, inst.text, language, inst.emotion, emotion_set)
    else:
        def render(inst):
            return render_zero_shot(template_id, inst.text, language, inst.emotion, emotion_set)

    # Each prompt is rendered as the client draws its request and is dropped
    # once sent, so rendering is timed in ``infer`` and no stage holds every
    # prompt at once.
    with _stage("infer", stage_seconds):
        endpoint = config.endpoint if config.endpoint is not None else EndpointConfig()
        client = CompletionClient(endpoint, mock=mock, rng=random.Random(config.seed))
        completions = client.complete_all(
            CompletionRequest(inst.snippet_id, inst.emotion, render(inst)) for inst in instances
        )
    # Later stages read neither the instances nor, once parsed, the
    # completions: dropping them keeps the records from stacking on top.
    counts = {"snippets": len(snippets), "instances": len(instances), "requests": len(completions)}
    attempts = sum(c.attempt_count for c in completions)
    del instances

    with _stage("parse", stage_seconds):
        records = [
            PredictionRecord(
                c.snippet_id, c.emotion, prompt_track, c.raw_text, parse_label(c.raw_text, prompt_track)
            )
            for c in completions
        ]
        del completions
        write_predictions(staging / "predictions.jsonl", records)

    with _stage("aggregate", stage_seconds):
        vectors = aggregate(records, emotion_set)
        if config.strategy == "marginalise_from_b":
            vectors = [marginalise(v) for v in vectors]
        write_jsonl(
            staging / "aggregated.jsonl",
            ({"snippet_id": v.snippet_id, "track": v.track, "values": v.values} for v in vectors),
        )

    with _stage("score", stage_seconds):
        report = score_predictions(snippets, vectors, records, config.track)
        write_json(staging / "report.json", asdict(report))
        (staging / "report.txt").write_text(report.format_table() + "\n", encoding="utf-8")

    return {**counts, "parse_failures": report.counts["parse_failures"], "attempts": attempts}


def _execute_export(config: ExperimentConfig, staging: Path, stage_seconds: dict[str, float]) -> dict:
    # E-bridge trains on English first, so its English split comes first.
    splits = [(config.dataset.train, config.emotion_set)]
    if config.strategy == "export_ebridge":
        splits.insert(0, (config.dataset.english_train, EmotionSet.for_language("eng")))

    with _stage("load", stage_seconds):
        tables = [load_dataset(path, config.schema, es, config.track) for path, es in splits]
    with _stage("transform", stage_seconds):
        sets = [explode(table, es, config.track) for table, (_, es) in zip(tables, splits)]
        if config.track == TRACK_A and config.oversample:
            sets = [oversample(instances, config.seed) for instances in sets]
    with _stage("export", stage_seconds):
        if config.strategy == "export_sft":
            export_sft_dataset(sets[0], config.track, staging / "sft.jsonl")
        else:
            export_ebridge_plan(*sets, config.track, staging)
    return {
        "snippets": sum(len(table) for table in tables),
        "instances": sum(len(s) for s in sets),
        "requests": 0,
        "parse_failures": 0,
    }
