"""Config validation strictness and end-to-end pipeline behaviour."""

import copy
import functools
import gc
import hashlib
import json
import random
import threading

import pytest
import yaml

import emoharness.runner
from emoharness import (
    STRATEGIES,
    CompletionClient,
    ConfigError,
    EmotionSet,
    EndpointConfig,
    GoldLookupMock,
    RunStageError,
    Snippet,
    explode,
    load_config,
    run,
    validate_config,
)
from datagen import make_snippets, write_csv
from emoharness.prompting import extract_query


def minimal_raw(**overrides):
    raw = {
        "track": "A",
        "language": "eng",
        "strategy": "zero_shot",
        "seed": 7,
        "output_dir": "out",
        "dataset": {"test": "test.csv"},
        "mock": "always-0",
    }
    raw.update(overrides)
    return raw


def endpoint_raw(**overrides):
    raw = minimal_raw(endpoint={"base_url": "http://h/v1", "model_name": "m"}, **overrides)
    del raw["mock"]
    return raw


#: The dataset splits each strategy reads.
SPLIT_NEEDS = {
    "zero_shot": ("test",),
    "few_shot": ("test", "train"),
    "marginalise_from_b": ("test",),
    "export_sft": ("train",),
    "export_ebridge": ("train", "english_train"),
}


def strategy_raw(strategy):
    """A valid config for ``strategy`` that names every dataset split."""
    raw = minimal_raw(
        strategy=strategy,
        language="deu",
        dataset={"test": "test.csv", "train": "train.csv", "english_train": "eng.csv"},
    )
    if strategy.startswith("export_"):
        del raw["mock"]
    return raw


def outcome(raw):
    """The snapshot of a valid config, or the message of its ConfigError."""
    try:
        return validate_config(raw).snapshot()
    except ConfigError as exc:
        return str(exc)


#: (key path set to null, the ConfigError it gives or None where null is absent)
NULL_CASES = [
    # null counts as absent
    ("dataset", None),
    ("dataset.train", None),
    ("dataset.english_train", None),
    ("emotions", None),
    ("columns", None),
    ("columns.emotions", None),
    ("bm25", None),
    ("retrieval", None),
    ("endpoint", None),
    ("mock", None),
    # null where the key has a default is a type error
    ("oversample", "oversample: expected true/false, got None"),
    ("columns.id", "columns.id: expected a non-empty string, got None"),
    ("bm25.k1", "bm25.k1: expected a finite number, got None"),
    ("retrieval.k", "retrieval.k: expected an integer, got None"),
    ("endpoint.base_url", "endpoint.base_url: expected a non-empty string, got None"),
    # null for a required key is a missing key
    ("seed", "seed: required key is missing"),
]


@pytest.fixture
def eng_test_csv(tmp_path):
    es = EmotionSet.for_language("eng")
    snippets = make_snippets(random.Random(0), 10, es, "A")
    return write_csv(tmp_path / "test.csv", snippets, es), snippets


class TestValidateConfig:
    def test_minimal_config_fills_defaults(self):
        config = validate_config(minimal_raw())
        snap = config.snapshot()
        assert snap["bm25"] == {"k1": 1.5, "b": 0.75, "idf_floor_epsilon": 0.25}
        assert snap["retrieval"] == {"k": 1}
        assert snap["oversample"] is True
        assert snap["emotions"] == ["anger", "fear", "joy", "sadness", "surprise"]

    def test_endpoint_defaults_include_temperature_zero(self):
        raw = minimal_raw(endpoint={"base_url": "http://h/v1", "model_name": "m"})
        del raw["mock"]
        snap = validate_config(raw).snapshot()
        assert snap["endpoint"]["temperature"] == 0.0
        assert snap["endpoint"]["max_tokens"] == 8

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError, match="tempreture"):
            validate_config(minimal_raw(tempreture=0.3))

    def test_unknown_nested_key_named_with_path(self):
        raw = minimal_raw(endpoint={"base_url": "http://h", "model_name": "m", "tempreture": 0.3})
        del raw["mock"]
        with pytest.raises(ConfigError, match=r"endpoint\.tempreture"):
            validate_config(raw)

    def test_few_shot_requires_train_path(self):
        with pytest.raises(ConfigError, match=r"dataset\.train"):
            validate_config(minimal_raw(strategy="few_shot"))

    def test_run_strategy_requires_test_path(self):
        with pytest.raises(ConfigError, match=r"dataset\.test"):
            validate_config(minimal_raw(dataset={}))

    def test_seed_is_mandatory(self):
        raw = minimal_raw()
        del raw["seed"]
        with pytest.raises(ConfigError, match="seed"):
            validate_config(raw)

    def test_seed_must_be_integer(self):
        with pytest.raises(ConfigError, match="seed"):
            validate_config(minimal_raw(seed="lucky"))

    def test_track_values(self):
        with pytest.raises(ConfigError, match="track"):
            validate_config(minimal_raw(track="C"))

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError, match="strategy"):
            validate_config(minimal_raw(strategy="three_shot"))

    def test_marginalise_needs_track_a(self):
        with pytest.raises(ConfigError, match="marginalise_from_b"):
            validate_config(minimal_raw(strategy="marginalise_from_b", track="B"))

    def test_few_shot_needs_track_a(self):
        raw = minimal_raw(strategy="few_shot", track="B")
        raw["dataset"]["train"] = "train.csv"
        with pytest.raises(ConfigError, match="few_shot"):
            validate_config(raw)

    def test_endpoint_and_mock_are_exclusive(self):
        raw = minimal_raw(endpoint={"base_url": "http://h", "model_name": "m"})
        with pytest.raises(ConfigError, match="mutually exclusive"):
            validate_config(raw)

    def test_run_strategy_needs_some_model(self):
        raw = minimal_raw()
        del raw["mock"]
        with pytest.raises(ConfigError, match="endpoint or mock"):
            validate_config(raw)

    def test_unknown_mock_id(self):
        with pytest.raises(ConfigError, match="mock"):
            validate_config(minimal_raw(mock="llama"))

    def test_emotion_override_validated(self):
        with pytest.raises(ConfigError, match="emotions"):
            validate_config(minimal_raw(emotions=["joy", "boredom"]))

    def test_emotion_override_applies(self):
        config = validate_config(minimal_raw(emotions=["joy", "fear"]))
        assert config.emotion_set.emotions == ("joy", "fear")

    def test_bm25_bounds_checked(self):
        with pytest.raises(ConfigError, match="bm25"):
            validate_config(minimal_raw(bm25={"b": 1.5}))

    def test_retrieval_k_positive(self):
        with pytest.raises(ConfigError, match=r"retrieval\.k"):
            validate_config(minimal_raw(retrieval={"k": 0}))

    def test_export_ebridge_needs_non_english_target(self):
        raw = minimal_raw(strategy="export_ebridge", language="eng")
        raw["dataset"] = {"train": "t.csv", "english_train": "e.csv"}
        del raw["mock"]
        with pytest.raises(ConfigError, match="language"):
            validate_config(raw)

    @pytest.mark.parametrize("language", ["de/ch", "de\x00x", "de\nch", "de\x7f"])
    def test_export_ebridge_language_names_a_file(self, language):
        raw = strategy_raw("export_ebridge")
        raw["language"] = language
        with pytest.raises(ConfigError, match=r"^language: .* names the stage-2 file"):
            validate_config(raw)
        # Only the E-bridge export names a file after the code.
        for strategy in ("zero_shot", "export_sft"):
            assert validate_config(dict(strategy_raw(strategy), language=language)).language == language

    def test_export_ebridge_needs_english_train(self):
        raw = minimal_raw(strategy="export_ebridge", language="deu")
        raw["dataset"] = {"train": "t.csv"}
        del raw["mock"]
        with pytest.raises(ConfigError, match=r"dataset\.english_train"):
            validate_config(raw)

    def test_non_mapping_root_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(["not", "a", "mapping"])

    @pytest.mark.parametrize("path, error", NULL_CASES, ids=[path for path, _ in NULL_CASES])
    def test_null_is_absent_or_an_error(self, path, error):
        base = endpoint_raw() if path == "mock" or path.startswith("endpoint.") else minimal_raw()
        *parents, key = path.split(".")
        nulled, absent = copy.deepcopy(base), copy.deepcopy(base)
        nulled_section, absent_section = nulled, absent
        for parent in parents:
            nulled_section = nulled_section.setdefault(parent, {})
            absent_section = absent_section.setdefault(parent, {})
        nulled_section[key] = None
        absent_section.pop(key, None)
        assert outcome(nulled) == (outcome(absent) if error is None else error)

    @pytest.mark.parametrize(
        "make_raw",
        [
            pytest.param(minimal_raw, id="minimal"),
            pytest.param(
                lambda: minimal_raw(
                    columns={"id": "ID", "text": "Text", "emotions": {"joy": "Joy", "fear": "Fear"}},
                    emotions=["joy", "fear"],
                    bm25={"k1": 1.2, "b": 0.5},
                ),
                id="overrides",
            ),
            pytest.param(endpoint_raw, id="endpoint"),
            *(pytest.param(lambda s=s: strategy_raw(s), id=s) for s in STRATEGIES),
        ],
    )
    def test_snapshot_is_a_fixed_point(self, make_raw):
        snap = validate_config(make_raw()).snapshot()
        assert validate_config(snap).snapshot() == snap

    def test_strategies_keep_their_order(self):
        assert STRATEGIES == tuple(SPLIT_NEEDS)

    @pytest.mark.parametrize("split", ["test", "train", "english_train"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_each_strategy_requires_only_its_splits(self, strategy, split):
        raw = strategy_raw(strategy)
        del raw["dataset"][split]
        if split in SPLIT_NEEDS[strategy]:
            assert outcome(raw) == f"dataset.{split}: required for strategy {strategy}"
        else:
            assert isinstance(outcome(raw), dict)

    @pytest.mark.parametrize("strategy", ["few_shot", "marginalise_from_b"])
    def test_presence_strategies_name_track_a(self, strategy):
        assert outcome(strategy_raw(strategy) | {"track": "B"}) == (
            f"strategy {strategy} uses presence labels; set track: A"
        )

    def test_empty_endpoint_section_is_the_default_endpoint(self):
        raw = endpoint_raw()
        raw["endpoint"] = {}
        assert validate_config(raw).endpoint == EndpointConfig()

    def test_endpoint_base_url_needs_http_scheme(self):
        raw = endpoint_raw()
        raw["endpoint"]["base_url"] = "localhost:8000/v1"
        with pytest.raises(ConfigError, match=r"^endpoint: base_url must start with http:// or https://"):
            validate_config(raw)

    @pytest.mark.parametrize(
        "url, message",
        [
            ("http:///v1", "base_url has no host: 'http:///v1'"),
            ("http://:8000/v1", "base_url has no host: 'http://:8000/v1'"),
            (
                "http://127.0.0.1:abc/v1",
                "base_url has a malformed host or port (Port could not be cast to integer value as 'abc'): "
                "'http://127.0.0.1:abc/v1'",
            ),
            (
                "http://127.0.0.1:65536/v1",
                "base_url has a malformed host or port (Port out of range 0-65535): 'http://127.0.0.1:65536/v1'",
            ),
            ("http://127.0.0.1:0/v1", "base_url port must be in 1-65535, got 0: 'http://127.0.0.1:0/v1'"),
            ("http://[::1/v1", "base_url has a malformed host or port (Invalid IPv6 URL): 'http://[::1/v1'"),
        ],
        ids=["no-host", "port-only", "non-numeric-port", "port-65536", "port-0", "unclosed-bracket"],
    )
    def test_endpoint_base_url_needs_host_and_port(self, url, message):
        raw = endpoint_raw()
        raw["endpoint"]["base_url"] = url
        assert outcome(raw) == f"endpoint: {message}"

    @pytest.mark.parametrize(
        "url", ["http://127.0.0.1:8000/v1", "https://api.example/v1", "http://[::1]:65535/v1", "http://h:/v1"]
    )
    def test_endpoint_base_url_with_host_and_port_passes(self, url):
        raw = endpoint_raw()
        raw["endpoint"]["base_url"] = url
        assert validate_config(raw).endpoint.base_url == url

    def test_snapshot_never_contains_secret_values(self, monkeypatch):
        monkeypatch.setenv("EMOHARNESS_API_KEY", "sk-should-not-appear")
        raw = minimal_raw(endpoint={"base_url": "http://h", "model_name": "m"})
        del raw["mock"]
        snap = validate_config(raw).snapshot()
        assert "sk-should-not-appear" not in json.dumps(snap)


class TestLoadConfig:
    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        (tmp_path / "data").mkdir()
        (tmp_path / "cfg.yaml").write_text(
            yaml.safe_dump(minimal_raw(dataset={"test": "data/test.csv"})), encoding="utf-8"
        )
        config = load_config(tmp_path / "cfg.yaml")
        assert config.dataset.test == tmp_path / "data" / "test.csv"
        assert config.output_dir == tmp_path / "out"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("seed: 1\nmock: keyword\nseed: 2\n", "line 3: repeated key seed"),
            ("mock: keyword\n'mock': always-0\n", "line 2: repeated key mock"),
            ("endpoint:\n  timeout: 3\n  model_name: m\n  timeout: 4\n", "line 4: repeated key endpoint.timeout"),
            ("emotions: [joy]\ncolumns: {emotions: {joy: a, joy: b}}\n", "line 2: repeated key columns.emotions.joy"),
            ("b: &b {k1: 1.0}\nbm25:\n  <<: *b\n  b: 0.5\n  b: 0.7\n", "line 5: repeated key bm25.b"),
        ],
        ids=["root", "quoted", "nested", "deeper", "after-a-merge"],
    )
    def test_repeated_key_reported(self, tmp_path, text, message):
        path = tmp_path / "cfg.yaml"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert str(excinfo.value) == f"{path}: not valid YAML: {message}"

    def test_key_set_over_a_merge_is_not_repeated(self, tmp_path):
        raw = minimal_raw()
        del raw["seed"], raw["mock"]
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(raw) + "<<: {seed: 1, mock: keyword}\nseed: 2\n", encoding="utf-8")
        config = load_config(path)
        assert (config.seed, config.mock_id) == (2, "keyword")

    def test_invalid_yaml_reported(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("track: [unclosed", encoding="utf-8")
        with pytest.raises(ConfigError, match="YAML"):
            load_config(path)


def base_config(tmp_path, csv_path, **overrides):
    raw = minimal_raw(**overrides)
    raw["dataset"] = dict(raw.get("dataset") or {}, test=str(csv_path))
    raw["output_dir"] = str(tmp_path / raw["output_dir"])
    return validate_config(raw)


class TestRunPipeline:
    def test_zero_shot_always_zero_artifacts(self, tmp_path, eng_test_csv):
        csv_path, snippets = eng_test_csv
        config = base_config(tmp_path, csv_path)
        manifest = run(config)

        out = config.output_dir
        predictions = (out / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(predictions) == 10 * 5  # snippets x english emotion set
        assert all(json.loads(line)["parsed"] == 0 for line in predictions)

        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["metric_kind"] == "macro_f1"
        assert report["average"] == 0.0  # all-zero predictions score nothing

        assert set(manifest.artifacts) == {
            "predictions.jsonl", "aggregated.jsonl", "report.json", "report.txt",
        }
        assert "manifest.json" not in manifest.artifacts
        digest = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
        assert manifest.artifacts["report.json"] == digest
        assert manifest.counts["instances"] == 50
        assert manifest.counts["parse_failures"] == 0

    def test_six_emotion_language_yields_sixty_lines(self, tmp_path):
        es = EmotionSet.for_language("deu")
        snippets = make_snippets(random.Random(1), 10, es, "A")
        csv_path = write_csv(tmp_path / "deu.csv", snippets, es)
        config = base_config(tmp_path, csv_path, language="deu")
        run(config)
        lines = (config.output_dir / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 60

    def test_gold_mock_scores_perfectly(self, tmp_path, eng_test_csv):
        csv_path, snippets = eng_test_csv
        es = EmotionSet.for_language("eng")
        mock = GoldLookupMock.from_instances(explode(snippets, es, "A"))
        config = base_config(tmp_path, csv_path)
        manifest = run(config, mock=mock)
        report = json.loads((config.output_dir / "report.json").read_text(encoding="utf-8"))
        # The generated fixture has positives for every emotion at this seed.
        assert report["average"] == 1.0

    def test_track_b_run_uses_pearson(self, tmp_path):
        es = EmotionSet.for_language("eng")
        snippets = make_snippets(random.Random(2), 8, es, "B")
        csv_path = write_csv(tmp_path / "b.csv", snippets, es)
        config = base_config(tmp_path, csv_path, track="B", mock="keyword")
        run(config)
        report = json.loads((config.output_dir / "report.json").read_text(encoding="utf-8"))
        assert report["metric_kind"] == "mean_pearson_r"

    def test_same_seed_reproduces_identical_hashes(self, tmp_path, eng_test_csv):
        csv_path, _ = eng_test_csv
        first = run(base_config(tmp_path, csv_path, mock="keyword", output_dir="run1"))
        second = run(base_config(tmp_path, csv_path, mock="keyword", output_dir="run2"))
        assert first.artifacts == second.artifacts
        assert first.counts == second.counts

    def test_manifest_times_every_stage_without_touching_hashes(self, tmp_path):
        es = EmotionSet.for_language("eng")
        rng = random.Random(5)
        train_csv = write_csv(tmp_path / "train.csv", make_snippets(rng, 12, es, "A", prefix="t"), es)
        test_csv = write_csv(tmp_path / "test.csv", make_snippets(rng, 4, es, "A"), es)
        manifests = []
        for name in ("run1", "run2"):
            raw = minimal_raw(strategy="few_shot", retrieval={"k": 2}, mock="keyword")
            raw["dataset"] = {"test": str(test_csv), "train": str(train_csv)}
            raw["output_dir"] = str(tmp_path / name)
            run(validate_config(raw))
            manifests.append(json.loads((tmp_path / name / "manifest.json").read_text(encoding="utf-8")))
        for manifest in manifests:
            stages = manifest["timing"]["stages"]
            # Prompts are rendered as the client draws them, inside ``infer``.
            assert set(stages) == {"load", "transform", "retrieve", "infer", "parse", "aggregate", "score"}
            assert all(seconds >= 0.0 for seconds in stages.values())
            assert "manifest.json" not in manifest["artifacts"]
        assert manifests[0]["artifacts"] == manifests[1]["artifacts"]

    def test_few_shot_prompts_carry_k_examples(self, tmp_path):
        es = EmotionSet.for_language("eng")
        rng = random.Random(3)
        train = make_snippets(rng, 12, es, "A", prefix="t")
        test = make_snippets(rng, 4, es, "A")
        train_csv = write_csv(tmp_path / "train.csv", train, es)
        test_csv = write_csv(tmp_path / "test.csv", test, es)

        seen_prompts = []

        class Recorder:
            def respond(self, prompt):
                seen_prompts.append(prompt)
                return "0"

        raw = minimal_raw(strategy="few_shot", retrieval={"k": 2})
        raw["dataset"] = {"test": str(test_csv), "train": str(train_csv)}
        raw["output_dir"] = str(tmp_path / "out_fs")
        run(validate_config(raw), mock=Recorder())

        assert len(seen_prompts) == 4 * 5
        for prompt in seen_prompts:
            assert prompt.count("Answer: ") == 2
            assert prompt.endswith("Answer 1 for yes and 0 for no.")

    def test_few_shot_k_larger_than_train_fails_in_retrieve_stage(self, tmp_path):
        es = EmotionSet.for_language("eng")
        rng = random.Random(4)
        train_csv = write_csv(tmp_path / "train.csv", make_snippets(rng, 2, es, "A", prefix="t"), es)
        test_csv = write_csv(tmp_path / "test.csv", make_snippets(rng, 2, es, "A"), es)
        raw = minimal_raw(strategy="few_shot", retrieval={"k": 5}, mock="always-0")
        raw["dataset"] = {"test": str(test_csv), "train": str(train_csv)}
        raw["output_dir"] = str(tmp_path / "out")
        with pytest.raises(RunStageError) as excinfo:
            run(validate_config(raw))
        assert excinfo.value.stage == "retrieve"
        assert str(excinfo.value) == "[stage=retrieve] retrieval.k: 5 exceeds the 2 rows of dataset.train"

    def test_marginalise_strategy_writes_presence_vectors(self, tmp_path, eng_test_csv):
        csv_path, _ = eng_test_csv
        config = base_config(tmp_path, csv_path, strategy="marginalise_from_b", mock="keyword")
        run(config)
        out = config.output_dir
        predictions = [json.loads(l) for l in (out / "predictions.jsonl").read_text().splitlines()]
        assert all(p["track"] == "B" for p in predictions)
        vectors = [json.loads(l) for l in (out / "aggregated.jsonl").read_text().splitlines()]
        assert all(v["track"] == "A" for v in vectors)
        assert all(value in (0, 1) for v in vectors for value in v["values"].values())

    def test_endpoint_attempts_are_the_requests_sent(self, tmp_path, monkeypatch):
        es = EmotionSet.for_language("eng")
        snippets = make_snippets(random.Random(3), 6, es, "A")
        # A repeated text renders the same prompt for every emotion, and a
        # temperature-0 run sends each of those prompts once.
        snippets += [Snippet(f"{s.id}-again", s.text, s.language, s.labels) for s in snippets[:2]]
        raw = endpoint_raw(output_dir=str(tmp_path / "out"))
        raw["dataset"] = {"test": str(write_csv(tmp_path / "test.csv", snippets, es))}
        prompts = []
        lock = threading.Lock()

        def transport(url, payload, headers, timeout):
            with lock:
                prompts.append(payload["messages"][0]["content"])
            return 200, json.dumps({"choices": [{"message": {"content": "1"}}]})

        client = functools.partial(CompletionClient, transport=transport)
        monkeypatch.setattr(emoharness.runner, "CompletionClient", client)
        manifest = run(validate_config(raw))
        assert manifest.counts["requests"] == manifest.counts["instances"] == 8 * len(es)
        assert manifest.counts["attempts"] == len(prompts) == len(set(prompts)) == 6 * len(es)

    def test_failed_request_is_named_in_the_quarantine(self, tmp_path, eng_test_csv, monkeypatch):
        csv_path, snippets = eng_test_csv
        failing = (snippets[4].text, "fear")

        def transport(url, payload, headers, timeout):
            text, emotion, _ = extract_query(payload["messages"][0]["content"])
            if (text, emotion) == failing:
                return 404, "missing"
            return 200, json.dumps({"choices": [{"message": {"content": "0"}}]})

        client = functools.partial(CompletionClient, transport=transport)
        monkeypatch.setattr(emoharness.runner, "CompletionClient", client)
        raw = endpoint_raw(output_dir=str(tmp_path / "out"), dataset={"test": str(csv_path)})
        with pytest.raises(RunStageError) as excinfo:
            run(validate_config(raw))
        assert excinfo.value.__cause__.status == 404
        error = json.loads((tmp_path / "out.partial" / "error.json").read_text(encoding="utf-8"))
        assert error["error"] == "TransportError"
        assert error["message"] == f"[stage=infer] snippet {snippets[4].id!r}, emotion fear: endpoint returned HTTP 404"

    def test_bad_api_key_stays_out_of_the_quarantine(self, tmp_path, eng_test_csv, monkeypatch, caplog):
        csv_path, _ = eng_test_csv
        monkeypatch.setenv("EMOHARNESS_API_KEY", "sk-SECRET\n")
        raw = endpoint_raw(output_dir=str(tmp_path / "out"), dataset={"test": str(csv_path)})
        raw["endpoint"].update(base_url="http://127.0.0.1:9/v1", max_retries=0)
        with caplog.at_level("DEBUG"), pytest.raises(RunStageError) as excinfo:
            run(validate_config(raw))
        assert excinfo.value.stage == "infer"
        partial = tmp_path / "out.partial"
        error = json.loads((partial / "error.json").read_text(encoding="utf-8"))
        assert error["error"] == "ConfigError"
        assert "EMOHARNESS_API_KEY" in error["message"]
        assert all("sk-SECRET" not in p.read_text(encoding="utf-8") for p in partial.iterdir())
        assert "sk-SECRET" not in str(excinfo.value)
        assert all("sk-SECRET" not in r.getMessage() for r in caplog.records)

    def test_missing_dataset_fails_in_load_stage_with_quarantine(self, tmp_path):
        raw = minimal_raw()
        raw["dataset"] = {"test": str(tmp_path / "nope.csv")}
        raw["output_dir"] = str(tmp_path / "out")
        config = validate_config(raw)
        with pytest.raises(RunStageError) as excinfo:
            run(config)
        assert excinfo.value.stage == "load"
        assert not config.output_dir.exists()
        partial = tmp_path / "out.partial"
        assert partial.is_dir()
        error = json.loads((partial / "error.json").read_text(encoding="utf-8"))
        assert error["stage"] == "load"

    def test_mock_crash_mid_inference_quarantines(self, tmp_path, eng_test_csv):
        csv_path, _ = eng_test_csv

        class Flaky:
            def __init__(self):
                self.calls = 0

            def respond(self, prompt):
                self.calls += 1
                if self.calls > 7:
                    raise RuntimeError("mock exploded")
                return "0"

        config = base_config(tmp_path, csv_path)
        with pytest.raises(RunStageError) as excinfo:
            run(config, mock=Flaky())
        assert excinfo.value.stage == "infer"
        assert not config.output_dir.exists()
        assert (tmp_path / "out.partial" / "error.json").exists()

    def test_publish_failure_quarantines(self, tmp_path, eng_test_csv):
        csv_path, _ = eng_test_csv
        config = base_config(tmp_path, csv_path)

        class Squatter:
            """Fills the output directory while the run is still inferring."""

            def respond(self, prompt):
                config.output_dir.mkdir(exist_ok=True)
                (config.output_dir / "squatter.txt").write_text("taken\n", encoding="utf-8")
                return "0"

        with pytest.raises(RunStageError) as excinfo:
            run(config, mock=Squatter())
        assert excinfo.value.stage == "publish"
        error = json.loads((tmp_path / "out.partial" / "error.json").read_text(encoding="utf-8"))
        assert error["stage"] == "publish"
        assert error["error"] == type(excinfo.value.__cause__).__name__ == "OSError"
        assert error["message"].startswith("[stage=publish] ")
        assert [p.name for p in config.output_dir.iterdir()] == ["squatter.txt"]
        assert not (tmp_path / "out.partial" / "manifest.json").exists()

    def test_existing_output_dir_rejected_before_any_io(self, tmp_path, eng_test_csv):
        csv_path, _ = eng_test_csv
        config = base_config(tmp_path, csv_path)
        config.output_dir.mkdir(parents=True)
        with pytest.raises(ConfigError, match="exists"):
            run(config)

    def test_stale_partial_dir_rejected(self, tmp_path, eng_test_csv):
        csv_path, _ = eng_test_csv
        config = base_config(tmp_path, csv_path)
        (tmp_path / "out.partial").mkdir()
        with pytest.raises(ConfigError, match="partial"):
            run(config)

    def test_manifest_snapshot_reruns_identically(self, tmp_path, eng_test_csv):
        csv_path, _ = eng_test_csv
        first = run(base_config(tmp_path, csv_path, mock="keyword", output_dir="r1"))
        snap = dict(first.config)
        snap["output_dir"] = str(tmp_path / "r2")
        second = run(validate_config(snap))
        assert second.artifacts == first.artifacts


class TestCollectorPause:
    """``run`` pauses the cyclic garbage collector and leaves it as it found it."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    class Recorder:
        """Answers 0 and records whether the collector ran at each prompt."""

        def __init__(self, fail_after=None):
            self.seen, self.fail_after = [], fail_after

        def respond(self, prompt):
            if len(self.seen) == self.fail_after:
                raise RuntimeError("mock exploded")
            self.seen.append(gc.isenabled())
            return "0"

    def test_enabled_again_after_a_run(self, tmp_path, eng_test_csv):
        gc.enable()
        mock = self.Recorder()
        run(base_config(tmp_path, eng_test_csv[0]), mock=mock)
        assert gc.isenabled()
        assert mock.seen and not any(mock.seen)  # paused while the run worked

    def test_enabled_again_after_a_quarantined_run(self, tmp_path, eng_test_csv):
        gc.enable()
        config = base_config(tmp_path, eng_test_csv[0])
        with pytest.raises(RunStageError):
            run(config, mock=self.Recorder(fail_after=3))
        assert (tmp_path / "out.partial" / "error.json").exists()
        assert gc.isenabled()

    def test_stays_disabled_when_the_caller_disabled_it(self, tmp_path, eng_test_csv):
        gc.disable()
        run(base_config(tmp_path, eng_test_csv[0]), mock=self.Recorder())
        assert not gc.isenabled()


class TestExportStrategies:
    def test_export_sft_balances_and_writes(self, tmp_path):
        es = EmotionSet.for_language("eng")
        snippets = make_snippets(random.Random(5), 20, es, "A", positive_rate=0.3)
        train_csv = write_csv(tmp_path / "train.csv", snippets, es)
        raw = minimal_raw(strategy="export_sft")
        del raw["mock"]
        raw["dataset"] = {"train": str(train_csv)}
        raw["output_dir"] = str(tmp_path / "sft_out")
        manifest = run(validate_config(raw))
        out = tmp_path / "sft_out"
        lines = (out / "sft.jsonl").read_text(encoding="utf-8").splitlines()
        # Oversampling only adds lines, never removes.
        assert len(lines) >= 20 * 5
        meta = json.loads((out / "sft.meta.json").read_text(encoding="utf-8"))
        assert meta["hyperparameters"]["lora_rank"] == 32
        assert set(manifest.artifacts) == {"sft.jsonl", "sft.meta.json"}

    def test_export_sft_without_oversample_keeps_count(self, tmp_path):
        es = EmotionSet.for_language("eng")
        snippets = make_snippets(random.Random(6), 10, es, "A")
        train_csv = write_csv(tmp_path / "train.csv", snippets, es)
        raw = minimal_raw(strategy="export_sft", oversample=False)
        del raw["mock"]
        raw["dataset"] = {"train": str(train_csv)}
        raw["output_dir"] = str(tmp_path / "sft_out")
        manifest = run(validate_config(raw))
        lines = (tmp_path / "sft_out" / "sft.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 50
        assert manifest.counts["instances"] == 50

    def test_export_ebridge_writes_two_stages(self, tmp_path):
        eng = EmotionSet.for_language("eng")
        deu = EmotionSet.for_language("deu")
        rng = random.Random(7)
        eng_csv = write_csv(tmp_path / "eng.csv", make_snippets(rng, 6, eng, "A", prefix="e"), eng)
        deu_csv = write_csv(tmp_path / "deu.csv", make_snippets(rng, 4, deu, "A", prefix="d"), deu)
        raw = minimal_raw(strategy="export_ebridge", language="deu", oversample=False)
        del raw["mock"]
        raw["dataset"] = {"train": str(deu_csv), "english_train": str(eng_csv)}
        raw["output_dir"] = str(tmp_path / "eb_out")
        manifest = run(validate_config(raw))
        out = tmp_path / "eb_out"
        plan = json.loads((out / "plan.json").read_text(encoding="utf-8"))
        assert [s["language"] for s in plan["stages"]] == ["eng", "deu"]
        # English set has five emotions, German six.
        assert plan["stages"][0]["instances"] == 6 * 5
        assert plan["stages"][1]["instances"] == 4 * 6
        assert "plan.json" in manifest.artifacts

    @pytest.mark.parametrize("strategy", ["export_sft", "export_ebridge"])
    def test_instance_count_is_lines_written(self, tmp_path, strategy):
        eng = EmotionSet.for_language("eng")
        deu = EmotionSet.for_language("deu")
        rng = random.Random(8)
        eng_csv = write_csv(tmp_path / "eng.csv", make_snippets(rng, 12, eng, "A", positive_rate=0.2), eng)
        deu_csv = write_csv(tmp_path / "deu.csv", make_snippets(rng, 9, deu, "A", positive_rate=0.3), deu)
        raw = minimal_raw(strategy=strategy, language="deu", oversample=True)
        del raw["mock"]
        raw["dataset"] = {"train": str(deu_csv), "english_train": str(eng_csv)}
        raw["output_dir"] = str(tmp_path / "out")
        manifest = run(validate_config(raw))
        written = sum(
            len(path.read_text(encoding="utf-8").splitlines())
            for path in (tmp_path / "out").glob("*.jsonl")
        )
        # Oversampling adds lines to the snippets-times-emotions base.
        assert written > {"export_sft": 9 * 6, "export_ebridge": 12 * 5 + 9 * 6}[strategy]
        assert manifest.counts["instances"] == written
