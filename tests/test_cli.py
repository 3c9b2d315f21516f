"""Command line entry points, driven through main() with argv lists."""

import csv
import errno
import json
import os
import random
import signal
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
import yaml

from emoharness import Bm25Params, ColumnSchema, DatasetPaths, EmotionSet, EndpointConfig, RetrievalConfig
from emoharness.cli import main
from datagen import make_snippets, write_csv

#: The checkout's source tree, put on a child interpreter's path.
SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def workdir(tmp_path):
    es = EmotionSet.for_language("eng")
    rng = random.Random(11)
    train = make_snippets(rng, 8, es, "A", prefix="t")
    test = make_snippets(rng, 5, es, "A")
    write_csv(tmp_path / "train.csv", train, es)
    write_csv(tmp_path / "test.csv", test, es)
    return tmp_path


#: Marks a parameter case whose input file is deleted.
MISSING = "missing"
#: A text whose input file is written as Latin-1, so it is not valid UTF-8.
NOT_UTF8 = "café"
#: A text longer than the csv module's default field size limit (131072).
OVERSIZED = "x" * 140_000


def write_latin1(path):
    path.write_bytes(path.read_text(encoding="utf-8").encode("latin-1"))


def write_yaml(path, raw):
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return path


def run_config(workdir, **overrides):
    raw = {
        "track": "A",
        "language": "eng",
        "strategy": "zero_shot",
        "seed": 3,
        "output_dir": "out",
        "dataset": {"test": "test.csv"},
        "mock": "keyword",
    }
    raw.update(overrides)
    return write_yaml(workdir / "cfg.yaml", raw)


#: Every float-typed key of the config's settings sections.
FLOAT_KEYS = [
    f"{section}.{f.name}"
    for section, cls in [
        ("dataset", DatasetPaths),
        ("columns", ColumnSchema),
        ("bm25", Bm25Params),
        ("retrieval", RetrievalConfig),
        ("endpoint", EndpointConfig),
    ]
    for f in fields(cls)
    if f.type == "float"
]


class TestRunCommand:
    def test_run_prints_report_and_location(self, workdir, capsys):
        cfg = run_config(workdir)
        assert main(["run", str(cfg)]) == 0
        captured = capsys.readouterr().out
        assert "run complete" in captured
        assert "macro_f1" in captured
        assert (workdir / "out" / "manifest.json").exists()

    def test_run_missing_config_is_an_error(self, workdir, capsys):
        assert main(["run", str(workdir / "absent.yaml")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_run_with_a_repeated_key_is_an_error(self, workdir, capsys):
        cfg = run_config(workdir)
        with cfg.open("a", encoding="utf-8") as fh:
            fh.write("mock: always-0\n")
        assert main(["run", str(cfg)]) == 1
        line = len(cfg.read_text(encoding="utf-8").splitlines())
        assert capsys.readouterr().err == f"error: {cfg}: not valid YAML: line {line}: repeated key mock\n"
        assert not (workdir / "out").exists()

    def test_run_twice_refuses_to_overwrite(self, workdir, capsys):
        cfg = run_config(workdir)
        assert main(["run", str(cfg)]) == 0
        assert main(["run", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_run_output_dir_under_a_file_is_an_error(self, workdir, capsys):
        (workdir / "afile").write_text("not a directory\n", encoding="utf-8")
        cfg = run_config(workdir, output_dir="afile/out")
        assert main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: output_dir: cannot create {workdir / 'afile' / 'out.partial'}: ")
        assert "Traceback" not in err

    def test_refused_error_json_still_reports_the_stage_error(self, workdir, capsys, caplog, monkeypatch):
        def full_disk(path, payload):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        # report.json and then error.json both go through write_json.
        monkeypatch.setattr("emoharness.runner.write_json", full_disk)
        cfg = run_config(workdir)
        assert main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err
        (line,) = [line for line in err.splitlines() if line.startswith("error:")]
        assert line.startswith("error: [stage=score] ")
        assert "Traceback" not in err
        assert any(str(workdir / "out.partial" / "error.json") in r.getMessage() for r in caplog.records)
        assert not (workdir / "out").exists()

    def test_error_json_cut_short_is_removed(self, workdir, capsys, monkeypatch):
        def disk_full_after_open(path, payload):
            # The open succeeds and the first bytes land; the rest does not fit.
            with path.open("w", encoding="utf-8") as fh:
                fh.write('{\n  "error": "')
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        # report.json and then error.json both go through write_json.
        monkeypatch.setattr("emoharness.runner.write_json", disk_full_after_open)
        cfg = run_config(workdir)
        assert main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err
        (line,) = [line for line in err.splitlines() if line.startswith("error:")]
        assert line.startswith("error: [stage=score] ")
        assert (workdir / "out.partial").is_dir()
        assert not (workdir / "out.partial" / "error.json").exists()
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), 10**400], ids=["nan", "inf", "-inf", "401-digits"]
    )
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_float_must_be_finite(self, workdir, capsys, key, value):
        section, name = key.split(".")
        overrides = {section: {name: value}}
        if section == "endpoint":
            # A loopback URL and no retries: a run that got past validation stays on this machine.
            endpoint = {"base_url": "http://127.0.0.1:9/v1", "model_name": "m", "max_retries": 0, name: value}
            overrides = {"endpoint": endpoint, "mock": None}
        cfg = run_config(workdir, **overrides)
        assert main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: expected a finite number, got ")
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "url",
        [
            "http://127.0.0.1:abc/v1", "http://127.0.0.1:0/v1", "http://127.0.0.1:70000/v1", "http:///v1",
            "http://a b/v1", "http://host/v 1", "http://a\x00b:80/v1",
        ],
    )
    def test_malformed_base_url_fails_before_any_request(self, workdir, capsys, monkeypatch, url):
        def no_client(*args, **kwargs):
            raise AssertionError("a completion client was built")

        monkeypatch.setattr("emoharness.inference.CompletionClient.__init__", no_client)
        cfg = run_config(workdir, endpoint={"base_url": url, "model_name": "m"}, mock=None)
        assert main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: endpoint: base_url ")
        assert repr(url) in err
        assert "Traceback" not in err
        assert not (workdir / "out").exists()


class TestScoreCommand:
    def gold_and_predictions(self, workdir):
        cfg = run_config(workdir)
        main(["run", str(cfg)])
        return workdir / "test.csv", workdir / "out" / "predictions.jsonl"

    def test_score_matches_run_report(self, workdir, capsys):
        gold, preds = self.gold_and_predictions(workdir)
        report = json.loads((workdir / "out" / "report.json").read_text(encoding="utf-8"))
        json_out = workdir / "scored.json"
        assert main([
            "score", str(gold), str(preds),
            "--language", "eng", "--json-out", str(json_out),
        ]) == 0
        rescored = json.loads(json_out.read_text(encoding="utf-8"))
        assert rescored["average"] == report["average"]
        assert rescored["per_emotion"] == report["per_emotion"]
        out = capsys.readouterr().out
        assert "macro_f1" in out

    def test_score_marginalise_collapses_intensities(self, workdir, capsys):
        es = EmotionSet.for_language("eng")
        rng = random.Random(12)
        gold = make_snippets(rng, 6, es, "A")
        gold_csv = write_csv(workdir / "gold_a.csv", gold, es)
        preds_path = workdir / "b_preds.jsonl"
        with preds_path.open("w", encoding="utf-8") as fh:
            for snippet in gold:
                for emotion in es.emotions:
                    value = snippet.labels[emotion] * 3  # 0 stays 0, 1 becomes 3
                    fh.write(json.dumps({
                        "snippet_id": snippet.id,
                        "emotion": emotion,
                        "track": "B",
                        "raw_text": str(value),
                        "parsed": value,
                    }) + "\n")
        assert main([
            "score", str(gold_csv), str(preds_path),
            "--language", "eng", "--marginalise",
        ]) == 0
        out = capsys.readouterr().out
        assert "macro_f1" in out
        assert "1.000" in out

    def test_score_reads_a_predictions_file_with_a_bom(self, workdir, capsys):
        gold, preds = self.gold_and_predictions(workdir)
        bom = workdir / "bom.jsonl"
        bom.write_bytes(b"\xef\xbb\xbf" + preds.read_bytes())
        capsys.readouterr()
        assert main(["score", str(gold), str(preds), "--language", "eng"]) == 0
        plain = capsys.readouterr().out
        assert main(["score", str(gold), str(bom), "--language", "eng"]) == 0
        assert capsys.readouterr().out == plain

    def test_score_unwritable_json_out_is_an_error(self, workdir, capsys):
        gold, preds = self.gold_and_predictions(workdir)
        json_out = workdir / "absent_dir" / "r.json"
        assert main(["score", str(gold), str(preds), "--language", "eng", "--json-out", str(json_out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --json-out {json_out}: cannot write report: ")
        assert "Traceback" not in err

    def test_score_missing_record_key_names_it(self, workdir, capsys):
        gold, preds = self.gold_and_predictions(workdir)
        lines = preds.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(lines[2])
        del record["parsed"]
        lines[2] = json.dumps(record) + "\n"
        bad = workdir / "bad.jsonl"
        bad.write_text("".join(lines), encoding="utf-8")
        assert main(["score", str(gold), str(bad), "--language", "eng"]) == 1
        assert capsys.readouterr().err == f"error: {bad}: line 3: bad prediction record: missing key 'parsed'\n"

    def test_score_line_nested_past_the_recursion_limit_names_it(self, workdir, capsys):
        gold, preds = self.gold_and_predictions(workdir)
        lines = preds.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = "[" * 200_000 + "\n"
        preds.write_text("".join(lines), encoding="utf-8")
        assert main(["score", str(gold), str(preds), "--language", "eng"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {preds}: line 3: bad prediction record: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(lambda lines: lines + lines[:1], "duplicate record for ('s0000', anger)", id="repeated-line"),
            pytest.param(lambda lines: lines[1:], "missing (snippet, emotion) predictions: s0000:anger", id="missing-line"),
            pytest.param(
                lambda lines: [lines[0].replace('"track": "A"', '"track": "B"')] + lines[1:],
                "records mix tracks ['A', 'B']",
                id="mixed-tracks",
            ),
        ],
    )
    def test_score_aggregation_error_names_the_predictions_file(self, workdir, capsys, edit, message):
        gold, preds = self.gold_and_predictions(workdir)
        bad = workdir / "bad.jsonl"
        bad.write_text("".join(edit(preds.read_text(encoding="utf-8").splitlines(keepends=True))), encoding="utf-8")
        capsys.readouterr()
        assert main(["score", str(gold), str(bad), "--language", "eng"]) == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    def test_score_empty_predictions_file(self, workdir, capsys):
        gold, _ = self.gold_and_predictions(workdir)
        empty = workdir / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["score", str(gold), str(empty), "--language", "eng"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad_line, cites",
        [
            pytest.param("{not json", "line 26", id="not-json"),
            pytest.param('["x"]', "line 26", id="not-an-object"),
            pytest.param(None, "missing.jsonl", id="missing-file"),
        ],
    )
    def test_score_corrupt_line_cites_line_number(self, workdir, capsys, bad_line, cites):
        gold, preds = self.gold_and_predictions(workdir)
        bad = workdir / ("missing.jsonl" if bad_line is None else "bad.jsonl")
        if bad_line is not None:
            bad.write_text(preds.read_text(encoding="utf-8") + bad_line + "\n", encoding="utf-8")
        assert main(["score", str(gold), str(bad), "--language", "eng"]) == 1
        err = capsys.readouterr().err
        assert cites in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "gold_rows, track, text",
        [
            pytest.param(0, "A", None, id="gold-header-only"),
            pytest.param(1, "B", None, id="track-b-gold-one-row"),
            pytest.param(1, "A", NOT_UTF8, id="gold-not-utf8"),
            pytest.param(1, "A", OVERSIZED, id="gold-field-over-csv-limit"),
        ],
    )
    def test_score_bad_gold_is_an_error_not_a_traceback(self, workdir, capsys, gold_rows, track, text):
        es = EmotionSet.for_language("eng")
        snippet = make_snippets(random.Random(5), 1, es, track)[0]
        if text is not None:
            snippet = replace(snippet, text=text)
        gold = write_csv(workdir / "gold.csv", [snippet][:gold_rows], es)
        if text is NOT_UTF8:
            write_latin1(gold)
        preds = workdir / "preds.jsonl"
        preds.write_text(
            "".join(
                json.dumps({"snippet_id": snippet.id, "emotion": e, "track": track, "raw_text": "1", "parsed": 1})
                + "\n"
                for e in es.emotions
            ),
            encoding="utf-8",
        )
        assert main(["score", str(gold), str(preds), "--language", "eng"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {gold}:")
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param("track", "C", id="track-unknown"),
            pytest.param("track", None, id="track-null"),
            pytest.param("track", ["A"], id="track-unhashable"),
            pytest.param("snippet_id", ["a"], id="snippet-id-list"),
            pytest.param("emotion", 3, id="emotion-not-a-string"),
            pytest.param("raw_text", None, id="raw-text-null"),
            pytest.param("parsed", 2, id="parsed-out-of-range"),
            pytest.param("parsed", "1", id="parsed-a-string"),
            pytest.param("parsed", True, id="parsed-a-bool"),
        ],
    )
    def test_score_bad_record_field_cites_line_number(self, workdir, capsys, field, value):
        es = EmotionSet.for_language("eng")
        snippets = make_snippets(random.Random(5), 2, es, "A")
        gold = write_csv(workdir / "gold.csv", snippets, es)
        records = [
            {"snippet_id": s.id, "emotion": e, "track": "A", "raw_text": "1", "parsed": 1}
            for s in snippets
            for e in es.emotions
        ]
        records[2][field] = value
        preds = workdir / "preds.jsonl"
        preds.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert main(["score", str(gold), str(preds), "--language", "eng"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {preds}: line 3: bad prediction record: ")
        assert "Traceback" not in err


class TestExportSftCommand:
    def test_export_writes_dataset(self, workdir, capsys):
        cfg = run_config(
            workdir,
            strategy="export_sft",
            dataset={"train": "train.csv"},
            mock=None,
        )
        raw = yaml.safe_load(cfg.read_text(encoding="utf-8"))
        del raw["mock"]
        write_yaml(cfg, raw)
        assert main(["export-sft", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "sft.jsonl" in out
        assert (workdir / "out" / "sft.jsonl").exists()

    def test_export_rejects_run_strategy(self, workdir, capsys):
        cfg = run_config(workdir)
        assert main(["export-sft", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err


class TestRetrieveCommand:
    def test_retrieve_prints_ranked_rows(self, workdir, capsys):
        cfg = run_config(
            workdir,
            strategy="few_shot",
            dataset={"test": "test.csv", "train": "train.csv"},
        )
        assert main(["retrieve", "--query", "joy anger text", "-k", "3", str(cfg)]) == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(rows) == 3
        first = rows[0].split("\t")
        assert first[0] == "1"
        assert first[1].startswith("t")
        float(first[2])  # score column parses as a number

    def test_retrieve_requires_train_split(self, workdir, capsys):
        cfg = run_config(workdir)
        assert main(["retrieve", "--query", "joy", "-k", "2", str(cfg)]) == 1
        assert "train" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "k, train_text, names",
        [
            pytest.param("0", None, "-k", id="k-zero"),
            pytest.param("9", None, "-k", id="k-above-train-rows"),
            pytest.param("2", "!!!", "dataset.train", id="train-without-tokens"),
            pytest.param("2", MISSING, "{workdir}/train.csv", id="train-csv-missing"),
            pytest.param("2", NOT_UTF8, "{workdir}/train.csv", id="train-csv-not-utf8"),
            pytest.param("2", OVERSIZED, "{workdir}/train.csv", id="train-field-over-csv-limit"),
        ],
    )
    def test_retrieve_bad_input_is_an_error_not_a_traceback(
        self, workdir, capsys, k, train_text, names
    ):
        if train_text is MISSING:
            (workdir / "train.csv").unlink()
        elif train_text is not None:
            es = EmotionSet.for_language("eng")
            rows = make_snippets(random.Random(2), 3, es, "A", prefix="t")
            write_csv(workdir / "train.csv", [replace(s, text=train_text) for s in rows], es)
            if train_text is NOT_UTF8:
                write_latin1(workdir / "train.csv")
        cfg = run_config(
            workdir,
            strategy="few_shot",
            dataset={"test": "test.csv", "train": "train.csv"},
        )
        assert main(["retrieve", "--query", "joy", "-k", k, str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {names.format(workdir=workdir)}:")
        assert "Traceback" not in err


def append_columns(path, names):
    """Append columns to a CSV; a column named like an existing one repeats its cells."""
    with path.open(encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header + names)
        writer.writerows(row + [row[header.index(n)] if n in header else "x" for n in names] for row in rows)


class TestInputsRejectedByName:
    @pytest.mark.parametrize("command", ["run", "export-sft", "retrieve"])
    def test_config_not_utf8_is_an_error(self, workdir, capsys, command):
        cfg = run_config(workdir)
        cfg.write_bytes(cfg.read_bytes() + "language: é\n".encode("latin-1"))
        argv = [command, str(cfg)] + (["--query", "joy"] if command == "retrieve" else [])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: cannot read config: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "export-sft", "retrieve"])
    def test_config_nested_past_the_recursion_limit_is_an_error(self, workdir, capsys, command):
        cfg = workdir / "deep.yaml"
        cfg.write_text("x: " + "[" * 2000 + "\n", encoding="utf-8")
        argv = [command, str(cfg)] + (["--query", "joy"] if command == "retrieve" else [])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: not valid YAML: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "command, key",
        [("run", "output_dir"), ("run", "dataset.test"), ("retrieve", "dataset.train")],
    )
    def test_nul_in_a_path_names_the_key(self, workdir, capsys, command, key):
        raw = {"strategy": "few_shot", "dataset": {"test": "test.csv", "train": "train.csv"}}
        section, _, name = key.rpartition(".")
        (raw[section] if section else raw)[name] = "o\x00"
        cfg = run_config(workdir, **raw)
        argv = [command, str(cfg)] + (["--query", "joy"] if command == "retrieve" else [])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {key}: expected a non-empty string without NUL, got 'o\\x00'\n"

    @pytest.mark.parametrize(
        "names, repeated",
        [
            pytest.param(["id"], "id", id="id"),
            pytest.param(["joy"], "joy", id="emotion"),
            pytest.param(["fear", "joy"], "fear, joy", id="two-emotions"),
            pytest.param(["note", "note"], None, id="unmapped"),
        ],
    )
    def test_repeated_mapped_column_is_an_error(self, workdir, capsys, names, repeated):
        append_columns(workdir / "test.csv", names)
        cfg = run_config(workdir)
        if repeated is None:  # unmapped columns may repeat
            assert main(["run", str(cfg)]) == 0
            return
        assert main(["run", str(cfg)]) == 1
        test_csv = workdir / "test.csv"
        assert capsys.readouterr().err == f"error: [stage=load] {test_csv}: duplicate column(s): {repeated}\n"

    @pytest.mark.parametrize("command", ["run", "retrieve"])
    @pytest.mark.parametrize(
        "columns, message",
        [
            pytest.param({"id": "id", "text": "id"}, "id and text both name CSV column 'id'", id="id-is-text"),
            pytest.param({"text": "joy"}, "text and emotions.joy both name CSV column 'joy'", id="text-on-an-emotion"),
            pytest.param(
                {"emotions": {"joy": "fear"}},
                "emotions.fear and emotions.joy both name CSV column 'fear'",
                id="emotion-on-another",
            ),
            pytest.param(
                {"emotions": {"anger": "feeling", "joy": "feeling"}},
                "emotions.anger and emotions.joy both name CSV column 'feeling'",
                id="two-emotions-on-one",
            ),
        ],
    )
    def test_column_read_as_two_logical_columns_is_an_error(self, workdir, capsys, command, columns, message):
        cfg = run_config(workdir, strategy="few_shot", dataset={"test": "test.csv", "train": "train.csv"}, columns=columns)
        argv = [command, str(cfg)] + (["--query", "joy"] if command == "retrieve" else [])
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: columns: {message}\n"
        assert not (workdir / "out").exists() and not (workdir / "out.partial").exists()

    @pytest.mark.parametrize("command", ["run", "export-sft"])
    @pytest.mark.parametrize("language", ["de/ch", "de\x00x", "de\tch", "de\x85"], ids=["slash", "nul", "tab", "c1"])
    def test_ebridge_language_that_cannot_name_a_file_is_an_error(self, workdir, capsys, command, language):
        deu = EmotionSet.for_language("deu")
        write_csv(workdir / "deu.csv", make_snippets(random.Random(4), 6, deu, "A"), deu)
        cfg = run_config(
            workdir, strategy="export_ebridge", language=language, dataset={"train": "deu.csv", "english_train": "train.csv"}
        )
        assert main([command, str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: language: {language!r} names the stage-2 file; it may hold no '/' or control character\n"
        assert not (workdir / "out").exists() and not (workdir / "out.partial").exists()

    @pytest.mark.parametrize("command", ["run", "export-sft"])
    def test_ebridge_language_too_long_to_name_a_file_is_an_error(self, workdir, capsys, command):
        language = "x" * 239
        deu = EmotionSet.for_language("deu")
        write_csv(workdir / "deu.csv", make_snippets(random.Random(4), 6, deu, "A"), deu)
        cfg = run_config(
            workdir, strategy="export_ebridge", language=language, dataset={"train": "deu.csv", "english_train": "train.csv"}
        )
        assert main([command, str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: language: {language!r} names the stage-2 file; it may be at most 238 UTF-8 bytes, not 239\n"
        assert not (workdir / "out").exists() and not (workdir / "out.partial").exists()

    @pytest.mark.parametrize(
        "command, strategy",
        [("run", "zero_shot"), ("run", "export_ebridge"), ("export-sft", "export_ebridge")],
    )
    def test_lone_surrogate_language_is_an_error(self, workdir, capsys, command, strategy):
        # PyYAML reads the "\\ud800" escape that yaml.safe_dump writes as a lone surrogate.
        deu = EmotionSet.for_language("deu")
        write_csv(workdir / "deu.csv", make_snippets(random.Random(4), 6, deu, "A"), deu)
        overrides = {}
        if strategy == "export_ebridge":
            overrides = {"dataset": {"train": "deu.csv", "english_train": "train.csv"}, "mock": None}
        cfg = run_config(workdir, strategy=strategy, language="\ud800", **overrides)
        assert b"\\uD800" in cfg.read_bytes()
        assert main([command, str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == "error: language: '\\ud800' holds a lone surrogate, which UTF-8 cannot encode\n"
        assert not (workdir / "out").exists() and not (workdir / "out.partial").exists()


def test_every_artifact_is_written_in_binary(workdir, monkeypatch):
    # Text mode writes "\n" as "\r\n" on Windows, so an artifact's bytes, and
    # its manifest hash, would depend on the platform.
    deu = EmotionSet.for_language("deu")
    write_csv(workdir / "deu.csv", make_snippets(random.Random(4), 6, deu, "A"), deu)
    base = {"track": "A", "language": "eng", "strategy": "zero_shot", "seed": 3, "dataset": {"test": "test.csv"}}
    zero_shot = write_yaml(workdir / "zero_shot.yaml", {**base, "output_dir": "zs", "mock": "keyword"})
    failing = write_yaml(workdir / "failing.yaml", {**base, "output_dir": "failed", "mock": "keyword"})
    ebridge = write_yaml(workdir / "ebridge.yaml", {
        **base, "language": "deu", "strategy": "export_ebridge", "output_dir": "eb",
        "dataset": {"train": "deu.csv", "english_train": "train.csv"},
    })
    scored = workdir / "scored.json"

    # Every pathlib write, write_text and write_bytes included, goes through
    # Path.open, whichever way the running Python's pathlib reaches io.open.
    opened = []
    path_open = Path.open

    def recording_open(self, mode="r", *args, **kwargs):
        opened.append((self.name, mode))
        return path_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", recording_open)
    assert main(["run", str(zero_shot)]) == 0
    preds = workdir / "zs" / "predictions.jsonl"
    assert main(["score", str(workdir / "test.csv"), str(preds), "--language", "eng", "--json-out", str(scored)]) == 0
    assert main(["run", str(ebridge)]) == 0

    def no_aggregate(records, emotion_set):
        raise ValueError("aggregate refused")

    monkeypatch.setattr("emoharness.runner.aggregate", no_aggregate)
    assert main(["run", str(failing)]) == 1

    written = [(name, mode) for name, mode in opened if set(mode) & set("wax+")]
    assert {name for name, _ in written} == {
        "predictions.jsonl", "aggregated.jsonl", "report.json", "report.txt", "manifest.json", "scored.json",
        "stage1_eng.jsonl", "stage1_eng.meta.json", "stage2_deu.jsonl", "stage2_deu.meta.json", "plan.json",
        "error.json",
    }
    assert [(name, mode) for name, mode in written if "b" not in mode] == []


def test_unknown_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


class TestModuleEntryPoint:
    """``python -m emoharness`` is the console script under another name."""

    def _module(self, *args, cwd):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        return subprocess.run(
            [sys.executable, "-m", "emoharness", *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=60
        )

    def test_help_exits_zero(self, tmp_path):
        done = self._module("--help", cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: ")

    def test_missing_config_exits_one_with_one_error_line(self, tmp_path):
        done = self._module("run", "absent.yaml", cwd=tmp_path)
        assert done.returncode == 1
        assert done.stderr.startswith("error: absent.yaml: cannot read config: ")
        assert done.stderr.count("\n") == 1, done.stderr


#: Runs ``cli.main(["run", <config>])`` with a keyword mock that sends the
#: named signal to its own process on the seventh request.
SIGNALLING_DRIVER = """
import os, signal, sys
import emoharness.runner
from emoharness.cli import main
from emoharness.mocks import KeywordMock

class Signalling(KeywordMock):
    calls = 0

    def respond(self, prompt):
        self.calls += 1
        if self.calls == 7:
            os.kill(os.getpid(), signal.%s)
        return super().respond(prompt)

emoharness.runner.build_mock = lambda mock_id: Signalling()
sys.exit(main(["run", sys.argv[1]]))
"""


@pytest.mark.parametrize("signal_name, code", [("SIGINT", 130), ("SIGTERM", 143)])
def test_signal_mid_run_exits_with_one_error_line_and_a_quarantine(workdir, signal_name, code):
    cfg = run_config(workdir)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", SIGNALLING_DRIVER % signal_name, str(cfg)],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == code, done.stderr
    assert len([line for line in done.stderr.splitlines() if line.startswith("error:")]) == 1, done.stderr
    assert "Traceback" not in done.stderr
    error = json.loads((workdir / "out.partial" / "error.json").read_text(encoding="utf-8"))
    assert (error["stage"], error["error"]) == ("infer", "KeyboardInterrupt")
    assert not (workdir / "out").exists()


def test_main_restores_the_sigterm_handler(workdir):
    previous = signal.getsignal(signal.SIGTERM)
    assert main(["run", str(run_config(workdir))]) == 0
    assert signal.getsignal(signal.SIGTERM) is previous
