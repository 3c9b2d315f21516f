"""Seeded synthetic workloads and the benchmark's own expected outputs.

Everything here is stdlib-only and independent of the emoharness package:
the harness only ever sees the CSV and YAML files written by
:func:`prepare`, and the expectations below are recomputed from the
generated rows, never read back from the program under test.
"""

from __future__ import annotations

import csv
import json
import math
import random
import unicodedata
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

SIX = ("anger", "disgust", "fear", "joy", "sadness", "surprise")
ENG = ("anger", "fear", "joy", "sadness", "surprise")
DISPLAY = {"deu": "German", "eng": "English"}

TRACK_A_TEMPLATE = (
    "You are detecting emotions on a statement written in {language}. "
    "Statement: {text}. Does this statement express {emotion}? "
    "Answer 1 for yes and 0 for no."
)
BM25_K1, BM25_B, BM25_EPSILON = 1.5, 0.75, 0.25

# German-style letters, umlauts and ß included; no "y", so the English
# emotion words cannot form by chance except as filtered substrings.
_ONSETS = ("b", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "w", "z",
           "sch", "st", "sp", "ch", "kr", "tr", "br", "gr", "pf", "fl", "kl", "schw")
_VOWELS = ("a", "e", "i", "o", "u", "ä", "ö", "ü", "ei", "au", "ie", "eu")
_CODAS = ("", "", "n", "r", "s", "t", "ß", "ch", "ck", "nd", "ng", "lt", "rz", "mm", "tz")
_EDGE_AFTER = (",", ".", "!", "?", ";", ":", "…", "!!")
_WRAPS = (("„", "“"), ("«", "»"), ("(", ")"), ('"', '"'))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    strategy: str
    track: str
    # (file stem, language, rows, emotions, gold track) for each generated CSV
    tables: tuple[tuple[str, str, int, tuple[str, ...], str], ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fewshot_retrieval",
            "few_shot with BM25 over 2,000 Zipf-worded train rows: retrieval dominates, "
            "so any index or query-dedup change shows here",
            "few_shot", "A",
            (("train", "deu", 2000, SIX, "A"), ("test", "deu", 80, SIX, "A")),
        ),
        Workload(
            "zeroshot_mock",
            "30k zero_shot track-B requests to the in-process keyword mock: the harness's "
            "own per-request cost with no retrieval and no network",
            "zero_shot", "B",
            (("test", "deu", 5000, SIX, "B"),),
        ),
        Workload(
            "margb_http",
            "360 marginalise_from_b requests over the HTTP transport to a local keep-alive "
            "stub with a fixed 20 ms delay: request latency and connection handling",
            "marginalise_from_b", "A",
            (("test", "deu", 60, SIX, "A"),),
        ),
        Workload(
            "ebridge_export",
            "export_ebridge of 10k eng plus 10k deu rows with oversampling: the write path "
            "through corpus, prompting and exports with no inference",
            "export_ebridge", "A",
            (("english_train", "eng", 10000, ENG, "A"), ("train", "deu", 10000, SIX, "A")),
        ),
    )
}

# Long enough that the run waits on the endpoint more than it computes: with a
# 3 ms delay the run was CPU-bound and its wall time followed the host's steal
# time, spreading by a fifth between runs of the same code.
STUB_DELAY_MS = 20.0
HTTP_CONCURRENCY = 2


@dataclass
class Row:
    id: str
    text: str
    labels: dict[str, int]


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
            for _ in range(rng.choice((1, 1, 2, 2, 2, 3, 3, 4)))
        )
        if word in seen or any(e in word for e in SIX):
            continue
        seen.add(word)
        words.append(word)
    return words


class TextModel:
    """Zipf-Mandelbrot unigram model over a seeded German-style vocabulary."""

    def __init__(self, rng: random.Random, size: int = 5000):
        self.words = _vocabulary(rng, size)
        # About a third of the types behave like nouns and are capitalised.
        self.nouns = {w for w in self.words if rng.random() < 0.3}
        self.cum = list(accumulate(1.0 / (rank + 2.7) for rank in range(size)))

    def text(self, rng: random.Random, emotions: tuple[str, ...]) -> str:
        n = rng.randint(5, 40)
        words = rng.choices(self.words, cum_weights=self.cum, k=n)
        words = [w[0].upper() + w[1:] if w in self.nouns else w for w in words]
        # Emotion words are rare, sometimes repeated, so intensities 1-3 occur.
        for emotion in emotions:
            u = rng.random()
            hits = 0 if u > 0.08 else 1 if u > 0.025 else 2 if u > 0.008 else 3
            for _ in range(hits):
                words[rng.randrange(n)] = emotion.capitalize() if rng.random() < 0.2 else emotion
        out = []
        for w in words:
            u = rng.random()
            if u < 0.12:
                w += rng.choice(_EDGE_AFTER)
            elif u < 0.16:
                left, right = rng.choice(_WRAPS)
                w = left + w + right
            out.append(w)
        if rng.random() < 0.5:
            out[-1] += rng.choice(("!", ".", "?", "!!", "..."))
        return " ".join(out)


def keyword_count(text: str, emotion: str) -> int:
    """The keyword mock's rule: occurrences of the emotion word in the text."""
    return text.lower().count(emotion.lower())


def _gold(rng: random.Random, text: str, emotion: str, track: str) -> int:
    count = keyword_count(text, emotion)
    if track == "A":
        return int(rng.random() < 0.85) if count else int(rng.random() < 0.05)
    if count:
        return max(0, min(3, count + rng.choice((-1, 0, 0, 1))))
    return rng.randint(1, 3) if rng.random() < 0.05 else 0


def make_rows(rng, model, prefix, count, emotions, track) -> list[Row]:
    rows: list[Row] = []
    for i in range(count):
        if rows and rng.random() < 0.04:  # reposted texts keep their labels
            source = rng.choice(rows)
            rows.append(Row(f"{prefix}{i:05d}", source.text, dict(source.labels)))
            continue
        text = model.text(rng, emotions)
        rows.append(Row(f"{prefix}{i:05d}", text, {e: _gold(rng, text, e, track) for e in emotions}))
    return rows


def write_csv(path: Path, rows: list[Row], emotions) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "text", *emotions])
        for row in rows:
            writer.writerow([row.id, row.text, *(row.labels[e] for e in emotions)])


def _strip_punctuation(token: str) -> str:
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


def tokenize(text: str) -> list[str]:
    tokens = (_strip_punctuation(part) for part in text.lower().split())
    return [t for t in tokens if t]


def input_properties(rows: list[Row], emotions) -> dict:
    token_lists = [tokenize(r.text) for r in rows]
    labels = [r.labels[e] for r in rows for e in emotions]
    return {
        "rows": len(rows),
        "mean_tokens": round(sum(map(len, token_lists)) / len(rows), 3),
        "vocabulary": len({t for toks in token_lists for t in toks}),
        "positive_rate": round(sum(1 for v in labels if v > 0) / len(labels), 4),
        "repeated_text_share": round(1 - len({r.text for r in rows}) / len(rows), 4),
    }


@dataclass
class Prepared:
    workload: Workload
    seed: int
    directory: Path
    tables: dict[str, list[Row]]
    emotions: dict[str, tuple[str, ...]]
    properties: dict[str, dict]

    @property
    def operations(self) -> int:
        """Requests for run strategies, SFT lines for the export."""
        if self.workload.strategy == "export_ebridge":
            return sum(
                len(rows) + _balance(rows, e)[1]
                for stem, rows in self.tables.items()
                for e in self.emotions[stem]
            )
        return len(self.tables["test"]) * len(self.emotions["test"])

    @property
    def distinct_queries(self) -> int:
        return len({r.text for r in self.tables["test"]})


def _balance(rows: list[Row], emotion: str) -> tuple[str, int]:
    """Minority label and how many duplicates oversampling adds for one emotion."""
    positives = sum(1 for r in rows if r.labels[emotion] == 1)
    negatives = len(rows) - positives
    minority = "1" if positives < negatives else "0"
    return minority, abs(positives - negatives) if positives and negatives else 0


def prepare(name: str, seed: int, directory: Path) -> Prepared:
    """Generate the workload's CSVs under ``directory``; same seed, same bytes."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    model = TextModel(rng)
    tables, emotions, properties = {}, {}, {}
    for stem, language, count, emotion_set, track in workload.tables:
        rows = make_rows(rng, model, f"{language}_{stem}_", count, emotion_set, track)
        write_csv(directory / f"{stem}.csv", rows, emotion_set)
        tables[stem], emotions[stem] = rows, emotion_set
        properties[stem] = input_properties(rows, emotion_set)
    return Prepared(workload, seed, directory, tables, emotions, properties)


def config_yaml(prepared: Prepared, output_dir: str, base_url: str | None = None) -> str:
    """The experiment config as YAML; relative paths resolve against its directory."""
    w = prepared.workload
    lines = [
        f"track: {w.track}",
        "language: deu",
        f"strategy: {w.strategy}",
        f"seed: {prepared.seed}",
        f"output_dir: {json.dumps(output_dir)}",
        "dataset:",
        *(f"  {stem}: {stem}.csv" for stem in prepared.tables),
    ]
    if w.strategy == "few_shot":
        lines += ["retrieval:", "  k: 2"]
    if w.strategy == "export_ebridge":
        lines.append("oversample: true")
    elif base_url is not None:
        lines += [
            "endpoint:",
            f"  base_url: {json.dumps(base_url)}",
            "  model_name: stub",
            f"  concurrency_limit: {HTTP_CONCURRENCY}",
            "  timeout: 30",
        ]
    else:
        lines.append("mock: keyword")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Expected outputs


def _jsonl(rows) -> bytes:
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows).encode("utf-8")


def _keyword_answers(prepared: Prepared) -> tuple[str, list[dict[str, int]]]:
    """The prompt track and, per test row, the keyword mock's answer per emotion."""
    strategy = prepared.workload.strategy
    track = "B" if strategy == "marginalise_from_b" or prepared.workload.track == "B" else "A"
    hi = 3 if track == "B" else 1
    emotions = prepared.emotions["test"]
    return track, [
        {e: min(hi, keyword_count(row.text, e)) for e in emotions} for row in prepared.tables["test"]
    ]


def expected_run_artifacts(prepared: Prepared) -> dict[str, bytes]:
    """Exact bytes of predictions.jsonl and aggregated.jsonl under the keyword rule."""
    prompt_track, answers = _keyword_answers(prepared)
    marginalise = prepared.workload.strategy == "marginalise_from_b"
    predictions, aggregated = [], []
    for row, values in zip(prepared.tables["test"], answers):
        predictions += [
            {"snippet_id": row.id, "emotion": e, "track": prompt_track, "raw_text": str(v), "parsed": v}
            for e, v in values.items()
        ]
        if marginalise:
            values = {e: int(v >= 1) for e, v in values.items()}
        aggregated.append({"snippet_id": row.id, "track": "A" if marginalise else prompt_track, "values": values})
    return {"predictions.jsonl": _jsonl(predictions), "aggregated.jsonl": _jsonl(aggregated)}


def expected_average(prepared: Prepared) -> float:
    """Macro F1 (track A gold) or mean Pearson r (track B gold) of the keyword answers."""
    rows = prepared.tables["test"]
    _, pred = _keyword_answers(prepared)
    per_emotion = []
    for e in prepared.emotions["test"]:
        g = [r.labels[e] for r in rows]
        p = [v[e] for v in pred]
        if prepared.workload.track == "A":
            p = [int(v >= 1) for v in p]
            tp = sum(1 for a, b in zip(g, p) if a == 1 and b == 1)
            fp = sum(1 for a, b in zip(g, p) if a == 0 and b == 1)
            fn = sum(1 for a, b in zip(g, p) if a == 1 and b == 0)
            denom = 2 * tp + fp + fn
            per_emotion.append(2 * tp / denom if denom else 0.0)
        elif len(set(g)) == 1 or len(set(p)) == 1:
            per_emotion.append(0.0)
        else:
            mg, mp = sum(g) / len(g), sum(p) / len(p)
            sxy = sum((a - mg) * (b - mp) for a, b in zip(g, p))
            sxx = sum((a - mg) ** 2 for a in g)
            syy = sum((b - mp) ** 2 for b in p)
            per_emotion.append(max(-1.0, min(1.0, sxy / math.sqrt(sxx * syy))))
    return sum(per_emotion) / len(per_emotion)


def presence_prompt(language: str, text: str, emotion: str) -> str:
    return (TRACK_A_TEMPLATE.replace("{language}", language)
            .replace("{emotion}", emotion).replace("{text}", text))


def split_presence_prompt(language: str, prompt: str) -> tuple[str, str] | None:
    """(text, emotion) of a presence prompt, or None if it has another shape."""
    prefix, rest = presence_prompt(language, "\0", "\1").split("\0")
    middle, suffix = rest.split("\1")
    if not (prompt.startswith(prefix) and prompt.endswith(suffix)):
        return None
    text, found, emotion = prompt[len(prefix):-len(suffix)].rpartition(middle)
    if not found or presence_prompt(language, text, emotion) != prompt:
        return None
    return text, emotion


class ReferenceBm25:
    """Okapi BM25 with the epsilon IDF floor, scored through postings."""

    def __init__(self, texts: list[str]):
        tfs = [Counter(tokenize(t)) for t in texts]
        self.lengths = [sum(tf.values()) for tf in tfs]
        self.avgdl = sum(self.lengths) / len(tfs)
        self.postings: dict[str, list[tuple[int, int]]] = {}
        for i, tf in enumerate(tfs):
            for term, freq in tf.items():
                self.postings.setdefault(term, []).append((i, freq))
        n = len(tfs)
        raw = {t: math.log((n - len(p) + 0.5) / (len(p) + 0.5)) for t, p in self.postings.items()}
        positive = [v for v in raw.values() if v > 0]
        floor = BM25_EPSILON * sum(positive) / len(positive) if positive else 0.0
        self.idf = {t: v if v > 0 else floor for t, v in raw.items()}

    def scores(self, query: str) -> dict[int, float]:
        out: dict[int, float] = {}
        for token in tokenize(query):
            for i, freq in self.postings.get(token, ()):
                norm = BM25_K1 * (1.0 - BM25_B + BM25_B * self.lengths[i] / self.avgdl)
                out[i] = out.get(i, 0.0) + self.idf[token] * freq * (BM25_K1 + 1.0) / (freq + norm)
        return out


def check_few_shot_prompts(prepared: Prepared, prompts: list[str], k: int = 2) -> list[str]:
    """Check every few-shot prompt against a reference BM25 ranking.

    The query block, the example count, each example's gold answer, and the
    examples themselves: the top k by score with ties in corpus order.
    """
    train, test = prepared.tables["train"], prepared.tables["test"]
    emotions = prepared.emotions["test"]
    language = DISPLAY["deu"]
    index = ReferenceBm25([r.text for r in train])
    labels_by_text: dict[str, dict[str, set[int]]] = {}
    for r in train:
        slot = labels_by_text.setdefault(r.text, {e: set() for e in emotions})
        for e in emotions:
            slot[e].add(r.labels[e])
    expected_queries = Counter((r.text, e) for r in test for e in emotions)
    seen_queries: Counter = Counter()
    ranked: dict[str, tuple[list[tuple[str, float]], dict[str, float]]] = {}
    errors: list[str] = []
    for prompt in prompts:
        blocks = prompt.split("\n\n")
        query = split_presence_prompt(language, blocks[-1])
        if query is None or len(blocks) != k + 1:
            errors.append(f"few-shot prompt has an unexpected shape: {prompt[:80]!r}")
            continue
        text, emotion = query
        seen_queries[query] += 1
        if text not in ranked:
            scored = index.scores(text)
            order = sorted(scored, key=lambda i: (-scored[i], i))[:k]
            order += [i for i in range(len(train)) if i not in scored][: k - len(order)]
            ranked[text] = (
                [(train[i].text, scored.get(i, 0.0)) for i in order],
                {train[i].text: v for i, v in scored.items()},
            )
        expected, score_of = ranked[text]
        for rank, block in enumerate(blocks[:-1]):
            example, _, answer = block.rpartition("\nAnswer: ")
            parsed = split_presence_prompt(language, example)
            if parsed is None or parsed[1] != emotion or parsed[0] not in labels_by_text:
                errors.append(f"few-shot example is not a train text for {emotion}: {example[:80]!r}")
                continue
            if not answer.isdigit() or int(answer) not in labels_by_text[parsed[0]][emotion]:
                errors.append(f"few-shot example answer {answer!r} is not its gold label")
            want_text, want = expected[rank]
            got = score_of.get(parsed[0], 0.0)
            # Exact ties keep corpus order; only float noise below 1e-9 may reorder.
            if parsed[0] != want_text and (got == want or abs(got - want) > 1e-9 * max(1.0, want)):
                errors.append(
                    f"few-shot example {rank + 1} for {text[:40]!r} scores {got!r}; "
                    f"expected {want_text[:40]!r} scoring {want!r}"
                )
        if len(errors) > 5:
            break
    if not errors and seen_queries != expected_queries:
        errors.append("few-shot prompts do not cover each (test text, emotion) exactly once")
    return errors


def check_export(prepared: Prepared, out_dir: Path) -> list[str]:
    """Check both E-bridge stages line by line.

    Originals must appear in explode order within each emotion group, followed
    by exactly enough minority-class duplicates of that group to balance it.
    """
    errors: list[str] = []
    total = 0
    stages = (("english_train", "eng", "stage1_eng.jsonl"), ("train", "deu", "stage2_deu.jsonl"))
    for stem, language, filename in stages:
        rows, emotions = prepared.tables[stem], prepared.emotions[stem]
        path = out_dir / filename
        if not path.is_file():
            return [f"export is missing {filename}"]
        lines = path.read_text(encoding="utf-8").splitlines()
        total += len(lines)
        at = 0
        for e in emotions:
            group = [(presence_prompt(DISPLAY[language], r.text, e), str(r.labels[e])) for r in rows]
            minority, shortfall = _balance(rows, e)
            members = {pair for pair in group if pair[1] == minority}
            for i in range(len(group) + shortfall):
                if at + i >= len(lines):
                    errors.append(f"{filename}: ends inside the {e} group")
                    return errors
                record = json.loads(lines[at + i])
                pair = (record["instruction"], record["output"])
                if (i < len(group) and pair != group[i]) or (i >= len(group) and pair not in members):
                    errors.append(f"{filename}: line {at + i + 1} is not the expected {e} instance")
                    return errors
            at += len(group) + shortfall
        if at != len(lines):
            errors.append(f"{filename}: {len(lines) - at} unexpected trailing lines")
    plan = json.loads((out_dir / "plan.json").read_text(encoding="utf-8"))
    counts = [s["instances"] for s in plan["stages"]]
    if [s["language"] for s in plan["stages"]] != ["eng", "deu"] or sum(counts) != total:
        errors.append(f"plan.json stages do not match the written datasets: {plan['stages']}")
    return errors
