"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from the defining formulas with
plain Python (no numpy, no imports from the package under test) so that a
bug in the implementation cannot hide in its own oracle.
"""

import csv
import math
import re
import unicodedata


def ref_f1_per_emotion(gold: dict[str, dict[str, int]], pred: dict[str, dict[str, int]], emotions):
    """Binary F1 per emotion over id-keyed label maps; empty denominator -> 0."""
    per = {}
    for emotion in emotions:
        tp = fp = fn = 0
        for sid, labels in gold.items():
            g = labels[emotion]
            p = pred[sid][emotion]
            if g == 1 and p == 1:
                tp += 1
            elif g == 0 and p == 1:
                fp += 1
            elif g == 1 and p == 0:
                fn += 1
        denom = 2 * tp + fp + fn
        per[emotion] = 2 * tp / denom if denom else 0.0
    return per


def ref_macro_f1(gold, pred, emotions) -> float:
    per = ref_f1_per_emotion(gold, pred, emotions)
    return sum(per.values()) / len(per)


def ref_pearson(xs: list[float], ys: list[float]) -> float:
    """Pearson r from the defining formula; constant input -> 0."""
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        return 0.0
    return sxy / math.sqrt(sxx * syy)


def ref_mean_pearson(gold, pred, emotions) -> float:
    ids = sorted(gold)
    total = 0.0
    for emotion in emotions:
        xs = [float(gold[sid][emotion]) for sid in ids]
        ys = [float(pred[sid][emotion]) for sid in ids]
        total += ref_pearson(xs, ys)
    return total / len(emotions)


def ref_tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, then drop P* characters off each part's
    edges one at a time; parts left empty are dropped."""
    tokens = []
    for part in text.lower().split():
        start, end = 0, len(part)
        while start < end and unicodedata.category(part[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(part[end - 1]).startswith("P"):
            end -= 1
        if start < end:
            tokens.append(part[start:end])
    return tokens


def ref_bm25_idf(corpus_tokens: list[list[str]], epsilon: float) -> dict[str, float]:
    """Okapi IDF with the positive-mean epsilon floor for non-positive values."""
    n_docs = len(corpus_tokens)
    df: dict[str, int] = {}
    for tokens in corpus_tokens:
        for term in set(tokens):
            df[term] = df.get(term, 0) + 1
    raw = {t: math.log((n_docs - n + 0.5) / (n + 0.5)) for t, n in df.items()}
    positives = [v for v in raw.values() if v > 0]
    floor = epsilon * (sum(positives) / len(positives)) if positives else 0.0
    return {t: (v if v > 0 else floor) for t, v in raw.items()}


def ref_bm25_scores(
    corpus_tokens: list[list[str]],
    query_tokens: list[str],
    k1: float,
    b: float,
    epsilon: float,
) -> list[float]:
    """Score of every document for the query, in corpus order."""
    idf = ref_bm25_idf(corpus_tokens, epsilon)
    n_docs = len(corpus_tokens)
    lengths = [len(tokens) for tokens in corpus_tokens]
    avgdl = sum(lengths) / n_docs
    scores = []
    for tokens, length in zip(corpus_tokens, lengths):
        freq: dict[str, int] = {}
        for term in tokens:
            freq[term] = freq.get(term, 0) + 1
        norm = k1 * (1.0 - b + b * length / avgdl)
        total = 0.0
        for term in query_tokens:
            f = freq.get(term, 0)
            if f:
                total += idf[term] * f * (k1 + 1.0) / (f + norm)
        scores.append(total)
    return scores


def ref_bm25_ranking(scores: list[float], k: int) -> list[int]:
    """Positions of the k best documents; ties go to the earlier position."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return order[:k]


class RefDatasetError(Exception):
    """An error of ``ref_load_dataset``; ``kind`` names the package's
    exception class for it."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def ref_load_dataset(path, id_column: str, text_column: str, columns, language: str, track: str):
    """Read an annotated CSV through ``csv.DictReader``, one dict per row, into
    ``(id, text, language, {emotion: label})`` tuples.

    ``columns`` is a list of ``(emotion, column)`` pairs. DictReader skips
    blank lines, reads a short row's missing cells as None and files a long
    row's extra cells under the key None. A row's line is the underlying
    reader's: DictReader's own ``line_num`` stays at the first blank line it
    skips before a row.
    """
    lo, hi = {"A": (0, 1), "B": (0, 3)}[track]

    def label(value, row_id, column):
        raw = (value or "").strip()
        if not re.fullmatch(r"[+-]?[0-9]+", raw):
            raise ValueError(f"row {row_id!r}: column {column!r} has non-integer label {raw!r}")
        number = int(raw)
        if not lo <= number <= hi:
            raise ValueError(
                f"row {row_id!r}: column {column!r} label {number} outside track {track} range [{lo}, {hi}]"
            )
        return number

    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            required = [id_column, text_column] + [column for _, column in columns]
            missing = [c for c in required if c not in header]
            if missing:
                raise RefDatasetError("SchemaError", f"{path}: missing column(s): {', '.join(missing)}")
            repeated = [c for c in dict.fromkeys(required) if header.count(c) > 1]
            if repeated:
                raise RefDatasetError("SchemaError", f"{path}: duplicate column(s): {', '.join(repeated)}")
            rows, seen = [], set()
            for row in reader:
                try:
                    row_id = (row[id_column] or "").strip()
                    if not row_id:
                        raise ValueError("empty id")
                    if row_id in seen:
                        raise ValueError(f"duplicate id {row_id!r}")
                    seen.add(row_id)
                    text = row[text_column] or ""
                    if not text.strip():
                        raise ValueError(f"row {row_id!r}: empty text")
                    labels = {e: label(row[column], row_id, column) for e, column in columns}
                except ValueError as exc:
                    raise RefDatasetError("ValidationError", f"{path}: line {reader.reader.line_num}: {exc}")
                rows.append((row_id, text, language, labels))
    except (OSError, UnicodeDecodeError) as exc:
        raise RefDatasetError("SchemaError", f"{path}: cannot read dataset: {exc}")
    except csv.Error as exc:
        raise RefDatasetError("SchemaError", f"{path}: line {reader.reader.line_num}: {exc}")
    if not rows:
        raise RefDatasetError("ValidationError", f"{path}: no rows")
    return rows
