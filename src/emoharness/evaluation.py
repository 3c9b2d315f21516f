"""Aggregation of per-emotion predictions and the shared task metrics.

Metrics align gold and predictions by snippet id, never by list position,
so permuting either input cannot change a score.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import TRACK_A, TRACK_B, TRACKS, EmotionSet, check_labels
from .errors import AlignmentError, CompletenessError, ValidationError
from .inference import PredictionRecord

MACRO_F1 = "macro_f1"
MEAN_PEARSON_R = "mean_pearson_r"


@dataclass(slots=True)
class LabelVector:
    """Per-snippet emotion labels, one value per emotion in the active set."""

    snippet_id: str
    values: dict[str, int]
    track: str

    def __post_init__(self):
        if self.track not in TRACKS:
            raise ValidationError(f"unknown track {self.track!r}")
        if not self.values:
            raise ValidationError(f"snippet {self.snippet_id!r}: empty label vector")
        check_labels(self.snippet_id, self.values, self.track)


@dataclass
class MetricsReport:
    metric_kind: str
    per_emotion: dict[str, float]
    average: float
    counts: dict

    def as_dict(self) -> dict:
        return asdict(self)

    def format_table(self) -> str:
        width = max(len(e) for e in list(self.per_emotion) + ["average"]) + 2
        lines = [f"{'emotion':<{width}}{self.metric_kind}"]
        for emotion, value in self.per_emotion.items():
            lines.append(f"{emotion:<{width}}{value:.4f}")
        lines.append(f"{'average':<{width}}{self.average:.4f}")
        degenerate = self.counts.get("degenerate_emotions") or []
        if degenerate:
            lines.append("zero-variance emotions (r forced to 0): " + ", ".join(degenerate))
        failures = self.counts.get("parse_failures", 0)
        if failures:
            lines.append(f"parse failures scored as 0: {failures}")
        return "\n".join(lines)


def count_parse_failures(records: list[PredictionRecord]) -> int:
    return sum(1 for r in records if r.parsed is None)


def aggregate(records: list[PredictionRecord], emotion_set: EmotionSet) -> list[LabelVector]:
    """Regroup per-instance records into one vector per snippet.

    Requires exactly one record per (snippet, emotion); parse failures are
    resolved to 0 here. Vector order follows first appearance in records.
    """
    if not records:
        return []
    tracks = {r.track for r in records}
    if len(tracks) != 1:
        raise ValidationError(f"records mix tracks {sorted(tracks)}")
    track = records[0].track
    emotions = emotion_set.emotions

    by_snippet: dict[str, dict[str, PredictionRecord]] = {}
    for record in records:
        if record.emotion not in emotions:
            raise ValidationError(
                f"snippet {record.snippet_id!r}: emotion {record.emotion!r} "
                f"is not in the active set {list(emotions)}"
            )
        slot = by_snippet.setdefault(record.snippet_id, {})
        if record.emotion in slot:
            raise ValidationError(f"duplicate record for ({record.snippet_id!r}, {record.emotion})")
        slot[record.emotion] = record

    gaps = [
        f"{snippet_id}:{emotion}"
        for snippet_id, slot in by_snippet.items()
        for emotion in emotions
        if emotion not in slot
    ]
    if gaps:
        shown = ", ".join(gaps[:10])
        more = f" (+{len(gaps) - 10} more)" if len(gaps) > 10 else ""
        raise CompletenessError(f"missing (snippet, emotion) predictions: {shown}{more}")

    return [
        LabelVector(snippet_id, {e: slot[e].label_or_zero for e in emotions}, track)
        for snippet_id, slot in by_snippet.items()
    ]


def marginalise(vector: LabelVector) -> LabelVector:
    """Collapse an intensity vector to presence: any intensity >= 1 becomes 1."""
    if vector.track != TRACK_B:
        raise ValidationError(f"marginalise expects an intensity vector, got track {vector.track}")
    return LabelVector(
        vector.snippet_id,
        {emotion: 1 if value >= 1 else 0 for emotion, value in vector.values.items()},
        TRACK_A,
    )


def _aligned_matrices(
    gold: list[LabelVector], pred: list[LabelVector], track: str
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    if not gold:
        raise ValueError("gold vectors are empty")
    for name, vectors in (("gold", gold), ("pred", pred)):
        off_track = [v for v in vectors if v.track != track]
        if off_track:
            raise ValidationError(
                f"{name} vector {off_track[0].snippet_id!r} is track "
                f"{off_track[0].track}, expected {track}"
            )
        ids = [v.snippet_id for v in vectors]
        if len(set(ids)) != len(ids):
            raise AlignmentError(f"duplicate snippet ids in {name}")
    gold_ids = {v.snippet_id for v in gold}
    pred_ids = {v.snippet_id for v in pred}
    if gold_ids != pred_ids:
        missing = sorted(gold_ids - pred_ids)[:5]
        extra = sorted(pred_ids - gold_ids)[:5]
        raise AlignmentError(f"snippet ids differ; missing from pred: {missing}, unexpected: {extra}")
    emotions = tuple(gold[0].values)
    for v in list(gold) + list(pred):
        if set(v.values) != set(emotions):
            raise AlignmentError(
                f"snippet {v.snippet_id!r} labels emotions {sorted(v.values)}, "
                f"expected {sorted(emotions)}"
            )
    # Canonical id order makes the computation invariant to input permutation.
    gold_sorted = sorted(gold, key=lambda v: v.snippet_id)
    pred_sorted = sorted(pred, key=lambda v: v.snippet_id)
    g = np.array([[v.values[e] for e in emotions] for v in gold_sorted], dtype=np.float64)
    p = np.array([[v.values[e] for e in emotions] for v in pred_sorted], dtype=np.float64)
    return emotions, g, p


def _report(metric_kind: str, gold, pred, track: str, score_column) -> MetricsReport:
    """Score each emotion's gold and predicted columns with ``score_column``;
    one it scores None is reported as 0 and listed as degenerate."""
    emotions, g, p = _aligned_matrices(gold, pred, track)
    per_emotion, degenerate = {}, []
    for j, emotion in enumerate(emotions):
        value = score_column(g[:, j], p[:, j])
        if value is None:
            value = 0.0
            degenerate.append(emotion)
        per_emotion[emotion] = value
    average = sum(per_emotion.values()) / len(per_emotion)
    counts = {"instances": g.size, "degenerate_emotions": degenerate}
    return MetricsReport(metric_kind, per_emotion, average, counts)


def _f1(x: np.ndarray, y: np.ndarray) -> float:
    tp = int(np.sum((x == 1) & (y == 1)))
    fp = int(np.sum((x == 0) & (y == 1)))
    fn = int(np.sum((x == 1) & (y == 0)))
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def _pearson_r(x: np.ndarray, y: np.ndarray) -> float | None:
    if np.all(x == x[0]) or np.all(y == y[0]):
        return None
    xc = x - x.mean()
    yc = y - y.mean()
    r = float(np.dot(xc, yc)) / math.sqrt(float(np.dot(xc, xc)) * float(np.dot(yc, yc)))
    return min(1.0, max(-1.0, r))


def macro_f1(gold: list[LabelVector], pred: list[LabelVector]) -> MetricsReport:
    """Unweighted mean of per-emotion binary F1 (positive class = 1).

    F1 with an empty denominator (no positives anywhere) is defined as 0.
    """
    return _report(MACRO_F1, gold, pred, TRACK_A, _f1)


def mean_pearson_r(gold: list[LabelVector], pred: list[LabelVector]) -> MetricsReport:
    """Unweighted mean of per-emotion Pearson r over intensity vectors.

    An emotion where either side is constant gets r = 0 and is flagged in
    the report's degenerate list.
    """
    if len(gold) < 2:
        raise ValueError(f"need at least 2 snippets to correlate, got {len(gold)}")
    return _report(MEAN_PEARSON_R, gold, pred, TRACK_B, _pearson_r)
