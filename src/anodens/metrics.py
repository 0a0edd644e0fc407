"""Exact AUC computation and scoring reports."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


def _counts_at_or_above(anomaly_scores: np.ndarray, normal_scores: np.ndarray):
    """(distinct scores descending, int64 counts of anomalies and of normals scoring >= each).

    One sort plus cumulative counts, O(n log n).  Both score lists must be
    non-empty and finite.
    """
    if anomaly_scores.size == 0 or normal_scores.size == 0:
        raise ValueError("both score lists must be non-empty")
    if not (np.isfinite(anomaly_scores).all() and np.isfinite(normal_scores).all()):
        raise ValueError("scores must be finite")
    n_anom = anomaly_scores.size
    thresholds, group = np.unique(
        np.concatenate([anomaly_scores, normal_scores]), return_inverse=True
    )
    n_groups = thresholds.size
    # counts accumulated from the top group down
    tp = np.cumsum(np.bincount(group[:n_anom], minlength=n_groups)[::-1])
    fp = np.cumsum(np.bincount(group[n_anom:], minlength=n_groups)[::-1])
    return thresholds[::-1], tp, fp


def auc(anomaly_scores, normal_scores) -> float:
    """Probability a random anomaly outscores a random normal, ties worth 0.5.

    The trapezoid area under the ROC steps, summed in integer pair counts and
    divided once, so it equals the pairwise indicator double loop exactly.
    """
    anomaly_scores = np.asarray(anomaly_scores, dtype=np.float64)
    normal_scores = np.asarray(normal_scores, dtype=np.float64)
    _, tp, fp = _counts_at_or_above(anomaly_scores, normal_scores)
    # normals entering at a threshold count 2 per anomaly above it, 1 per anomaly tied at it
    twice_pairs = np.dot(np.diff(fp, prepend=0), tp + np.r_[0, tp[:-1]])
    return float(twice_pairs / (2 * anomaly_scores.size * normal_scores.size))


def roc_points(anomaly_scores, normal_scores) -> np.ndarray:
    """(threshold, fpr, tpr) rows with thresholds descending, for plotting.

    The first row is (inf, 0, 0); each distinct score is then one threshold t,
    with the shares of anomalies and normals scoring >= t.  Like `auc`, it
    rejects an empty or non-finite score list.
    """
    anomaly_scores = np.asarray(anomaly_scores, dtype=np.float64)
    normal_scores = np.asarray(normal_scores, dtype=np.float64)
    thresholds, tp, fp = _counts_at_or_above(anomaly_scores, normal_scores)
    rows = np.empty((thresholds.size + 1, 3))
    rows[0] = (np.inf, 0.0, 0.0)
    rows[1:, 0] = thresholds
    rows[1:, 1] = fp / normal_scores.size
    rows[1:, 2] = tp / anomaly_scores.size
    return rows


@dataclass
class ScoreReport:
    """Per-instance anomaly scores plus the AUC of anomalies vs normals."""

    indices: np.ndarray  # original dataset row indices
    labels: np.ndarray | None  # None for unlabeled rows
    scores: np.ndarray
    auc: float | None  # None when the rows hold only one class or no labels
    n_anomalies: int | None  # None for unlabeled rows, as is n_normals
    n_normals: int | None

    def to_json_dict(self, **extra) -> dict:
        out = {
            "auc": self.auc,
            "n_anomalies": self.n_anomalies,
            "n_normals": self.n_normals,
        }
        out.update(extra)
        return out

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,label,score\n")
            labels = [""] * len(self.scores) if self.labels is None else map(int, self.labels)
            for idx, label, score in zip(self.indices, labels, self.scores):
                fh.write(f"{int(idx)},{label},{float(score)!r}\n")


def report_from_scores(indices, labels, scores) -> ScoreReport:
    """Report over scores; auc is None when one class or, with labels None, no labels are present."""
    indices = np.asarray(indices, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if labels is None:
        return ScoreReport(indices, None, scores, auc=None, n_anomalies=None, n_normals=None)
    labels = np.asarray(labels, dtype=np.int64)
    anom = scores[labels == 1]
    norm = scores[labels == 0]
    return ScoreReport(
        indices=indices,
        labels=labels,
        scores=scores,
        auc=auc(anom, norm) if anom.size and norm.size else None,
        n_anomalies=int(anom.size),
        n_normals=int(norm.size),
    )


def write_json_summary(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
