"""Exact AUC computation and scoring reports."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .model import MadeParams, anomaly_score_batch


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean rank of their group."""
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    n = len(values)
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], n]
    group_mid = (starts + ends + 1) / 2.0  # ranks are 1-based
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(group_mid, ends - starts)
    return ranks


def auc(anomaly_scores, normal_scores) -> float:
    """Probability a random anomaly outscores a random normal, ties worth 0.5.

    Rank-based O((a+n) log(a+n)) evaluation; identical to the pairwise
    indicator double loop.
    """
    anomaly_scores = np.asarray(anomaly_scores, dtype=np.float64)
    normal_scores = np.asarray(normal_scores, dtype=np.float64)
    if anomaly_scores.size == 0 or normal_scores.size == 0:
        raise ValueError("both score lists must be non-empty")
    if not (np.isfinite(anomaly_scores).all() and np.isfinite(normal_scores).all()):
        raise ValueError("scores must be finite")
    n_anom, n_norm = anomaly_scores.size, normal_scores.size
    ranks = _midranks(np.concatenate([anomaly_scores, normal_scores]))
    rank_sum = ranks[:n_anom].sum()
    return float((rank_sum - n_anom * (n_anom + 1) / 2.0) / (n_anom * n_norm))


def roc_points(anomaly_scores, normal_scores) -> np.ndarray:
    """(threshold, fpr, tpr) rows with thresholds descending, for plotting.

    The first row is (inf, 0, 0); each distinct score is then one threshold t,
    with the shares of anomalies and normals scoring >= t.  One sort plus
    cumulative counts, O(n log n).
    """
    anomaly_scores = np.asarray(anomaly_scores, dtype=np.float64)
    normal_scores = np.asarray(normal_scores, dtype=np.float64)
    n_anom = anomaly_scores.size
    thresholds, group = np.unique(
        np.concatenate([anomaly_scores, normal_scores]), return_inverse=True
    )
    n_groups = thresholds.size
    # scores >= the i-th largest threshold: counts accumulated from the top group down
    tp = np.cumsum(np.bincount(group[:n_anom], minlength=n_groups)[::-1])
    fp = np.cumsum(np.bincount(group[n_anom:], minlength=n_groups)[::-1])
    rows = np.empty((n_groups + 1, 3))
    rows[0] = (np.inf, 0.0, 0.0)
    rows[1:, 0] = thresholds[::-1]
    rows[1:, 1] = fp / normal_scores.size
    rows[1:, 2] = tp / n_anom
    return rows


@dataclass
class ScoreReport:
    """Per-instance anomaly scores plus the AUC of anomalies vs normals."""

    indices: np.ndarray  # original dataset row indices
    labels: np.ndarray
    scores: np.ndarray
    auc: float | None  # None when the rows hold only one class
    n_anomalies: int
    n_normals: int

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
            for idx, label, score in zip(self.indices, self.labels, self.scores):
                fh.write(f"{int(idx)},{int(label)},{float(score)!r}\n")


def report_from_scores(indices, labels, scores) -> ScoreReport:
    """Report over labeled scores; its auc is None when only one class is present."""
    indices = np.asarray(indices, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
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


def evaluate(params: MadeParams, ds, normal_indices, anomaly_indices) -> ScoreReport:
    """Score the given test rows with the model and compute their AUC."""
    normal_indices = np.asarray(normal_indices, dtype=np.int64)
    anomaly_indices = np.asarray(anomaly_indices, dtype=np.int64)
    if normal_indices.size == 0 or anomaly_indices.size == 0:
        raise ValueError("evaluation needs at least one normal and one anomaly")
    indices = np.concatenate([normal_indices, anomaly_indices])
    labels = ds.labels[indices]
    scores = anomaly_score_batch(params, ds.attributes[indices])
    return report_from_scores(indices, labels, scores)


def write_json_summary(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
