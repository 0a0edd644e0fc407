"""Training objective: normal-data log-likelihood plus a pairwise ranking regularizer.

The regularizer averages sigmoid(log p(normal) - log p(anomaly)) over all
(anomaly, normal) pairs, a differentiable surrogate for the probability that
a random anomaly scores above a random normal.  The objective is maximized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (
    MadeParams,
    as_compute_array,
    backprop_log_density,
    forward_ensemble,
    sigmoid,
)


@dataclass
class ObjectiveConfig:
    lam: float = 0.0  # weight of the ranking regularizer, finite and >= 0

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"regularizer weight must be non-negative, got {self.lam}")
        if not np.isfinite(self.lam):
            raise ValueError(f"regularizer weight must be finite, got {self.lam}")


@dataclass
class LabeledBatch:
    """Rows of one objective evaluation, computed in the normals' dtype (float32 or float64)."""

    normals: np.ndarray  # (n_normals, D), non-empty
    anomalies: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

    def __post_init__(self):
        self.normals = np.atleast_2d(as_compute_array(self.normals))
        self.anomalies = np.atleast_2d(np.asarray(self.anomalies, dtype=self.normals.dtype))
        if self.normals.shape[0] == 0:
            raise ValueError("batch needs at least one normal instance")
        if self.anomalies.size and self.anomalies.shape[1] != self.normals.shape[1]:
            raise ValueError("normals and anomalies must share the attribute dimension")

    @property
    def n_anomalies(self) -> int:
        return self.anomalies.shape[0] if self.anomalies.size else 0


def _pair_gaps(ld_normals: np.ndarray, ld_anomalies: np.ndarray) -> np.ndarray:
    """log p(normal) - log p(anomaly) for every pair, shape (n_anomalies, n_normals)."""
    return ld_normals[None, :] - ld_anomalies[:, None]


def pairwise_regularizer(
    logdens_normals: np.ndarray, logdens_anomalies: np.ndarray, transfer=sigmoid
) -> float:
    """Mean transfer(log-density gap) over all (anomaly, normal) pairs.

    Depends only on differences of log-densities, so it is invariant to
    shifting every value by a constant.  `transfer` defaults to the sigmoid;
    substituting the step indicator recovers the exact pairwise ranking rate.
    """
    ld_n = np.asarray(logdens_normals, dtype=np.float64)
    ld_a = np.asarray(logdens_anomalies, dtype=np.float64)
    if ld_n.size == 0 or ld_a.size == 0:
        raise ValueError("need at least one normal and one anomaly log-density")
    return float(np.mean(transfer(_pair_gaps(ld_n, ld_a))))


def _objective_with_optional_gradient(params, batch, cfg, want_gradient):
    n_norm, n_anom = batch.normals.shape[0], batch.n_anomalies
    # the anomaly rows are forwarded only when the ranking term reads them
    supervised = cfg.lam > 0 and n_anom > 0
    rows = np.vstack([batch.normals, batch.anomalies]) if supervised else batch.normals
    cache = forward_ensemble(params, rows, want_gradient)
    ld_normals = cache.log_density[:n_norm]
    value = float(ld_normals.mean())
    coeff = np.full(n_norm, 1.0 / n_norm)
    if supervised:
        sig = sigmoid(_pair_gaps(ld_normals, cache.log_density[n_norm:]))
        value += cfg.lam * float(sig.mean())
        pair_weight = cfg.lam / (n_anom * n_norm)
        slope = sig * (1.0 - sig)
        coeff = np.concatenate(
            [coeff + pair_weight * slope.sum(axis=0), -pair_weight * slope.sum(axis=1)]
        )
    if not want_gradient:
        return value, None
    return value, backprop_log_density(params, cache, coeff)


def objective_value(params: MadeParams, batch: LabeledBatch, cfg: ObjectiveConfig) -> float:
    """Mean log-density of the normals + lam * regularizer; reduces to the
    likelihood alone when lam is zero or the batch holds no anomalies."""
    value, _ = _objective_with_optional_gradient(params, batch, cfg, want_gradient=False)
    return value


def objective_and_gradient(
    params: MadeParams, batch: LabeledBatch, cfg: ObjectiveConfig
) -> tuple[float, dict[str, np.ndarray]]:
    """One fused forward/backward pass returning (value, gradient)."""
    return _objective_with_optional_gradient(params, batch, cfg, want_gradient=True)
