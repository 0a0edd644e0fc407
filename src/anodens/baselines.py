"""Two lightweight reference scorers: independent Gaussian NLL and kNN distance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LOG_2PI, ROW_TILE, tile_slices

VARIANCE_FLOOR = 1e-6


@dataclass
class GaussianBaseline:
    means: np.ndarray  # (D,)
    variances: np.ndarray  # (D,), floored


@dataclass
class KnnBaseline:
    train: np.ndarray  # (N, D) stored normals
    k: int


def fit_gaussian(train_normals: np.ndarray) -> GaussianBaseline:
    x = np.atleast_2d(np.asarray(train_normals, dtype=np.float64))
    if x.shape[0] == 0:
        raise ValueError("cannot fit on an empty training set")
    return GaussianBaseline(
        means=x.mean(axis=0),
        variances=np.maximum(x.var(axis=0), VARIANCE_FLOOR),
    )


def gaussian_score_batch(model: GaussianBaseline, x: np.ndarray) -> np.ndarray:
    """Negative log-density under independent per-attribute Gaussians."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    z2 = (x - model.means) ** 2 / model.variances
    log_dens = -0.5 * (LOG_2PI + np.log(model.variances) + z2)
    return -log_dens.sum(axis=1)


def fit_knn(train_normals: np.ndarray, k: int = 5) -> KnnBaseline:
    x = np.atleast_2d(np.asarray(train_normals, dtype=np.float64))
    if x.shape[0] == 0:
        raise ValueError("cannot fit on an empty training set")
    if not 1 <= k <= x.shape[0]:
        raise ValueError(f"k must lie in [1, {x.shape[0]}], got {k}")
    return KnnBaseline(train=x.copy(), k=k)


def knn_score_batch(model: KnnBaseline, x: np.ndarray) -> np.ndarray:
    """Euclidean distance to the k-th nearest stored training normal.

    Rows run in tiles of ROW_TILE, so memory grows with the stored set, not
    with the batch; each distance is a sum of exact differences, so a stored
    point scores exactly zero.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    kth = np.empty(x.shape[0])
    for rows in tile_slices(x.shape[0], ROW_TILE):
        diffs = x[rows, None, :] - model.train[None, :, :]
        dists = np.sqrt((diffs * diffs).sum(axis=2))
        kth[rows] = np.partition(dists, model.k - 1, axis=1)[:, model.k - 1]
    return kth

