"""Synthetic labeled datasets for qualitative experiments.

Scenarios lay out a one-dimensional geometry on the first attribute and add
an independent nuisance attribute, since the density model needs at least
two attributes to have any conditioning structure.

- inside_cluster: anomalies sit in the high-density center of the normal
  cluster, where a pure likelihood model cannot flag them.
- outside_cluster: anomalies sit in empty regions far from the cluster, where
  any density model flags them.
- both: a mix of the two placements.
"""

from __future__ import annotations

import numpy as np

from .data import CONTINUOUS, Dataset

SCENARIOS = ("inside_cluster", "outside_cluster", "both")


def make_scenario(
    name: str,
    seed: int,
    n_normal: int = 240,
    n_anomaly: int = 16,
) -> Dataset:
    """Generate an unnormalized two-attribute dataset for the named scenario."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIOS}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    normals = rng.normal(loc=0.0, scale=1.0, size=(n_normal, 2))

    def inside(count):
        # tight blob at the cluster center
        return rng.normal(loc=0.0, scale=0.08, size=(count, 2))

    def outside(count):
        # empty regions well beyond the normal support; alternate sides so
        # both appear even in small labeled subsets
        sides = np.where(np.arange(count) % 2 == 0, 1.0, -1.0)
        axis = sides * rng.uniform(3.5, 4.5, size=count)
        nuisance = rng.normal(loc=0.0, scale=1.0, size=count)
        return np.column_stack([axis, nuisance])

    if name == "inside_cluster":
        anomalies = inside(n_anomaly)
    elif name == "outside_cluster":
        anomalies = outside(n_anomaly)
    else:
        half = n_anomaly // 2
        anomalies = np.vstack([inside(half), outside(n_anomaly - half)])

    attributes = np.vstack([normals, anomalies])
    labels = np.concatenate([np.zeros(n_normal, dtype=np.int64), np.ones(len(anomalies), dtype=np.int64)])
    return Dataset(
        attributes=attributes,
        labels=labels,
        attribute_names=("x", "nuisance"),
        attribute_kinds=(CONTINUOUS, CONTINUOUS),
    )


def make_tabular_benchmark(
    seed: int,
    n_normal: int = 500,
    n_anomaly: int = 125,
    n_attributes: int = 8,
) -> Dataset:
    """A benchmark-scale tabular dataset with partially overlapping anomalies.

    Normals come from two correlated Gaussian clusters.  Anomalies mix two
    kinds: diffuse ones with inflated decorrelated noise (detectable from
    density alone) and a systematic fault mode, a tight streak displaced from
    a cluster along a fixed direction, which sits at moderate density so the
    anomaly labels carry real information.
    """
    rng = np.random.default_rng(seed)
    d = n_attributes
    centers = rng.uniform(-1.0, 1.0, size=(2, d))
    mixing = rng.normal(size=(2, d, d)) * 0.12
    assign = rng.integers(0, 2, size=n_normal)
    base = rng.normal(size=(n_normal, d))
    normals = centers[assign] + np.einsum("nd,nde->ne", base, mixing[assign])

    n_fault = n_anomaly // 2
    n_diffuse = n_anomaly - n_fault
    diffuse_assign = rng.integers(0, 2, size=n_diffuse)
    diffuse = centers[diffuse_assign] + rng.normal(scale=0.5, size=(n_diffuse, d))
    fault_dir = rng.normal(size=d)
    fault_dir /= np.linalg.norm(fault_dir)
    fault = (
        centers[0]
        + 0.55 * fault_dir
        + rng.normal(scale=0.06, size=(n_fault, d))
    )
    anomalies = np.vstack([diffuse, fault])

    attributes = np.vstack([normals, anomalies])
    labels = np.concatenate(
        [np.zeros(n_normal, dtype=np.int64), np.ones(n_anomaly, dtype=np.int64)]
    )
    order = rng.permutation(len(labels))
    names = tuple(f"a{j}" for j in range(d))
    return Dataset(attributes[order], labels[order], names, (CONTINUOUS,) * d)


def profile_grid(n_points: int = 201) -> np.ndarray:
    """Score-profile rows over the normalized first attribute, nuisance at 0.5."""
    xs = np.linspace(0.0, 1.0, n_points)
    grid = np.column_stack([xs, np.full(n_points, 0.5)])
    return grid
