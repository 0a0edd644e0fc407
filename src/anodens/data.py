"""Labeled tabular data: CSV reading and writing, min-max normalization, dedup, seeded splits."""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

CONTINUOUS = "continuous"
BINARY = "binary"

_LABEL_STRINGS = {"normal": 0, "anomaly": 1}


@dataclass
class Dataset:
    """An attribute matrix with binary anomaly labels (0 = normal, 1 = anomaly)."""

    attributes: np.ndarray  # (n_instances, n_attributes) float64
    labels: np.ndarray  # (n_instances,) int64, values in {0, 1}
    attribute_names: tuple[str, ...]
    attribute_kinds: tuple[str, ...]  # CONTINUOUS or BINARY per column

    def __post_init__(self):
        self.attributes = np.asarray(self.attributes, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.attributes.ndim != 2:
            raise ValueError("attributes must be a 2-D matrix")
        n, d = self.attributes.shape
        if n < 1 or d < 1:
            raise ValueError("dataset needs at least one row and one attribute column")
        if self.labels.shape != (n,):
            raise ValueError("labels must be one value per row")
        if not np.isin(self.labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        if len(self.attribute_names) != d or len(self.attribute_kinds) != d:
            raise ValueError("attribute metadata must have one entry per column")
        for kind in self.attribute_kinds:
            if kind not in (CONTINUOUS, BINARY):
                raise ValueError(f"unknown attribute kind {kind!r}")

    @property
    def n_instances(self) -> int:
        return self.attributes.shape[0]

    @property
    def n_attributes(self) -> int:
        return self.attributes.shape[1]

    def normal_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels == 0)

    def anomaly_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels == 1)


@dataclass
class NormStats:
    """Per-attribute min/max used to map columns onto [0, 1].

    Binary columns are stored with (0, 1) so applying the stats leaves
    valid binary values untouched.
    """

    attribute_names: tuple[str, ...]
    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        self.mins = np.asarray(self.mins, dtype=np.float64)
        self.maxs = np.asarray(self.maxs, dtype=np.float64)
        if np.any(self.mins > self.maxs):
            raise ValueError("per-attribute min must not exceed max")

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Map rows linearly by the stored ranges: [min, max] onto [0, 1].

        A value outside its column's range maps outside [0, 1], so the
        further out it lies, the further out it scores.
        """
        x, lo = np.asarray(x, dtype=np.float64), self.mins
        with np.errstate(over="ignore"):
            span = self.maxs - lo
        overflows = np.isinf(span)
        if overflows.any():
            # a finite column whose range overflows float64 is mapped at half
            # scale: halving is exact there, and x/2 - min/2 cannot overflow
            scale = np.where(overflows, 0.5, 1.0)
            x, lo = x * scale, lo * scale
            span = self.maxs * scale - lo
        safe = np.where(span > 0, span, 1.0)
        out = (x - lo) / safe
        return np.where(span > 0, out, 0.0)  # constant columns collapse to 0


@dataclass
class SplitBundle:
    """Disjoint train/val/test index sets for normals and anomalies."""

    train_normal: np.ndarray
    val_normal: np.ndarray
    test_normal: np.ndarray
    train_anom: np.ndarray
    val_anom: np.ndarray
    test_anom: np.ndarray


def _resolve_label_column(header: list[str], label_column) -> int:
    if isinstance(label_column, int):
        idx = label_column if label_column >= 0 else len(header) + label_column
        if not 0 <= idx < len(header):
            raise ValueError(f"label column index {label_column} out of range")
        return idx
    name = str(label_column)
    if name in header:
        return header.index(name)
    try:
        return _resolve_label_column(header, int(name))
    except ValueError:
        raise ValueError(f"label column {label_column!r} not found in header") from None


def _parse_label(token: str, line_no: int) -> int:
    key = token.strip().lower()
    if key in _LABEL_STRINGS:
        return _LABEL_STRINGS[key]
    try:
        value = float(key)
    except ValueError:
        raise ValueError(f"unparseable label {token!r} on line {line_no}") from None
    if value not in (0.0, 1.0):
        raise ValueError(f"label value {token!r} on line {line_no} is not 0 or 1")
    return int(value)


class CsvTable(NamedTuple):
    """The attribute columns of a CSV and, when it has one, its label column."""

    attributes: np.ndarray  # (n_rows, n_attributes) float64
    labels: np.ndarray | None  # (n_rows,) int64 in {0, 1}; None without a label column
    attribute_names: tuple[str, ...]
    # the file line each row starts on, counting the header's, blank and quoted-newline lines
    line_numbers: tuple[int, ...]


def read_csv(path: str, label_column) -> CsvTable:
    """Read a headered CSV; `label_column` None reads every column as an attribute.

    The label column (selected by name or index) must hold 0/1 values or the
    strings "normal"/"anomaly".  Blank lines are skipped.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("zero data rows (empty file)") from None
        label_idx = None if label_column is None else _resolve_label_column(header, label_column)
        rows, labels, line_numbers = [], [], []
        # a quoted field may span lines, so a row starts on the line after the last one read
        next_line = reader.line_num + 1
        for row in reader:
            line_no, next_line = next_line, reader.line_num + 1
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"ragged row on line {line_no}: expected {len(header)} fields, got {len(row)}"
                )
            if label_idx is not None:
                labels.append(_parse_label(row[label_idx], line_no))
            try:
                values = [float(v) for i, v in enumerate(row) if i != label_idx]
            except ValueError:
                raise ValueError(f"non-numeric attribute value on line {line_no}") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"non-finite attribute value on line {line_no}")
            rows.append(values)
            line_numbers.append(line_no)
    if not rows:
        raise ValueError("zero data rows")
    names = tuple(n for i, n in enumerate(header) if i != label_idx)
    if not names:
        raise ValueError("no attribute columns besides the label")
    return CsvTable(
        np.array(rows, dtype=np.float64),
        None if label_idx is None else np.array(labels, dtype=np.int64),
        names,
        tuple(line_numbers),
    )


def load_csv(path: str, label_column) -> Dataset:
    """Load a headered CSV with a label column (see `read_csv`) into a Dataset.

    Columns whose observed values are all 0 or 1 are flagged binary,
    everything else continuous.
    """
    attributes, labels, names, _ = read_csv(path, label_column)
    kinds = tuple(
        BINARY if np.isin(attributes[:, j], (0.0, 1.0)).all() else CONTINUOUS
        for j in range(attributes.shape[1])
    )
    return Dataset(attributes, labels, names, kinds)


def write_rows(path: str, header, rows, delimiter: str = ",") -> None:
    """Write a header and rows as a UTF-8 delimited file with `\\n` line ends.  A float
    is written as its repr, so pass Python values (`tolist`), not numpy scalars."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_csv(path: str, ds: Dataset) -> None:
    """Write the attribute columns, then a 0/1 `label` column, as a headered CSV
    that `load_csv(path, "label")` reads back bit for bit."""
    rows = ([*row, label] for row, label in zip(ds.attributes.tolist(), ds.labels.tolist()))
    write_rows(path, (*ds.attribute_names, "label"), rows)


def normalize_minmax(ds: Dataset) -> tuple[Dataset, NormStats]:
    """Linearly map every continuous column onto [0, 1]; binary columns pass through.

    Stats are computed over the full dataset (before any split), so reusing
    them on training subsets leaks only the column ranges.  Constant columns
    map to all zeros.
    """
    mins = np.zeros(ds.n_attributes)
    maxs = np.ones(ds.n_attributes)
    for j, kind in enumerate(ds.attribute_kinds):
        if kind == CONTINUOUS:
            mins[j] = ds.attributes[:, j].min()
            maxs[j] = ds.attributes[:, j].max()
    stats = NormStats(ds.attribute_names, mins, maxs)
    normalized = stats.apply(ds.attributes)
    out = Dataset(normalized, ds.labels.copy(), ds.attribute_names, ds.attribute_kinds)
    return out, stats


def dedup(ds: Dataset) -> Dataset:
    """Drop exact duplicate rows, keyed on (attribute vector, label), keeping the first."""
    keyed = np.column_stack([ds.attributes, ds.labels.astype(np.float64)])
    _, first = np.unique(keyed, axis=0, return_index=True)
    keep = np.sort(first)
    return Dataset(
        ds.attributes[keep].copy(),
        ds.labels[keep].copy(),
        ds.attribute_names,
        ds.attribute_kinds,
    )


def split(ds: Dataset, seed: int, n_train_anom: int = 3, n_val_anom: int = 3) -> SplitBundle:
    """Partition instances into train/val/test index sets.

    Normals are shuffled and cut 80%/10%/rest (floor rounding, remainder to
    test); anomalies are shuffled and cut n_train_anom/n_val_anom/rest.
    Deterministic for a given seed (PCG64 via numpy's default_rng).
    """
    for name, count in (("n_train_anom", n_train_anom), ("n_val_anom", n_val_anom)):
        if count < 0:
            raise ValueError(f"{name} must be non-negative, got {count}")
    normals = ds.normal_indices()
    anomalies = ds.anomaly_indices()
    if len(anomalies) < n_train_anom + n_val_anom + 1:
        raise ValueError(
            f"insufficient anomalies: need at least {n_train_anom + n_val_anom + 1}, "
            f"have {len(anomalies)}"
        )
    if len(normals) < 10:
        raise ValueError(f"insufficient normals: need at least 10, have {len(normals)}")
    rng = np.random.default_rng(seed)
    normals = rng.permutation(normals)
    anomalies = rng.permutation(anomalies)
    n_train = int(0.8 * len(normals))
    n_val = int(0.1 * len(normals))
    return SplitBundle(
        train_normal=normals[:n_train],
        val_normal=normals[n_train : n_train + n_val],
        test_normal=normals[n_train + n_val :],
        train_anom=anomalies[:n_train_anom],
        val_anom=anomalies[n_train_anom : n_train_anom + n_val_anom],
        test_anom=anomalies[n_train_anom + n_val_anom :],
    )
