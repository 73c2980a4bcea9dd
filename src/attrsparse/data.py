"""Dataset ingestion, one-hot encoding, the seeded train/test split, and
the class-conditional sampler with known per-feature class association that
both synthetic datasets and the theory checks draw from.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from ._util import chunk_bounds, fmt_float

__all__ = [
    "FeatureGroup",
    "Dataset",
    "SyntheticConditionalSampler",
    "load_csv",
    "generate_synthetic",
    "blob_sampler",
    "save_dataset",
    "load_dataset",
]

TRAIN_FRACTION = 0.7
_SIDECAR_VERSION = 1
_ROWS = 1 << 14


def _train_indices(n: int, split_seed: int) -> np.ndarray:
    """Sorted training rows of the seeded 70/30 split of n examples."""
    perm = np.random.default_rng(split_seed).permutation(n)
    return np.sort(perm[: int(round(TRAIN_FRACTION * n))])


@dataclass(frozen=True)
class FeatureGroup:
    """One original column's footprint in the encoded matrix.

    Categorical columns own the half-open span [start, stop) of one-hot
    positions (one per category, in first-seen training order); numeric
    columns own a single position.
    """

    name: str
    kind: str  # "categorical" | "numeric"
    start: int
    stop: int
    categories: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("categorical", "numeric"):
            raise ValueError(f"unknown column kind {self.kind!r}")
        if self.kind == "numeric" and self.stop - self.start != 1:
            raise ValueError("numeric column must span exactly one position")
        if self.kind == "categorical":
            if self.categories is None or len(self.categories) != self.stop - self.start:
                raise ValueError(f"column {self.name!r}: category list does not match span")


@dataclass
class Dataset:
    """Encoded feature matrix with labels in {-1,+1} (or class indices), the
    encoding metadata, and a seeded 70/30 train/test split."""

    features: np.ndarray
    labels: np.ndarray
    feature_names: list
    encoding_map: tuple
    split_seed: int = 0
    label_map: dict | None = None
    translated: bool = False

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        n, d = self.features.shape if self.features.ndim == 2 else (0, 0)
        if self.features.ndim != 2 or n < 1 or d < 1:
            raise ValueError("features must be a non-empty 2-d matrix")
        if self.labels.shape != (n,):
            raise ValueError(f"labels shape {self.labels.shape} does not match {n} examples")
        if len(self.feature_names) != d:
            raise ValueError("feature_names length does not match feature count")
        bad = np.argwhere(~np.isfinite(self.features))
        if bad.size:
            i, j = bad[0]
            raise ValueError(f"example {i}, feature {self.feature_names[j]!r}: "
                             f"non-finite value {float(self.features[i, j])!r}")
        self._validate_labels()
        self._validate_groups()
        self.train_indices = _train_indices(n, self.split_seed)
        self.test_indices = np.delete(np.arange(n), self.train_indices)

    def _validate_labels(self):
        uniq = np.unique(self.labels)
        if set(uniq.tolist()) <= {-1.0, 1.0}:
            self.binary = True
            return
        if np.all(uniq == np.round(uniq)) and uniq.min() >= 0:
            self.binary = False
            return
        raise ValueError(f"labels must be -1/+1 or class indices, got values {uniq[:8]}")

    def _validate_groups(self):
        covered = np.zeros(self.dim, dtype=bool)
        for g in self.encoding_map:
            if g.start < 0 or g.stop > self.dim or g.start >= g.stop:
                raise ValueError(f"column {g.name!r}: span [{g.start},{g.stop}) out of bounds")
            if covered[g.start:g.stop].any():
                raise ValueError(f"column {g.name!r}: span overlaps another column")
            covered[g.start:g.stop] = True
        if not covered.all():
            raise ValueError("encoding map does not cover every feature position")
        if not self.translated:
            for g in self.encoding_map:
                if g.kind != "categorical":
                    continue
                block = self.features[:, g.start:g.stop]
                ok = np.all(np.isin(block, (0.0, 1.0))) and np.all(block.sum(axis=1) == 1.0)
                if not ok:
                    raise ValueError(f"column {g.name!r}: one-hot block must have exactly one 1 per row")

    @property
    def n_examples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def split(self, which: str) -> np.ndarray:
        if which == "train":
            return self.train_indices
        if which == "test":
            return self.test_indices
        raise ValueError(f"unknown split {which!r}; use 'train' or 'test'")


@dataclass(frozen=True)
class SyntheticConditionalSampler:
    """Features conditionally independent given the label: x_i = a_i*y + noise.

    noise_kind "gaussian" draws sd * N(0,1); "uniform" draws sd * U(-1,1)
    (bounded support, used for losses with a kink that must stay clear of it).
    """

    strengths: tuple
    noise_sd: float = 1.0
    class_balance: float = 0.5
    noise_kind: str = "gaussian"

    def __post_init__(self):
        if self.noise_kind not in ("gaussian", "uniform"):
            raise ValueError(f"unknown noise kind {self.noise_kind!r}")
        if not 0.0 < self.class_balance < 1.0:
            raise ValueError("class_balance must be in (0, 1)")
        strengths = tuple(float(v) for v in self.strengths)
        if not strengths or not all(math.isfinite(v) for v in strengths):
            raise ValueError(f"strengths must be one or more finite numbers, got {strengths}")
        if not (math.isfinite(self.noise_sd) and self.noise_sd >= 0.0):
            raise ValueError(f"noise_sd must be a finite number >= 0, got {self.noise_sd}")
        object.__setattr__(self, "strengths", strengths)

    @property
    def dim(self) -> int:
        return len(self.strengths)

    def sample(self, m: int, rng):
        """(X (m, d), y (m,)); X is a fresh array the caller may overwrite."""
        a = np.asarray(self.strengths)
        y = np.where(rng.uniform(size=m) < self.class_balance, 1.0, -1.0)
        if self.noise_kind == "gaussian":
            X = rng.normal(0.0, self.noise_sd, size=(m, a.size))
        else:
            X = rng.uniform(-self.noise_sd, self.noise_sd, size=(m, a.size))
        # row blocks keep the a * y temporary small; each entry is one add
        for lo, hi in chunk_bounds(m, _ROWS):
            X[lo:hi] += a * y[lo:hi, None]
        return X, y


def _column_kinds(schema, label_column):
    kinds = {}
    order = []
    for name, kind in schema:
        if kind not in ("categorical", "numeric"):
            raise ValueError(f"column {name!r}: unknown kind {kind!r}")
        if name == label_column:
            continue
        kinds[name] = kind
        order.append(name)
    return kinds, order


def _sniff_schema(header, rows, label_column):
    """((name, kind) per non-label column, numeric iff every value parses;
    the parsed values of each numeric column by its header position)."""
    columns, parsed = [], {}
    for j, name in enumerate(header):
        if name == label_column:
            continue
        try:
            parsed[j] = [float(row[j]) for row in rows]
            columns.append((name, "numeric"))
        except (ValueError, IndexError):
            columns.append((name, "categorical"))
    return columns, parsed


def load_csv(path, schema, label_column, *, delimiter=",", split_seed=0,
             positive_label=None) -> Dataset:
    """Read a headed CSV into an encoded Dataset.

    schema: iterable of (column_name, kind) with kind "categorical" or
    "numeric", covering every non-label column; None infers it from the rows
    read (numeric iff every value parses as a float). Categories are fitted on the
    training split only (first-seen order); a test-split category unseen in
    training is an error. Binary labels map to {-1,+1} (sorted raw values, or
    positive_label forced to +1); more than two distinct values become class
    indices 0..k-1 in sorted order.
    """
    if schema is not None:
        kinds, order = _column_kinds(schema, label_column)

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, header row required") from None
        rows = [row for row in reader if row]

    if label_column not in header:
        raise ValueError(f"label column {label_column!r} not in header {header}")
    parsed = {}  # numeric values an inferred schema already parsed
    if schema is None:
        columns, parsed = _sniff_schema(header, rows, label_column)
        kinds, order = _column_kinds(columns, label_column)
    missing = [c for c in header if c != label_column and c not in kinds]
    if missing:
        raise ValueError(f"schema does not name columns: {missing}")
    col_idx = {name: header.index(name) for name in order}
    label_idx = header.index(label_column)
    n = len(rows)
    if n < 1:
        raise ValueError(f"{path}: no data rows")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"row {i}: expected {len(header)} fields, got {len(row)}")

    # split before fitting any statistic; categories come from train rows only
    train_rows = _train_indices(n, split_seed)

    categories = {name: list(dict.fromkeys(rows[i][col_idx[name]] for i in train_rows))
                  for name in order if kinds[name] == "categorical"}

    groups = []
    names = []
    pos = 0
    for name in order:
        if kinds[name] == "categorical":
            cats = categories[name]
            groups.append(FeatureGroup(name, "categorical", pos, pos + len(cats), tuple(cats)))
            names.extend(f"{name}={c}" for c in cats)
            pos += len(cats)
        else:
            groups.append(FeatureGroup(name, "numeric", pos, pos + 1))
            names.append(name)
            pos += 1

    X = np.zeros((n, pos))
    for g in groups:
        j = col_idx[g.name]
        if g.kind == "categorical":
            lookup = {c: k for k, c in enumerate(g.categories)}
            for i in range(n):
                v = rows[i][j]
                if v not in lookup:
                    raise ValueError(
                        f"row {i}, column {g.name!r}: category {v!r} not seen in training split"
                    )
                X[i, g.start + lookup[v]] = 1.0
        elif j in parsed:
            X[:, g.start] = parsed[j]
        else:
            for i in range(n):
                v = rows[i][j]
                try:
                    X[i, g.start] = float(v)
                except ValueError:
                    raise ValueError(
                        f"row {i}, column {g.name!r}: non-numeric value {v!r}"
                    ) from None

    raw_labels = [row[label_idx] for row in rows]
    distinct = sorted(set(raw_labels))
    if len(distinct) < 2:
        raise ValueError(f"label column has a single value {distinct[0]!r}")
    if len(distinct) == 2:
        if positive_label is not None:
            if positive_label not in distinct:
                raise ValueError(f"positive label {positive_label!r} not among {distinct}")
            neg = distinct[0] if distinct[1] == positive_label else distinct[1]
            label_map = {neg: -1, positive_label: 1}
        else:
            label_map = {distinct[0]: -1, distinct[1]: 1}
    else:
        label_map = {v: k for k, v in enumerate(distinct)}
    y = np.array([label_map[v] for v in raw_labels], dtype=float)

    return Dataset(
        features=X,
        labels=y,
        feature_names=names,
        encoding_map=tuple(groups),
        split_seed=split_seed,
        label_map=label_map,
    )


def generate_synthetic(sampler: SyntheticConditionalSampler, n: int, seed: int = 0) -> Dataset:
    """Draw n examples from sampler with default_rng(seed) into a Dataset of
    numeric features f0, f1, ... split by the same seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    X, y = sampler.sample(n, np.random.default_rng(seed))
    names = [f"f{i}" for i in range(sampler.dim)]
    groups = tuple(FeatureGroup(nm, "numeric", i, i + 1) for i, nm in enumerate(names))
    return Dataset(
        features=X,
        labels=y,
        feature_names=names,
        encoding_map=groups,
        split_seed=seed,
        translated=True,
    )


def blob_sampler(height=8, width=8, *, strong_amplitude=1.0, weak_amplitude=0.05,
                 blob_sigma=1.3, noise_sd=0.5, class_balance=0.5) -> SyntheticConditionalSampler:
    """Synthetic image task: the class mean is a centered bright/dark blob.

    Pixels near the image center carry a strong class signal, the rest a weak
    one, so adversarial training has something to prune. A bad geometry is
    an error that names its synth flag."""
    for flag, size in (("height", height), ("width", width)):
        if size < 1:
            raise ValueError(f"--{flag} must be >= 1, got {size}")
    if not (math.isfinite(blob_sigma) and blob_sigma > 0.0):
        raise ValueError(f"--sigma must be a finite number > 0, got {blob_sigma}")
    for flag, amplitude in (("strong", strong_amplitude), ("weak", weak_amplitude)):
        if not math.isfinite(amplitude):
            raise ValueError(f"--{flag} must be a finite number, got {amplitude}")
    rr, cc = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    cr, cw = (height - 1) / 2.0, (width - 1) / 2.0
    bump = np.exp(-((rr - cr) ** 2 + (cc - cw) ** 2) / (2.0 * blob_sigma**2))
    strengths = weak_amplitude + (strong_amplitude - weak_amplitude) * bump
    return SyntheticConditionalSampler(strengths=tuple(strengths.ravel().tolist()),
                                       noise_sd=noise_sd, class_balance=class_balance)


def save_dataset(ds: Dataset, path):
    """Persist to the JSON sidecar (values as round-trip decimal strings)."""
    doc = {
        "format_version": _SIDECAR_VERSION,
        "features": [[fmt_float(v) for v in row] for row in ds.features],
        "labels": [fmt_float(v) for v in ds.labels],
        "feature_names": list(ds.feature_names),
        "encoding_map": [
            {
                "name": g.name,
                "kind": g.kind,
                "start": g.start,
                "stop": g.stop,
                "categories": list(g.categories) if g.categories is not None else None,
            }
            for g in ds.encoding_map
        ],
        "split_seed": ds.split_seed,
        "label_map": ds.label_map,
        "translated": ds.translated,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_dataset(path) -> Dataset:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("format_version")
    if version != _SIDECAR_VERSION:
        raise ValueError(f"unsupported dataset sidecar version {version!r}")
    groups = tuple(
        FeatureGroup(
            g["name"], g["kind"], g["start"], g["stop"],
            tuple(g["categories"]) if g["categories"] is not None else None,
        )
        for g in doc["encoding_map"]
    )
    return Dataset(
        features=np.asarray(doc["features"], dtype=float),
        labels=np.asarray(doc["labels"], dtype=float),
        feature_names=list(doc["feature_names"]),
        encoding_map=groups,
        split_seed=doc["split_seed"],
        label_map=doc["label_map"],
        translated=doc["translated"],
    )
