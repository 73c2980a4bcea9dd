"""Dataset ingestion, one-hot encoding, the seeded train/test split, and
the class-conditional sampler with known per-feature class association that
both synthetic datasets and the theory checks draw from.
"""
from __future__ import annotations

import csv
import math
import operator
from dataclasses import asdict, dataclass

import numpy as np

from ._util import canonical_json, chunk_bounds, fmt_float, json_entry, read_json_object

__all__ = [
    "FeatureGroup",
    "Dataset",
    "SyntheticConditionalSampler",
    "read_schema",
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
        if self.categories is not None:  # a sidecar's JSON list, say
            object.__setattr__(self, "categories", tuple(self.categories))
        for end in ("start", "stop"):  # a TypeError unless an integer
            object.__setattr__(self, end, operator.index(getattr(self, end)))
        if self.kind not in ("categorical", "numeric"):
            raise ValueError(f"unknown column kind {self.kind!r}")
        if self.kind == "numeric" and self.stop - self.start != 1:
            raise ValueError("numeric column must span exactly one position")
        if self.kind == "categorical":
            if self.categories is None or len(self.categories) != self.stop - self.start:
                raise ValueError(f"column {self.name!r}: category list does not match span")


@dataclass
class Dataset:
    """Encoded feature matrix with labels in {-1,+1}, the encoding metadata,
    and a seeded 70/30 train/test split."""

    features: np.ndarray
    labels: np.ndarray
    feature_names: list
    encoding_map: tuple
    split_seed: int = 0

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=float)
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
        other = ~np.isin(self.labels, (-1.0, 1.0))
        if other.any():
            raise ValueError("labels must be -1 or +1, got values "
                             f"{np.unique(self.labels[other])[:8]}")
        self._validate_groups()
        self.train_indices = _train_indices(n, self.split_seed)
        self.test_indices = np.delete(np.arange(n), self.train_indices)

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
        for g in self.encoding_map:
            if g.kind != "categorical":
                continue
            block = self.features[:, g.start:g.stop]
            ok = np.all(np.isin(block, (0.0, 1.0))) and np.all(block.sum(axis=1) == 1.0)
            if not ok:
                raise ValueError(f"column {g.name!r}: one-hot block must have exactly one 1 "
                                 "per row")

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
        """(X (m, d), y (m,)), fresh arrays the caller may overwrite.

        X is column-major, the transposed view of a (d, m) array, so each
        feature is one contiguous column: a_i * y plus the noise, filled in
        blocks of _ROWS rows (the stream of one (m, d) draw, scaled as numpy's
        normal and uniform scale it).
        """
        a = np.asarray(self.strengths)
        y = np.empty(m)
        np.less(rng.random(out=y), self.class_balance, out=y)
        y *= 2.0
        y -= 1.0
        cols = np.empty((a.size, m))
        gaussian, sd = self.noise_kind == "gaussian", self.noise_sd
        fill = rng.standard_normal if gaussian else rng.random
        scale, low = (sd, 0.0) if gaussian else (2.0 * sd, -sd)
        block = np.empty((min(m, _ROWS), a.size))
        for lo, hi in chunk_bounds(m, _ROWS):
            noise = block[:hi - lo]
            fill(out=noise)
            noise *= scale
            noise += low  # +0.0 turns a zero scale's -0.0 into numpy's +0.0
            np.multiply(a[:, None], y[lo:hi], out=cols[:, lo:hi])
            cols[:, lo:hi] += noise.T
        return cols.T, y


def _column_kinds(schema, label_column):
    """{name: kind} of the non-label columns, in schema order; a name given
    twice is an error, as it would encode its column twice."""
    kinds = {}
    for name, kind in schema:
        if kind not in ("categorical", "numeric"):
            raise ValueError(f"column {name!r}: unknown kind {kind!r}")
        if name in kinds:
            raise ValueError(f"column {name!r} appears more than once in the schema")
        if name != label_column:
            kinds[name] = kind
    return kinds


def read_schema(path) -> tuple:
    """(columns as (name, kind) pairs, label column, positive label) of a
    JSON schema file; each of the last two is None when the file leaves it
    out. The columns are a {name: kind} object or a list whose entries are
    [name, kind] pairs or {"name": ..., "kind": ...} objects, every name
    and kind a string; a malformed entry is an error naming its index."""
    doc = read_json_object(path, "schema")
    if not isinstance(doc.get("positive_label", ""), (str, type(None))):
        raise ValueError(f"{path}: 'positive_label' must be a string, got "
                         f"{type(doc['positive_label']).__name__}")
    columns = doc.get("columns")
    if not isinstance(columns, (dict, list)):
        raise ValueError(f"{path}: schema file needs a 'columns' object or list, got {columns!r}")
    pairs = []
    for i, entry in enumerate(columns.items() if isinstance(columns, dict) else columns):
        pair = (entry.get("name"), entry.get("kind")) if isinstance(entry, dict) else entry
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(isinstance(part, str) for part in pair)):
            raise ValueError(f"{path}: columns entry {i} must be [name, kind] or "
                             f'{{"name": ..., "kind": ...}} with string values, got {entry!r}')
        pairs.append(tuple(pair))
    return pairs, doc.get("label_column"), doc.get("positive_label")


def load_csv(path, schema, label_column, *, delimiter=",", split_seed=0,
             positive_label=None) -> Dataset:
    """Read a headed CSV into an encoded Dataset.

    schema: iterable of (column_name, kind) with kind "categorical" or
    "numeric", covering every non-label column; None infers each column's kind
    (numeric iff every value parses as a float). Columns are encoded one at a
    time in schema (or header) order, so the first holding a bad cell names the
    error. Categories are fitted on the training split only (first-seen order),
    and each row is one-hot at its category's index; a test-split category
    unseen in training is an error. The label column must hold exactly two
    distinct values, mapped to {-1,+1}: the larger raw value sorts to +1 unless
    positive_label names it. A name repeated in the header or the schema is an error.
    """
    kinds = None if schema is None else _column_kinds(schema, label_column)

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, header row required") from None
        rows = [row for row in reader if row]

    for j, name in enumerate(header):
        if name in header[:j]:
            raise ValueError(f"{path}: column {name!r} appears more than once in the header")
    if label_column not in header:
        raise ValueError(f"label column {label_column!r} not in header {header}")
    if kinds is None:  # each kind is left open: numeric iff all the column's cells parse
        kinds = dict.fromkeys(c for c in header if c != label_column)
    missing = [c for c in header if c != label_column and c not in kinds]
    if missing:
        raise ValueError(f"schema does not name columns: {missing}")
    absent = [c for c in kinds if c not in header]
    if absent:
        raise ValueError(f"schema columns {absent} not in header {header}")
    n = len(rows)
    if n < 1:
        raise ValueError(f"{path}: no data rows")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"row {i}: expected {len(header)} fields, got {len(row)}")

    columns = dict(zip(header, zip(*rows)))  # each column's cells, transposed once
    # split before fitting any statistic; categories come from train rows only
    train_rows = _train_indices(n, split_seed)
    groups, names, blocks = [], [], []
    for name, kind in kinds.items():
        cells, pos = columns[name], groups[-1].stop if groups else 0
        if kind != "categorical":
            try:
                values = [float(v) for v in cells]
            except ValueError:  # an inferred column is then categorical
                if kind == "numeric":  # a given one names its first bad cell
                    for i, v in enumerate(cells):
                        try:
                            float(v)
                        except ValueError:
                            raise ValueError(f"row {i}, column {name!r}: non-numeric "
                                             f"value {v!r}") from None
            else:
                blocks.append(np.array(values)[:, None])
                groups.append(FeatureGroup(name, "numeric", pos, pos + 1))
                names.append(name)
                continue
        cats = dict.fromkeys(cells[i] for i in train_rows)
        group = FeatureGroup(name, "categorical", pos, pos + len(cats), cats)
        index = {c: k for k, c in enumerate(group.categories)}
        try:
            blocks.append(np.eye(len(index))[[index[v] for v in cells]])
        except KeyError:
            i = next(i for i, v in enumerate(cells) if v not in index)
            raise ValueError(f"row {i}, column {name!r}: category {cells[i]!r} not seen in "
                             "training split") from None
        groups.append(group)
        names.extend(f"{name}={c}" for c in group.categories)

    distinct = sorted(set(columns[label_column]))
    if len(distinct) < 2:
        raise ValueError(f"label column {label_column!r} has a single value {distinct[0]!r}")
    if len(distinct) > 2:
        raise ValueError(f"label column {label_column!r} has {len(distinct)} values "
                         f"{distinct[:8]}; labels must be binary")
    if positive_label is None:
        positive_label = distinct[1]
    elif positive_label not in distinct:
        raise ValueError(f"positive label {positive_label!r} not among {distinct}")
    y = np.asarray([1.0 if v == positive_label else -1.0 for v in columns[label_column]])

    return Dataset(
        features=np.hstack([np.empty((n, 0)), *blocks]),  # (n, 0) when only the label is left
        labels=y,
        feature_names=names,
        encoding_map=tuple(groups),
        split_seed=split_seed,
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
        "encoding_map": [asdict(g) for g in ds.encoding_map],
        "split_seed": ds.split_seed,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(doc))


def load_dataset(path) -> Dataset:
    """Read a JSON sidecar; keys that older sidecars carry ("label_map",
    "translated") are ignored."""
    doc = read_json_object(path, "dataset")
    version = doc.get("format_version")
    if version != _SIDECAR_VERSION:
        raise ValueError(f"unsupported dataset sidecar version {version!r}")

    def entry(key, convert):
        return json_entry(doc, key, convert, f"{path}: the dataset file")

    return Dataset(
        features=entry("features", lambda v: np.asarray(v, dtype=float)),
        labels=entry("labels", lambda v: np.asarray(v, dtype=float)),
        feature_names=entry("feature_names", list),
        encoding_map=entry("encoding_map", lambda gs: tuple(FeatureGroup(**g) for g in gs)),
        split_seed=entry("split_seed", _split_seed),
    )


def _split_seed(value) -> int:
    """A JSON split seed: an integer >= 0, as numpy's SeedSequence takes."""
    seed = operator.index(value)
    if seed < 0:
        raise ValueError(f"{seed} is negative")
    return seed
