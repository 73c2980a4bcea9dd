"""Gini-index sparseness of attribution magnitudes and the gap between regimes."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "gini_rows",
    "GiniReport",
    "make_gini_report",
    "gini_gap",
]


def gini_rows(V) -> np.ndarray:
    """Sparseness of each row of a non-negative (n, d) array, each in [0, 1].

    Sorted ascending, G(v) = 1 - 2 * sum_k (v_(k)/||v||_1) * ((d - k + 0.5)/d),
    computed here in the algebraically equal rank form
    sum_k v_(k) * (2k - d - 1) / (d * ||v||_1) with one exact (correctly
    rounded) sum per row for the total and for the rank-weighted sum, so an
    all-equal row scores exactly 0. An all-zero row scores 0 with a warning.
    Raises on negative entries.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[1] == 0:
        raise ValueError("gini needs non-empty rows: an (n, d) array with d >= 1")
    if np.any(V < 0):
        raise ValueError("gini is defined for non-negative values only")
    d = V.shape[1]
    ordered = np.sort(V, axis=1, kind="stable")
    ranks = 2.0 * np.arange(1, d + 1) - d - 1
    total = np.asarray([math.fsum(row) for row in ordered.tolist()])
    num = np.asarray([math.fsum(row) for row in (ordered * ranks).tolist()])
    zero = total == 0.0
    if zero.any():
        warnings.warn("gini of an all-zero vector is degenerate; returning 0", stacklevel=2)
    g = np.divide(num, d * total, out=np.zeros_like(total), where=~zero)
    return np.where(g < 0.0, 0.0, g)


@dataclass
class GiniReport:
    """Per-example attribution Gini values for one trained regime."""

    regime_tag: str
    per_example: np.ndarray
    split_key: str = ""
    mean: float = field(init=False)

    def __post_init__(self):
        self.per_example = np.asarray(self.per_example, dtype=float)
        if self.per_example.ndim != 1 or self.per_example.size == 0:
            raise ValueError("per_example must be a non-empty vector")
        if np.any(self.per_example < 0) or np.any(self.per_example > 1):
            raise ValueError("gini values must lie in [0, 1]")
        self.mean = float(self.per_example.mean())


def make_gini_report(attribs, regime_tag: str, split_key: str = "") -> GiniReport:
    if not attribs:
        raise ValueError("no attributions given")
    values = gini_rows(np.abs(np.stack([a.values for a in attribs])))
    return GiniReport(regime_tag=regime_tag, per_example=values, split_key=split_key)


def gini_gap(natural: GiniReport, other: GiniReport, accuracies: dict):
    """How much sparser and how much less accurate ``other`` is than the
    natural regime, paired per example on the same split.

    accuracies maps regime tags to test accuracy in [0, 1]. Returns
    (mean-Gini gap, accuracy drop in percentage points, per-example gaps).
    """
    for report in (natural, other):
        if report.regime_tag not in accuracies:
            raise ValueError(f"missing accuracy for regime {report.regime_tag!r}")
    if other.per_example.shape != natural.per_example.shape:
        raise ValueError(
            f"regime {other.regime_tag!r} evaluated on {other.per_example.size} examples, "
            f"natural on {natural.per_example.size}: splits differ"
        )
    if natural.split_key and other.split_key and natural.split_key != other.split_key:
        raise ValueError(
            f"regime {other.regime_tag!r} split key {other.split_key!r} != {natural.split_key!r}"
        )
    drop = 100.0 * (accuracies[natural.regime_tag] - accuracies[other.regime_tag])
    return other.mean - natural.mean, drop, other.per_example - natural.per_example
