"""Gini-index sparseness of attribution magnitudes."""
from __future__ import annotations

import math
import warnings

import numpy as np

__all__ = ["gini_rows", "make_gini_report"]


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


def make_gini_report(attribs) -> np.ndarray:
    """The Gini index of each attribution's magnitudes, one per example."""
    if not attribs:
        raise ValueError("no attributions given")
    return gini_rows(np.abs(np.stack([a.values for a in attribs])))
