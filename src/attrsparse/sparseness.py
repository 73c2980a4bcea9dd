"""Gini-index sparseness of attribution magnitudes."""
from __future__ import annotations

import math
import warnings

import numpy as np

__all__ = ["gini_rows", "make_gini_report"]

# Below this many entries math.fsum row by row beats the tree's fixed cost of
# ~8 ufunc calls per level (1.5 us against 56 us at 1 x 10; even at 30 x 40).
_TREE_MIN_ENTRIES = 1200


def _row_fsums(A) -> np.ndarray:
    """math.fsum of each row of an (n, d) float array of finite values, bit
    for bit; the caller keeps every partial sum in the float range.

    A pairwise TwoSum tree over the columns gives each row a float sum s and
    d - 1 exact error terms e, so that s + sum(e) is the row's exact sum X.
    The error terms sum to E with |E - sum(e)| <= b = 2^ceil(log2(d - 2)) * u * S,
    u = 2^-53 (b = 0 for d <= 2), where S sums |e| by the same reduction: each
    of its d - 2 additions errs by at most u times its result, and no result
    exceeds S. A last TwoSum gives r = fl(s + E) and its exact residual t, so
    |X - r| <= |t| + b, and r is X correctly rounded when |t| + b is below
    half the smaller float gap at r, or when t = b = 0 (then r = X). The
    other rows (exact ties and sums that cancel below b) go to math.fsum,
    and so do arrays of fewer than _TREE_MIN_ENTRIES entries.
    """
    if A.size < _TREE_MIN_ENTRIES:
        return np.asarray([math.fsum(row) for row in A.tolist()], dtype=float)
    n, d = A.shape
    s = A.T.copy()  # one row per column of A, so each half below is one block
    err = np.empty((d - 1, n))
    k = 0
    while len(s) > 1:  # TwoSum of the first half of the rows of s with the second
        w = len(s)
        h = w // 2
        a, b = s[:h], s[h:2 * h]
        nxt = np.empty((h + w % 2, n))  # the h sums, then an odd row carried over
        top = np.add(a, b, out=nxt[:h])
        bb = top - a
        e = err[k:k + h]
        np.subtract(top, bb, out=e)
        np.subtract(a, e, out=e)
        np.subtract(b, bb, out=bb)
        e += bb
        if w % 2:
            nxt[h] = s[w - 1]
        s, k = nxt, k + h
    s = s[0]
    E = err.sum(axis=0) + 0.0  # fsum returns +0.0 for a zero sum
    bound = 0.0 if d <= 2 else math.ldexp(1.0, (d - 3).bit_length() - 53)
    b = bound * np.abs(err, out=err).sum(axis=0)
    r = s + E
    bb = r - s
    t = np.abs((s - (r - bb)) + (E - bb))
    half_gap = 0.5 * np.spacing(np.nextafter(np.abs(r), 0.0))
    ok = (t + b < half_gap) | ((t == 0.0) & (b == 0.0))  # NaN fails both
    for i in np.flatnonzero(~ok):
        r[i] = math.fsum(A[i].tolist())
    return r


def gini_rows(V) -> np.ndarray:
    """Sparseness of each row of a non-negative (n, d) array, each in [0, 1].

    Sorted ascending, G(v) = 1 - 2 * sum_k (v_(k)/||v||_1) * ((d - k + 0.5)/d),
    computed here in the algebraically equal rank form
    sum_k v_(k) * (2k - d - 1) / (d * ||v||_1) with one exact (correctly
    rounded) sum per row for the total and for the rank-weighted sum, so an
    all-equal row scores exactly 0. Both sums are math.fsum's bits, certified
    in array arithmetic by _row_fsums under the bound
    b = 2^ceil(log2(d - 2)) * 2^-53 * sum|err| on the rounding of a TwoSum
    tree's error terms; only the rows it cannot certify (exact rounding ties,
    sums that cancel below b), and small calls, run math.fsum. A row whose
    largest entry is at least 2^(1023 - 2L), L = bit_length(d), is scaled by
    2^-(2L + 1) before it is summed, so that d * d * max < 2^1023 bounds the
    total, the rank-weighted sum, d * total and every partial sum of each
    row; a power of two scales exactly, save for entries it makes subnormal,
    and the Gini index is scale-invariant. An all-zero row
    scores 0 with a warning. Raises a ValueError naming the first row that
    holds NaN or an infinity, and raises on negative entries.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[1] == 0:
        raise ValueError("gini needs non-empty rows: an (n, d) array with d >= 1")
    bad = np.flatnonzero(~np.isfinite(V).all(axis=1))
    if bad.size:
        raise ValueError(f"row {bad[0]}: gini is defined for finite values only")
    if np.any(V < 0):
        raise ValueError("gini is defined for non-negative values only")
    d = V.shape[1]
    ordered = np.sort(V, axis=1)  # equal keys are equal values, or zeros that add nothing
    big = ordered[:, -1] >= math.ldexp(1.0, 1023 - 2 * d.bit_length())
    ordered[big] = np.ldexp(ordered[big], -2 * d.bit_length() - 1)
    ranks = 2.0 * np.arange(1, d + 1) - d - 1
    total = _row_fsums(ordered)
    num = _row_fsums(ordered * ranks)
    den = d * total
    zero = total == 0.0
    if zero.any():
        warnings.warn("gini of an all-zero vector is degenerate; returning 0", stacklevel=2)
    g = np.divide(num, den, out=np.zeros_like(total), where=~zero)
    return np.where(g < 0.0, 0.0, g)


def make_gini_report(attribs) -> np.ndarray:
    """The Gini index of each attribution's magnitudes, one per example."""
    if not attribs:
        raise ValueError("no attributions given")
    return gini_rows(np.abs(np.array([a.values for a in attribs])))
