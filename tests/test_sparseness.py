"""Gini sparseness: frozen exact values, agreement with two independently
coded oracle formulas, invariance properties, and the per-example vector of
a set of attributions. The gap between regimes is tested with the pipeline."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attrsparse.attribution import AttributionVector
from helpers import gini_row, gini_row_reference

from attrsparse import sparseness
from attrsparse.sparseness import _row_fsums, gini_rows, make_gini_report


def _gini_share_form(v):
    """Oracle 1: 1 - 2 sum_k (v_(k)/T) * ((d - k + 0.5)/d), coded directly."""
    v = np.sort(np.asarray(v, dtype=float))
    d = v.size
    total = math.fsum(v.tolist())
    acc = math.fsum((v[k - 1] / total) * ((d - k + 0.5) / d) for k in range(1, d + 1))
    return 1.0 - 2.0 * acc


def _gini_lorenz_form(v):
    """Oracle 2: one minus twice the trapezoid area under the Lorenz curve."""
    v = np.sort(np.asarray(v, dtype=float))
    total = math.fsum(v.tolist())
    shares = np.concatenate([[0.0], np.cumsum(v) / total])
    area = math.fsum(((shares[k] + shares[k + 1]) / 2.0 / v.size) for k in range(v.size))
    return 1.0 - 2.0 * area


def test_gini_rows_matches_per_row_formula_bitwise(rng):
    for d in (1, 2, 3, 17, 52, 200):
        V = rng.exponential(size=(60, d)) * (rng.uniform(size=(60, d)) < 0.8)
        V[0] = 2.75                      # all equal: exactly 0
        V[1] = 0.0                       # all zero: warns, scores 0
        V[2] = 10.0 ** rng.uniform(-12, 12, size=d)  # wide dynamic range
        V[3] = np.where(V[3] > 0.0, V[3], rng.choice([-0.0, 0.0], size=d))  # zeros of both signs
        V[4] = rng.choice([-0.0, 0.0], size=d)
        V[4, 0] = -0.0                   # all zero, -0.0 among them: warns, scores 0
        for i, c in enumerate((5e-324, 1e-300, 0.1, 3.0, 1e300)):
            V[5 + i] = c                 # all equal at several scales: exactly 0
        with pytest.warns(UserWarning, match="all-zero"):
            got = gini_rows(V)
        assert got.shape == (60,)
        for g, row in zip(got.tolist(), V):
            ref = gini_row_reference(row)
            assert g == ref and math.copysign(1.0, g) == math.copysign(1.0, ref), (d, row)
        assert got[0] == 0.0 and got[1] == 0.0
        assert gini_row(V[2]) == got[2]


def _fsum_bits(A):
    return np.asarray([math.fsum(row) for row in A.tolist()]).view(np.int64)


def test_row_fsums_matches_fsum_bitwise(rng):
    """The certified sums equal math.fsum's bits, sign of zero included, on
    rows made to strain the certificate: exact ties, ties pushed over by a
    term below u, rounding lost in the error sum, cancellations, and every
    exponent from subnormal to 1e300."""
    big = 2.0 ** 60
    lost = 3.0 * 2.0 ** -55  # below half a unit in the last place of 1.0
    special = [
        [1e16, 1.0],                     # exact tie: rounds to even
        [1e16, 1.0, 1e-20],              # tie pushed over by a term below u
        [1e16, 1.0, 1.0],
        [1e16 + 2.0, 1.0],
        [big, -big, big, -big, 1.0, lost, lost, 0.0],  # the error sum drops 2 * lost
        [1.0, 1e100, 1.0, -1e100],
        [5e-324, -5e-324, 2.0 ** -1022, -2.0 ** -1022, 5e-324],
        [1e300, 1e300, -1e300, -1e300, 1e-300],
        [-0.0], [-0.0, -0.0], [0.0, -0.0, -0.0], [-1.0, 1.0],
    ]
    for row in special:
        A = np.asarray([row, [-v for v in row], row[::-1]])
        assert np.array_equal(_row_fsums(A).view(np.int64), _fsum_bits(A)), row
    for d in (1, 2, 3, 5, 8, 13, 52, 101):
        blocks = [
            rng.choice([-1.0, 1.0], size=(200, d)) * 10.0 ** rng.uniform(-300, 300, size=(200, d)),
            rng.choice([-1.0, 1.0], size=(200, d)) * rng.integers(1, 2 ** 20, size=(200, d)) * 5e-324,
            rng.choice([0.0, -0.0, 5e-324, 1.0, -1.0, 1e16, -1e16], size=(200, d)),
        ]
        half = rng.normal(size=(200, (d + 1) // 2)) * 10.0 ** rng.integers(-30, 30, size=(200, 1))
        tiny = rng.normal(size=(200, (d + 1) // 2)) * 10.0 ** rng.integers(-60, -10, size=(200, 1))
        pairs = np.concatenate([half, -half + tiny], axis=1)[:, :d]  # near-exact cancellation
        blocks.append(rng.permuted(pairs, axis=1))
        exact = np.concatenate([half, -half], axis=1)[:, :d]         # exact cancellation
        blocks.append(rng.permuted(exact, axis=1))
        for A in blocks:
            assert np.array_equal(_row_fsums(A).view(np.int64), _fsum_bits(A)), d


def test_row_fsums_tree_matches_fsum_bitwise_at_every_size(rng, monkeypatch):
    """The rows above with no call routed to math.fsum by its size, so that
    the small blocks of special rows run the certified tree too."""
    monkeypatch.setattr(sparseness, "_TREE_MIN_ENTRIES", 0)
    test_row_fsums_matches_fsum_bitwise(rng)


def test_small_calls_take_fsum_and_large_calls_the_tree(rng, monkeypatch):
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda row: calls.append(len(row)) or fsum(row))
    for shape in ((1, 10), (5, 40), (1, 1073)):
        V = rng.exponential(size=shape)
        calls.clear()
        got = gini_rows(V)
        assert calls == [shape[1]] * (2 * shape[0])  # the total and the rank-weighted sum
        assert got.tolist() == [gini_row_reference(v) for v in V]
    calls.clear()
    gini_rows(rng.exponential(size=(30, 40)))
    assert len(calls) <= 1


def test_row_fsums_certifies_almost_every_row(rng, monkeypatch):
    """Exponential rows of the benchmark's width reach math.fsum rarely: a
    certificate that rejected every row would only be slower fsum."""
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda row: calls.append(1) or fsum(row))
    V = rng.exponential(size=(600, 52))
    gini_rows(V)
    assert len(calls) <= 0.01 * 2 * len(V)  # two sums per row


def test_gini_rows_scores_rows_whose_sums_pass_the_float_range(rng):
    # A row whose largest entry reaches 2^(1023 - 2 * bit_length(d)) is
    # scaled by a power of two before it is summed, so that no total,
    # rank-weighted sum or d * total overflows; the Gini index is
    # scale-invariant.
    rows = np.asarray([[1.0, 2.0, 3.0],
                       [1e308, 1.0, 2.0],       # the rank-weighted sum overflows
                       [1e308, 1e308, 1e308],   # the total does
                       [6e307, 6e307, 1.0]])    # d * total does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gini_rows(rows)
    assert got.tolist()[:3] == [gini_row_reference(rows[0]), 2.0 / 3.0, 0.0]
    assert got[3] == pytest.approx(1.0 / 3.0, rel=1e-15)
    # fsum's partial sums overflow, though the rank-weighted products cancel
    assert gini_rows(np.full((1, 10), 1e307)).tolist() == [0.0]
    top = np.finfo(float).max
    assert gini_rows(np.full((1, 1000), top)).tolist() == [0.0]
    assert gini_rows(np.asarray([[0.0] + [top] * 999])) == pytest.approx(0.001, rel=1e-15)
    # 2^1020 scales exactly, and so does the power of two that brings the
    # rows it pushes past the float range back: every row keeps its bits
    for d in (1, 2, 3, 17, 52, 200):
        V = rng.uniform(size=(50, d))
        assert gini_rows(np.ldexp(V, 1020)).tobytes() == gini_rows(V).tobytes(), d


def test_gini_rows_keeps_its_bits_across_the_scaling_threshold(rng):
    # a row is scaled before it is summed once its largest entry reaches
    # 2^(1023 - 2L), L = bit_length(d). The entries of 2^k * V lie in
    # [2^(k-1), 2^k), so k runs from 1022 - 2L, two binades below the
    # threshold, to 1023, the float top; the wider blocks run the TwoSum tree
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in (1, 2, 3, 17, 52, 200, 1000):
            V = rng.uniform(0.5, 1.0, size=(30, d))
            want = gini_rows(V).tobytes()
            for k in range(1023 - 2 * d.bit_length() - 1, 1024):
                assert gini_rows(np.ldexp(V, k)).tobytes() == want, (d, k)


def test_exact_values():
    assert gini_row(np.ones(5)) == 0.0
    assert gini_row(np.asarray([7.0])) == 0.0
    assert gini_row(np.asarray([0.0, 0.0, 0.0, 3.0])) == 0.75
    assert gini_row(np.asarray([3.0, 1.0, 0.0])) == 0.5
    assert gini_row(np.asarray([1.0, 0.0])) == 0.5
    # single nonzero among d entries scores (d-1)/d exactly
    for d in (2, 3, 10, 64):
        v = np.zeros(d)
        v[0] = 2.5
        assert gini_row(v) == (d - 1) / d


def test_all_equal_is_exactly_zero_any_scale():
    for c in (1e-9, 1.0, 3.7, 1e12):
        for d in (1, 2, 7, 100):
            assert gini_row(np.full(d, c)) == 0.0


def test_zero_vector_warns_and_returns_zero():
    with pytest.warns(UserWarning, match="all-zero"):
        assert gini_row(np.zeros(4)) == 0.0


def test_validation_errors():
    with pytest.raises(ValueError, match="non-negative"):
        gini_row(np.asarray([1.0, -0.5]))
    with pytest.raises(ValueError, match="non-empty"):
        gini_row(np.asarray([]))
    with pytest.raises(ValueError, match="non-empty"):
        gini_row(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="non-negative"):
        gini_rows(np.asarray([[1.0, 2.0], [0.5, -0.5]]))
    with pytest.raises(ValueError, match="non-empty"):
        gini_rows(np.zeros((3, 0)))
    with pytest.raises(ValueError, match="non-empty"):
        gini_rows(np.ones(4))


def test_matches_two_independent_oracles(rng):
    for _ in range(300):
        d = int(rng.integers(2, 40))
        v = rng.uniform(0, 10, size=d)
        if rng.uniform() < 0.3:
            v[rng.integers(0, d)] = 0.0
        g = gini_row(v)
        assert g == pytest.approx(_gini_share_form(v), abs=1e-12)
        assert g == pytest.approx(_gini_lorenz_form(v), abs=1e-12)


def test_fuzz_range_scale_permutation(rng):
    for _ in range(2000):
        d = int(rng.integers(1, 30))
        v = rng.exponential(size=d)
        g = gini_row(v)
        assert 0.0 <= g <= (d - 1) / d + 1e-15
        assert gini_row(3.25 * v) == pytest.approx(g, abs=1e-12)
        assert gini_row(rng.permutation(v)) == g  # sorting makes order exactly irrelevant


def test_replication_invariance(rng):
    for _ in range(100):
        d = int(rng.integers(1, 12))
        v = rng.uniform(0, 5, size=d)
        for m in (2, 3, 7):
            assert gini_row(np.tile(v, m)) == pytest.approx(gini_row(v), abs=1e-12)


def test_appending_zero_strictly_increases(rng):
    for _ in range(100):
        v = rng.uniform(0.1, 5, size=int(rng.integers(1, 15)))
        assert gini_row(np.append(v, 0.0)) > gini_row(v)


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=25),
       st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=200, deadline=None)
def test_uniform_shift_scales_gini_by_mass_ratio(vals, c):
    v = np.asarray(vals)
    total = math.fsum(vals)
    if total == 0.0:
        return
    d = v.size
    # adding c to every entry rescales the index by T / (T + d c) exactly
    expected = gini_row(v) * total / (total + d * c)
    assert gini_row(v + c) == pytest.approx(expected, rel=1e-9, abs=1e-12)


@given(st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_hypothesis_bounds_and_oracle(vals):
    v = np.asarray(vals)
    if math.fsum(vals) == 0.0:
        return
    g = gini_row(v)
    assert 0.0 <= g <= 1.0
    assert g == pytest.approx(_gini_share_form(v), abs=1e-12)


def test_make_gini_report_uses_magnitudes():
    attr = AttributionVector(np.asarray([-3.0, 1.0, 0.0]), 0.0)
    assert make_gini_report([attr]).tolist() == [0.5]
    with pytest.raises(ValueError, match="no attributions"):
        make_gini_report([])


def test_make_gini_report():
    attribs = [
        AttributionVector(np.asarray([1.0, 0.0]), 0.0),
        AttributionVector(np.asarray([2.0, 2.0]), 0.0),
    ]
    np.testing.assert_allclose(make_gini_report(attribs), [0.5, 0.0], atol=1e-15)


@pytest.mark.filterwarnings("error")  # an error, not a NaN score and a RuntimeWarning
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gini_rows_names_the_first_non_finite_row(bad):
    with pytest.raises(ValueError, match="^row 1: gini is defined for finite values only$"):
        gini_rows(np.asarray([[1.0, 2.0], [bad, 1.0], [1.0, bad]]))
