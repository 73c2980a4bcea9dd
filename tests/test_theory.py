"""Monte-Carlo guarantee checks: exact degenerate statistics, quadrature
oracles, the conditional-expectation bound, and the exact loss identity."""
import math
import sys
import threading
import time

import numpy as np
import pytest
from helpers import expected_update_exact, lemma_d1_exact, one_row, theorem1_limit

from attrsparse import theory
from attrsparse.data import SyntheticConditionalSampler
from attrsparse.losses import LOSS_KINDS, linear_loss_and_grads, make_loss
from attrsparse.theory import (
    attribution_shift_norm,
    check_lemma_exp_bound,
    check_theorem1_bound,
    check_theorem3_identity,
    expected_update,
    lemma_d1_instance,
    theorem1_bound_instances,
    theorem3_instances,
    verify_zero_weight_update,
)

LN2 = 0.6931471805599453
G_LOG_03 = 0.8543552444685272  # softplus(0.3)
LOGISTIC = make_loss("logistic-nll")


def _sampler(strengths=(0.8, -0.5, 0.3, 0.0, 0.1), **kw):
    return SyntheticConditionalSampler(strengths=strengths, **kw)


def test_gprimebar_at_zero_weights_is_exact():
    # at w = 0 every sample's loss derivative is g'(0), and noise-free
    # features make every sample's update the constant g'(0) * a; dyadic
    # strengths keep every partial sum exact, so the mean is exact and the
    # SE is exactly zero
    strengths = (0.5, -0.25, 1.0, 0.0)
    for kind, gp0 in (("logistic-nll", 0.5), ("hinge", 1.0)):
        mean, se = expected_update(make_loss(kind), np.zeros(4), 0.0,
                                   _sampler(strengths, noise_sd=0.0), 20_000)
        np.testing.assert_array_equal(mean, gp0 * np.asarray(strengths))
        np.testing.assert_array_equal(se, np.zeros(4))


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_zero_weight_update_matches_strengths(kind):
    spec = make_loss(kind)
    noise_kind = "uniform" if kind == "hinge" else "gaussian"
    sampler = _sampler(noise_kind=noise_kind)
    results = verify_zero_weight_update(spec, sampler, 100_000, seed=0)
    assert len(results) == 5
    gp0 = float(spec.gprime(np.asarray(0.0)))
    for i, r in enumerate(results):
        assert r.passed, f"{r.check_id}: {r.estimate} vs {r.reference} (se {r.se})"
        assert r.check_id == f"zero-weight-update[{i}]"
        assert r.reference == gp0 * sampler.strengths[i]
        assert r.n_samples == 100_000
        assert f"loss={kind}" in r.detail
        assert set(r.to_dict()) == {"check", "estimate", "reference", "se",
                                    "n_samples", "passed", "detail"}


def test_zero_weight_update_detects_wrong_strengths():
    class _Doubled(SyntheticConditionalSampler):
        def sample(self, m, rng):
            X, y = super().sample(m, rng)
            return 2.0 * X, y

    results = verify_zero_weight_update(LOGISTIC, _Doubled(strengths=(0.8, -0.5)),
                                        100_000, seed=0)
    assert not any(r.passed for r in results)


def test_expected_update_needs_enough_samples():
    with pytest.raises(ValueError, match="10000"):
        expected_update(LOGISTIC, np.zeros(2), 0.0, _sampler(strengths=(0.1, 0.2)), 9_999)


def _oracle_z_scores(seed, kinds=("logistic-nll", "softplus-hinge"), n=200_000):
    """z-scores of the Monte-Carlo engine against expected_update_exact on 6
    random d = 6 Gaussian configurations (strengths, w, S, eps, noise and
    class balance drawn from default_rng(seed)) under each loss of kinds:
    every coordinate of expected_update, then thm1-bound's estimate -
    reference against its exact value at the se it reports; 42 per loss."""
    rng = np.random.default_rng(seed)
    z = []
    for k in range(6):
        strengths, w = rng.uniform(-0.8, 0.8, size=6), rng.normal(size=6)
        subset = rng.choice(6, size=int(rng.integers(1, 7)), replace=False).tolist()
        eps, sd, balance = rng.uniform(0.05, 0.3), rng.uniform(0.5, 1.5), rng.uniform(0.3, 0.7)
        sampler = _sampler(tuple(strengths), noise_sd=sd, class_balance=balance)
        for j, kind in enumerate(kinds):
            spec = make_loss(kind)
            update, slope = expected_update_exact(spec, w, strengths, sd, eps)
            stream = 1000 * seed + len(kinds) * k + j
            mean, se = expected_update(spec, w, eps, sampler, n, seed=stream)
            z.extend((mean - update) / se)
            res = check_theorem1_bound(spec, w, subset, eps, sampler, n, seed=stream + 500)
            ws, denom = w[subset], np.abs(w[subset]).sum()
            want = ws @ update[subset] / denom - slope * (ws @ strengths[subset] / denom - eps)
            z.append((res.estimate - res.reference - want) / res.se)
    return np.asarray(z)


def test_expected_update_matches_quadrature_oracle():
    # d = 1, then every coordinate of 6 random d = 6 configurations and
    # thm1-bound's gap on each. Over seeds 0-39 of _oracle_z_scores the 84
    # z-scores read max |z| 2.15-3.95 and mean z^2 0.72-1.40, so the bounds
    # below sit past the null spread. A dropped chunk, squares taken before
    # the total, every chunk drawn from one seed (mean z^2 only) and a
    # flipped eps term in theory._update each fail them; the short last
    # chunk drawn with chunk 0's seed does not (mean z^2 1.23).
    w, a, eps, sd = 0.7, 0.4, 0.1, 1.0
    update, _ = expected_update_exact(LOGISTIC, [w], [a], sd, eps)
    sampler = _sampler(strengths=(a,), noise_sd=sd)
    mean, se = expected_update(LOGISTIC, np.asarray([w]), eps, sampler, 400_000, seed=1)
    assert abs(float(mean[0] - update[0])) <= 4.0 * float(se[0])
    assert float(se[0]) < 0.01
    z = _oracle_z_scores(0)
    assert z.size == 84
    assert np.abs(z).max() <= 4.5
    assert float(np.mean(z * z)) <= 1.6


def test_hinge_update_matches_its_closed_form():
    # hinge's g' is an indicator, so the oracle is Phi and phi in closed
    # form, from math.erf, and shares no code with losses._hinge_gprime.
    # Over seeds 0-39 the 42 z-scores read max |z| 1.67-3.37 and mean z^2
    # 0.62-1.54; g' shifted to z > -0.9 reads 6.30 and 6.55 at seed 0.
    z = _oracle_z_scores(0, kinds=("hinge",))
    assert z.size == 42
    assert np.abs(z).max() <= 4.5
    assert float(np.mean(z * z)) <= 1.8


def test_theorem1_holds_exactly_on_every_configuration():
    # both sides of thm1-bound's inequality from expected_update_exact, no
    # Monte Carlo: 200 of theorem1_bound_instances' configurations, each at
    # its own eps and noise scale, under every loss. The smallest true margin
    # of the 600 is 2.23e-9 (hinge, its kink deep in the tail); logistic-nll's
    # is 1.77e-3 and softplus-hinge's 7.71e-4. A flipped eps term in the
    # oracle's update (+sign(w_i) eps) breaks 448 of the 600.
    rng = np.random.default_rng(0)
    margins = []
    for strengths, w, subset, _ in theorem1_bound_instances(200, 0):
        eps, sd = rng.uniform(0.0, 0.5), rng.uniform(0.3, 2.0)
        a, S = np.asarray(strengths), list(subset)
        ws, denom = w[S], np.abs(w[S]).sum()
        for kind in LOSS_KINDS:
            update, slope = expected_update_exact(make_loss(kind), w, a, sd, eps)
            margins.append(slope * (ws @ a[S] / denom - eps) - ws @ update[S] / denom)
    margins = np.asarray(margins)
    assert margins.size == 600
    assert (margins > 0.0).all(), np.flatnonzero(margins <= 0.0)
    assert margins.min() == pytest.approx(2.226257e-9, rel=1e-5)


def test_weighted_average_hand_value_and_validation():
    # the bound's abar is the weighted average sum_S w_i a_i / sum_S |w_i| of
    # the strengths: (2*1 + 3*3) / (2 + 3) = 2.2
    s = _sampler((1.0, 2.0, 3.0))
    res = check_theorem1_bound(LOGISTIC, np.asarray([2.0, -1.0, 3.0]), (0, 2), 0.1, s, 10_000)
    assert res.detail.endswith("abar=2.2")
    with pytest.raises(ValueError, match="non-empty"):
        check_theorem1_bound(LOGISTIC, np.asarray([1.0, 1.0, 1.0]), (), 0.1, s, 10_000)
    with pytest.raises(ValueError, match="vanish"):
        check_theorem1_bound(LOGISTIC, np.asarray([1.0, 0.0, 1.0]), (1,), 0.1, s, 10_000)


def test_bound_holds_across_random_configurations():
    rng = np.random.default_rng(0)
    for k in range(5):
        d = 6
        strengths = tuple(rng.uniform(-0.8, 0.8, size=d).tolist())
        w = rng.normal(size=d)
        size = int(rng.integers(1, d + 1))
        idx = tuple(sorted(rng.choice(d, size=size, replace=False).tolist()))
        sampler = _sampler(strengths=strengths)
        res = check_theorem1_bound(LOGISTIC, w, idx, 0.1, sampler, 50_000, seed=k)
        assert res.passed, f"config {k}: {res.estimate} > {res.reference} + 3*{res.se}"
        assert res.estimate <= res.reference + 3.0 * res.se
        assert "abar=" in res.detail


def test_limit_residual_shrinks_with_weight_scale():
    rng = np.random.default_rng(3)
    w = rng.normal(size=4)
    sampler = _sampler(strengths=(0.6, 0.3, -0.2, 0.1))
    results = theorem1_limit(LOGISTIC, w, (0, 1, 2), 0.1, sampler, 100_000, seed=0)
    assert len(results) == 4
    assert all(r.passed for r in results)
    assert results[0].check_id == "limit-equality[scale=1]"
    assert results[-1].check_id == "limit-equality[scale=0.001]"
    # at vanishing weights the update equals its bound up to sampling noise
    assert results[-1].estimate < results[0].estimate
    assert results[-1].estimate <= 3.0 * results[-1].se + 1e-12


# --- conditional-expectation bound ------------------------------------------------

def _zv_sampler(strengths, shared=(), weight=0.0):
    """(Z, V, Y) with Z = y*x_0 and V = y*x_rest; the features in ``shared``
    (never x_0) also load ``weight`` times one latent normal factor, which
    correlates them with each other but leaves Z independent of V given Y."""
    base = SyntheticConditionalSampler(strengths=strengths)

    def sample(n, rng):
        X, y = base.sample(n, rng)
        if shared:
            t = rng.normal(0.0, 1.0, size=n)
            X[:, np.asarray(shared)] += weight * t[:, None]
        return y * X[:, 0], y[:, None] * X[:, 1:], y

    return sample


def test_lemma_decreasing_f_passes_with_variance_gap():
    sampler = _zv_sampler((0.6, 0.3, -0.2))
    res = check_lemma_exp_bound(lambda z, v: -z, sampler, 50_000, seed=0)
    assert res.passed
    # gap is exactly -Var(Z), far below 0
    assert res.estimate - res.reference < -0.5 * res.se


def test_lemma_constant_f_is_exact_equality():
    sampler = _zv_sampler((0.6, 0.3))
    res = check_lemma_exp_bound(lambda z, v: np.full_like(z, 2.0), sampler, 10_000, seed=1)
    assert res.passed
    assert res.estimate == pytest.approx(res.reference, rel=1e-14)


def test_lemma_increasing_f_fails():
    sampler = _zv_sampler((0.6, 0.3, -0.2))
    res = check_lemma_exp_bound(lambda z, v: z, sampler, 50_000, seed=2)
    assert not res.passed


def test_lemma_canned_loss_instantiation_passes():
    # f = g'(eps*|w|_1 - |w_0| z - <w_rest, v>) is non-increasing in z, and the
    # complement block may share a latent factor without breaking the bound
    w = np.asarray([0.9, -0.4, 0.3, 0.2])
    eps = 0.1

    def f(z, v):
        return LOGISTIC.gprime(eps * np.abs(w).sum() - abs(w[0]) * z - v @ w[1:])

    plain = _zv_sampler((0.6, 0.3, -0.2, 0.1))
    res = check_lemma_exp_bound(f, plain, 100_000, seed=0)
    assert res.passed
    shared = _zv_sampler((0.6, 0.3, -0.2, 0.1), shared=(1, 2, 3), weight=0.7)
    res2 = check_lemma_exp_bound(f, shared, 100_000, seed=0)
    assert res2.passed


def _lemma_z_scores(seed, n=400_000):
    """z-scores of check_lemma_exp_bound on lemma_d1_instance against
    lemma_d1_exact, on 6 random Gaussian configurations (d, strengths, eps,
    noise and class balance from default_rng(seed)) under each positive-slope
    loss: the estimate E[Z f] and the reference E[Z] E[f] at their exact
    standard errors (the reference's by the delta method), then the gap at
    the se the check reports; 36 in all. Also returns the w_0 drawn."""
    rng = np.random.default_rng(seed)
    z, w0 = [], []
    for k in range(6):
        d = int(rng.integers(2, 7))
        strengths = tuple(rng.uniform(-0.8, 0.8, size=d).tolist())
        eps, sd, balance = rng.uniform(0.05, 0.3), rng.uniform(0.5, 1.5), rng.uniform(0.3, 0.7)
        sampler = _sampler(strengths, noise_sd=sd, class_balance=balance)
        for j, kind in enumerate(("logistic-nll", "softplus-hinge")):
            spec, stream = make_loss(kind), 1000 * seed + 2 * k + j
            res = check_lemma_exp_bound(*lemma_d1_instance(spec, sampler, eps, stream), n,
                                        seed=stream)
            w = np.random.default_rng(stream).normal(size=d)  # as lemma_d1_instance draws it
            m = lemma_d1_exact(spec, w, strengths, sd, eps)
            cov = m["zf"] - m["z"] * m["f"]
            var_ref = (m["f"] ** 2 * (m["zz"] - m["z"] ** 2) + m["z"] ** 2 * (m["ff"] - m["f"] ** 2)
                       + 2.0 * m["z"] * m["f"] * cov)
            z.append((res.estimate - m["zf"]) / math.sqrt((m["zzff"] - m["zf"] ** 2) / n))
            z.append((res.reference - m["z"] * m["f"]) / math.sqrt(var_ref / n))
            z.append((res.estimate - res.reference - cov) / res.se)
            w0.append(w[0])
    return np.asarray(z), np.asarray(w0)


def test_lemma_d1_matches_its_exact_moments():
    # Over seeds 0-39 of _lemma_z_scores the 36 z-scores read max |z|
    # 1.46-3.66 and mean z^2 0.57-1.81, so the bounds below sit past the
    # null spread. A dropped chunk and |w_0| replaced by w_0 in
    # lemma_d1_instance read max |z| past 100; every chunk seeded (seed)
    # rather than (seed, chunk) reads mean z^2 10.7 here and 2.8-10.7 over
    # seeds 0-9. w_0 < 0 in some configuration, so the sign of w_0 matters.
    z, w0 = _lemma_z_scores(0)
    assert z.size == 36 and (w0 < 0.0).any()
    assert np.abs(z).max() <= 4.5
    assert float(np.mean(z * z)) <= 2.2


def _lemma_bits(res):
    return np.asarray([res.estimate, res.reference, res.se])


def test_lemma_thread_count_does_not_change_results(monkeypatch):
    # 150k samples span three chunks, reduced in chunk order at any thread count
    f, draw = lemma_d1_instance(LOGISTIC, _sampler(), 0.1, seed=3)
    got = {}
    for threads in ("1", "4"):
        monkeypatch.setenv("ATTRSPARSE_THREADS", threads)
        got[threads] = check_lemma_exp_bound(f, draw, 150_000, seed=9)
    np.testing.assert_array_equal(_lemma_bits(got["1"]), _lemma_bits(got["4"]))
    assert got["1"].passed == got["4"].passed


def test_lemma_sampler_is_never_asked_for_more_than_a_chunk():
    sizes = []
    base = _zv_sampler((0.6, 0.3))

    def sampler(m, rng):
        sizes.append(m)
        return base(m, rng)

    check_lemma_exp_bound(lambda z, v: -z, sampler, 150_000, seed=0)
    assert max(sizes) <= theory._CHUNK < 150_000
    assert sum(sizes) == 150_000


@pytest.mark.parametrize("offset, gap_tol, se_rtol", [(0.0, 1e-15, 1e-14),
                                                      (1e3, 1e-12, 1e-8)])
def test_lemma_moments_match_two_pass_formula(monkeypatch, offset, gap_tol, se_rtol):
    # One in-memory sample, handed out in order, against the centred two-pass
    # estimator. The raw moments lose digits to cancellation as Z moves off
    # 0. Measured on this sample: at offset 0 the gap differs by 5.6e-17 and
    # the SE by 4.1e-16 relative; at offset 1e3 by 1.5e-14 and 9.5e-10.
    monkeypatch.setenv("ATTRSPARSE_THREADS", "1")
    n = 150_000
    rng = np.random.default_rng(12)
    y = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
    z = offset + 0.6 * y + rng.normal(size=n)
    v = rng.normal(size=n)
    fv = LOGISTIC.gprime(0.3 - (z - offset) - 0.4 * v)
    cursor = [0]

    def sampler(m, _rng):
        lo = cursor[0]
        cursor[0] += m
        return z[lo:lo + m], np.arange(lo, lo + m), y[lo:lo + m]

    res = check_lemma_exp_bound(lambda zz, idx: fv[idx], sampler, n)
    z_mean, f_mean = z.mean(), fv.mean()
    centered = (z - z_mean) * (fv - f_mean)
    assert res.estimate == pytest.approx((z * fv).mean(), rel=1e-15)
    assert res.reference == pytest.approx(z_mean * f_mean, rel=1e-15)
    assert abs((res.estimate - res.reference) - centered.mean()) <= gap_tol
    assert res.se == pytest.approx(centered.std(ddof=1) / np.sqrt(n), rel=se_rtol)
    assert res.passed


def test_lemma_constant_non_dyadic_z_and_f_is_equality():
    res = check_lemma_exp_bound(lambda z, v: np.full_like(z, 0.7),
                                lambda m, rng: (np.full(m, 0.3), None, None), 150_000)
    assert res.passed
    assert abs(res.estimate - res.reference) <= 1e-15


# --- exact identity ----------------------------------------------------------------

def test_attribution_shift_norm_hand_value():
    spec = LOGISTIC
    shift = one_row(attribution_shift_norm, spec, [1.0], [0.0], 1.0, [-0.3])
    assert shift == pytest.approx(G_LOG_03 - LN2, abs=1e-15)
    assert one_row(attribution_shift_norm, spec, [1.0, 2.0], [0.5, -0.5], -1.0,
                   np.zeros(2)) == 0.0


def test_identity_hand_case_and_fuzz():
    assert one_row(check_theorem3_identity, LOGISTIC, [1.0], [0.0], 1.0, 0.3) <= 1e-15
    rng = np.random.default_rng(7)
    for kind in LOSS_KINDS:
        spec = make_loss(kind)
        for _ in range(200):
            d = int(rng.integers(1, 9))
            w = rng.normal(size=d)
            x = rng.normal(size=d)
            y = 1.0 if rng.uniform() < 0.5 else -1.0
            eps = float(rng.uniform(0.0, 1.0))
            assert one_row(check_theorem3_identity, spec, w, x, y, eps) <= 1e-12


def test_closed_form_perturbation_maximizes_attribution_shift():
    rng = np.random.default_rng(8)
    for _ in range(100):
        d = int(rng.integers(1, 7))
        w = rng.normal(size=d)
        x = rng.normal(size=d)
        y = 1.0 if rng.uniform() < 0.5 else -1.0
        eps = float(rng.uniform(0.05, 0.8))
        best = one_row(attribution_shift_norm, LOGISTIC, w, x, y, -y * np.sign(w) * eps)
        for _ in range(20):
            delta = rng.uniform(-eps, eps, size=d)
            assert one_row(attribution_shift_norm, LOGISTIC, w, x, y, delta) <= best + 1e-12
        corner = eps * np.where(rng.uniform(size=d) < 0.5, 1.0, -1.0)
        assert one_row(attribution_shift_norm, LOGISTIC, w, x, y, corner) <= best + 1e-12


# --- the batched identity against the per-instance formulas ------------------------

def _shift_norm_reference(spec, w, x, y, delta):
    """attribution_shift_norm coded one 1-d instance at a time."""
    wl = -y * w
    denom = float(delta @ wl)
    f0 = float(spec.g(np.asarray(x @ wl)))
    f1 = float(spec.g(np.asarray((x + delta) @ wl)))
    if denom == 0.0:
        assert f0 == f1
        return 0.0
    return float(np.abs((f1 - f0) * (delta * wl) / denom).sum())


def _identity_reference(spec, w, x, y, eps):
    """check_theorem3_identity coded one 1-d instance at a time."""
    delta = -y * np.sign(w) * eps
    natural = float(spec.g(np.asarray(-y * (x @ w))))
    lhs = natural + _shift_norm_reference(spec, w, x, y, delta)
    rhs = float(spec.g(np.asarray(eps * np.abs(w).sum() - y * (x @ w))))
    return abs(lhs - rhs)


def _identity_rows(d, m=300):
    """Random instances plus edge rows: eps = 0, exact zero weights, all-zero
    weights, and hinge kinks of the natural and of the worst-case margin."""
    rng = np.random.default_rng(100 + d)
    W = rng.normal(size=(m, d))
    X = rng.normal(size=(m, d))
    y = np.where(rng.uniform(size=m) < 0.5, 1.0, -1.0)
    eps = rng.uniform(size=m)
    eps[:20] = 0.0
    W[20:60][rng.uniform(size=(40, d)) < 0.5] = 0.0
    W[60:70] = 0.0
    W[70:90] = 0.0
    W[70:90, 0] = 1.0
    X[70:80, 0] = y[70:80]              # -y<x, w> = -1: natural loss at the kink
    X[80:90, 0] = 1.5 * y[80:90]
    eps[80:90] = 0.5                    # eps|w|_1 - y<x, w> = -1: worst case at the kink
    return W, X, y, eps


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", range(1, 13))
def test_batched_identity_matches_per_row_formula_bitwise(d):
    W, X, y, eps = _identity_rows(d)
    D = -y[:, None] * np.sign(W) * eps[:, None]
    rows = list(zip(W, X, y, eps, D))
    for kind in LOSS_KINDS:
        spec = make_loss(kind)
        got = check_theorem3_identity(spec, W, X, y, eps)
        want = [_identity_reference(spec, w, x, t, e) for w, x, t, e, _ in rows]
        assert _same_bits(got, want), kind
        shift = attribution_shift_norm(spec, W, X, y, D)
        assert _same_bits(shift, [_shift_norm_reference(spec, w, x, t, dl)
                                  for w, x, t, _, dl in rows]), kind
        # a (1, d) block is the one-row case
        assert _same_bits(one_row(check_theorem3_identity, spec, W[85], X[85], y[85], eps[85]),
                          want[85])
        assert _same_bits(one_row(attribution_shift_norm, spec, W[0], X[0], y[0], D[0]), 0.0)
    # the kink rows sit exactly at the hinge's kink z = -1
    assert np.all(-y[70:80] * X[70:80, 0] == -1.0)
    assert np.all(eps[80:90] - y[80:90] * X[80:90, 0] == -1.0)


def test_theorem3_instances_follow_the_per_trial_stream():
    groups = theorem3_instances(300, seed=5)
    rng = np.random.default_rng(5)
    rows = {}
    for _ in range(300):
        d = int(rng.integers(2, 12))
        w = rng.normal(0.0, 1.0, size=d)
        x = rng.normal(0.0, 1.0, size=d)
        y = 1.0 if rng.uniform() < 0.5 else -1.0
        rows.setdefault(d, []).append((w, x, y, float(rng.uniform(0.0, 1.0))))
    assert list(groups) == sorted(rows)
    for d, (W, X, y, eps) in groups.items():
        assert W.shape == X.shape == (len(rows[d]), d)
        for k, (w, x, t, e) in enumerate(rows[d]):
            assert _same_bits(W[k], w) and _same_bits(X[k], x)
            assert y[k] == t and eps[k] == e


def test_theorem1_bound_instances_follow_their_own_streams():
    got = list(theorem1_bound_instances(4, seed=3))
    assert len(got) == 4
    for k, (strengths, w, subset, check_seed) in enumerate(got):
        rng = np.random.default_rng([3, k])
        assert strengths == tuple(rng.uniform(-0.8, 0.8, size=6).tolist())
        assert _same_bits(w, rng.normal(0.0, 1.0, size=6))
        size = int(rng.integers(1, 7))
        assert subset == tuple(sorted(rng.choice(6, size=size, replace=False).tolist()))
        assert check_seed == 3 * 100_003 + k


def test_lemma_d1_instance_draws_z_v_and_a_non_increasing_f():
    sampler = _sampler((0.6, 0.3, -0.2))
    f, draw = lemma_d1_instance(LOGISTIC, sampler, 0.1, seed=4)
    z, v, y = draw(1000, np.random.default_rng(0))
    X, y_ref = sampler.sample(1000, np.random.default_rng(0))
    assert _same_bits(y, y_ref)
    assert _same_bits(z, y * X[:, 0]) and _same_bits(v, y[:, None] * X[:, 1:])
    w = np.random.default_rng(4).normal(0.0, 1.0, size=3)
    want = LOGISTIC.gprime(0.1 * np.abs(w).sum() - abs(w[0]) * z - v @ w[1:])
    assert _same_bits(f(z, v), want)
    assert np.all(f(z + 0.5, v) <= f(z, v))


# --- in-place Monte-Carlo statistics against the formulas they replace --------------

def _sample_reference(s, m, rng):
    """SyntheticConditionalSampler.sample as one expression per step."""
    a = np.asarray(s.strengths)
    y = np.where(rng.uniform(size=m) < s.class_balance, 1.0, -1.0)
    if s.noise_kind == "gaussian":
        noise = rng.normal(0.0, s.noise_sd, size=(m, a.size))
    else:
        noise = rng.uniform(-s.noise_sd, s.noise_sd, size=(m, a.size))
    return a * y[:, None] + noise, y


@pytest.mark.parametrize("kw", [
    {},
    {"noise_kind": "uniform", "noise_sd": 0.5, "class_balance": 0.3},
], ids=["gaussian", "uniform"])
@pytest.mark.parametrize("m", [1, 1000, 40_000, 1 << 16])
def test_sampler_matches_reference_bitwise(kw, m):
    # 1 << 16 is one full Monte-Carlo chunk: four row blocks of the draw
    s = _sampler(**kw)
    X, y = s.sample(m, np.random.default_rng(9))
    X_ref, y_ref = _sample_reference(s, m, np.random.default_rng(9))
    assert _same_bits(X, X_ref) and _same_bits(y, y_ref)
    # column-major: the transposed view of a (d, m) array, one contiguous column per feature
    assert X.shape == (m, s.dim) and X.T.flags.c_contiguous


def _mc_reference(stat, n, seed, width):
    """Means and SEs of stat's columns over chunks of 1 << 16 samples seeded
    (seed, chunk): each statistic is copied out as its own contiguous column
    and summed there, and so is its square."""
    total, total_sq = np.zeros(width), np.zeros(width)
    for ci, lo in enumerate(range(0, n, 1 << 16)):
        stats = stat(np.random.default_rng([seed, ci]), min(lo + (1 << 16), n) - lo)
        for j in range(width):
            col = np.array(stats[:, j], order="C")
            total[j] += col.sum()
            total_sq[j] += (col * col).sum()
    mean = total / n
    return mean, np.sqrt(np.maximum(total_sq / n - mean * mean, 0.0) / n)


def _slope_reference(spec, w, eps, X, y):
    return spec.gprime(eps * np.abs(w).sum() - y * (X @ w))


@pytest.mark.parametrize("w", [[0.7], [0.3, -0.2, 0.0, 0.4, 0.1]], ids=["d1", "d5"])
def test_expected_update_matches_reference_bitwise(w):
    w = np.asarray(w)
    s = _sampler(strengths=(0.8, -0.5, 0.3, 0.0, 0.1)[:w.size])
    shift = np.sign(w) * 0.1

    def stat(rng, m):
        X, y = s.sample(m, rng)
        gp = _slope_reference(LOGISTIC, w, 0.1, X, y)
        return gp[:, None] * (y[:, None] * X - shift[None, :])

    got = expected_update(LOGISTIC, w, 0.1, s, 140_000, seed=4)
    want = _mc_reference(stat, 140_000, 4, w.size)
    assert all(_same_bits(g, r) for g, r in zip(got, want))


@pytest.mark.parametrize("eps", [0.0, 0.15])
@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_expected_update_is_minus_the_training_gradient(kind, eps):
    # On one Monte-Carlo chunk, the expected update is the linear training
    # engine's weight gradient on the same draw, negated and averaged; the
    # zero weight keeps sign(0) = 0 out of the eps-box term on both sides.
    # thm1-bound's estimate is the same update weighted over S, in S's order.
    spec = make_loss(kind)
    w = np.asarray([0.6, 0.0, -0.4, 0.25, -0.1])
    s = _sampler()
    n, seed = 20_000, 5
    mean, _ = expected_update(spec, w, eps, s, n, seed=seed)
    X, y = s.sample(n, np.random.default_rng([seed, 0]))
    _, (grad,), _ = linear_loss_and_grads(spec, w[None], None, X, y, eps)
    want = -grad[0] / n
    assert np.all(np.abs(mean - want) <= 1e-12 * np.abs(want).max())
    subset = [3, 0, 1, 4]
    bound = check_theorem1_bound(spec, w, subset, eps, s, n, seed=seed)
    weighted = float(w[subset] @ want[subset] / np.abs(w[subset]).sum())
    assert abs(bound.estimate - weighted) <= 1e-12 * abs(weighted)


def test_theorem1_bound_matches_reference_bitwise():
    w = np.asarray([0.9, -0.4, 0.3, 0.2, -1.1, 0.5])
    idx = [4, 0, 2]
    s = _sampler(strengths=(0.6, 0.3, -0.2, 0.1, 0.4, -0.5))
    denom = np.abs(w[idx]).sum()
    abar = float((w[idx] * np.asarray(s.strengths)[idx]).sum() / denom)

    def stat(rng, m):
        X, y = s.sample(m, rng)
        gp = _slope_reference(LOGISTIC, w, 0.2, X, y)
        upd = gp[:, None] * (y[:, None] * X[:, idx] - (np.sign(w) * 0.2)[idx][None, :])
        sv = (upd * w[idx][None, :]).sum(axis=1) / denom
        b = gp * (abar - 0.2)
        return np.stack([sv, b, sv - b], axis=1)

    mean, se = _mc_reference(stat, 140_000, 8, 3)
    res = check_theorem1_bound(LOGISTIC, w, (4, 0, 2), 0.2, s, 140_000, seed=8)
    assert _same_bits([res.estimate, res.reference, res.se], [mean[0], mean[1], se[2]])


def test_checks_need_enough_samples():
    s = _sampler(strengths=(0.1, 0.2))
    with pytest.raises(ValueError, match="10000"):
        check_theorem1_bound(LOGISTIC, np.asarray([1.0, 0.5]), (0,), 0.1, s, 9_999)
    with pytest.raises(ValueError, match="10000"):
        check_lemma_exp_bound(lambda z, v: -z, _zv_sampler((0.6, 0.3)), 5)


# --- infrastructure -----------------------------------------------------------------

def test_thread_count_does_not_change_estimates(monkeypatch):
    # 150k samples span three chunks; reduction order is fixed by chunk index
    sampler = _sampler()
    w = np.asarray([0.3, -0.2, 0.1, 0.0, 0.4])
    monkeypatch.setenv("ATTRSPARSE_THREADS", "4")
    m1, s1 = expected_update(LOGISTIC, w, 0.1, sampler, 150_000, seed=6)
    monkeypatch.setenv("ATTRSPARSE_THREADS", "1")
    m2, s2 = expected_update(LOGISTIC, w, 0.1, sampler, 150_000, seed=6)
    np.testing.assert_array_equal(m1, m2)
    np.testing.assert_array_equal(s1, s2)


def test_chunks_in_flight_stay_within_two_per_thread(monkeypatch):
    # Chunk 0 holds its thread until all 40 chunks have started, or for
    # 0.3 s. With every chunk submitted at once the other thread starts all
    # of them in that time; with a window, none past the first 2 x 2 until
    # chunk 0 is reduced. Each chunk is known by its seed words (seed, index).
    monkeypatch.setenv("ATTRSPARSE_THREADS", "2")
    started, lock, live = [], threading.Lock(), []

    def stat(rng, m):
        index = rng.bit_generator.seed_seq.entropy[1]
        with lock:
            started.append(index)
        if index == 0:
            deadline = time.monotonic() + 0.3
            while len(started) < 40 and time.monotonic() < deadline:
                time.sleep(0.005)
            live.append(len(started))
        return np.ones((m, 1))

    mean, mean_sq = theory._mc_moments(stat, 40 * theory._CHUNK, seed=0)
    assert mean[0] == mean_sq[0] == 1.0 and sorted(started) == list(range(40))
    assert live[0] <= 4


def test_sampler_with_zero_noise_matches_reference_bitwise():
    # numpy's normal adds its zero loc, so a zero noise_sd gives +0.0 noise
    # and a zero strength gives +0.0 features for both labels
    for kind in ("gaussian", "uniform"):
        s = _sampler(strengths=(0.0, 0.5), noise_sd=0.0, noise_kind=kind)
        X, y = s.sample(5_000, np.random.default_rng(2))
        X_ref, y_ref = _sample_reference(s, 5_000, np.random.default_rng(2))
        assert _same_bits(X, X_ref) and _same_bits(y, y_ref), kind


def test_sampler_draws_share_no_memory():
    s = _sampler()
    first = s.sample(1000, np.random.default_rng(0))
    second = s.sample(1000, np.random.default_rng(0))
    assert not np.shares_memory(*first)
    assert not any(np.shares_memory(a, b) for a in first for b in second)


def _one_check(check, n, seed=1):
    """A Monte-Carlo check on d = 3 as a flat vector of its result bits."""
    s = _sampler(strengths=(0.6, 0.3, -0.2))
    if check == "thm1-zero":
        return np.concatenate(expected_update(LOGISTIC, np.asarray([0.4, 0.0, -0.3]), 0.1,
                                              s, n, seed=seed))
    if check == "thm1-bound":
        res = check_theorem1_bound(LOGISTIC, np.asarray([0.9, -0.4, 0.3]), (2, 0), 0.2, s, n,
                                   seed=seed)
    else:
        f, draw = lemma_d1_instance(LOGISTIC, s, 0.1, seed=seed)
        res = check_lemma_exp_bound(f, draw, n, seed=seed)
    return np.asarray([res.estimate, res.reference, res.se])


@pytest.mark.parametrize("threads", ["1", "4"])
def test_a_chunk_that_raises_propagates_its_error(monkeypatch, threads):
    monkeypatch.setenv("ATTRSPARSE_THREADS", threads)
    s = _sampler()

    def draw(m, rng):
        s.sample(m, rng)
        raise RuntimeError("bad draw")

    with pytest.raises(RuntimeError, match="bad draw"):
        check_lemma_exp_bound(lambda z, v: -z, draw, 150_000)


def test_repeated_checks_keep_every_thread_count_bit_identical(monkeypatch):
    # 4, then 1, then 4 threads in one process; more threads than cores and
    # a short switch interval would show two chunks writing one array
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = []
        for threads in ("4", "1", "4"):
            monkeypatch.setenv("ATTRSPARSE_THREADS", threads)
            got.append(np.concatenate([_one_check(c, 200_000, seed=7)
                                       for c in ("thm1-zero", "thm1-bound", "lemmaD1")]))
    finally:
        sys.setswitchinterval(interval)
    assert _same_bits(got[0], got[1]) and _same_bits(got[0], got[2])


def test_sampler_validation_and_uniform_support():
    with pytest.raises(ValueError, match="noise kind"):
        SyntheticConditionalSampler(strengths=(0.1,), noise_kind="laplace")
    with pytest.raises(ValueError, match="class_balance"):
        SyntheticConditionalSampler(strengths=(0.1,), class_balance=1.0)
    for strengths in ((), (0.1, np.nan), (np.inf, 0.2)):
        with pytest.raises(ValueError, match="strengths must be one or more finite numbers"):
            SyntheticConditionalSampler(strengths=strengths)
    # noise_sd = 0 stays valid: it makes the exact zero-weight case
    for noise_sd in (np.nan, np.inf, -0.5):
        with pytest.raises(ValueError, match="noise_sd must be a finite number >= 0"):
            SyntheticConditionalSampler(strengths=(0.1,), noise_sd=noise_sd)
    s = SyntheticConditionalSampler(strengths=(0.5, -0.2), noise_sd=0.3,
                                    noise_kind="uniform")
    X, y = s.sample(5_000, np.random.default_rng(0))
    assert set(np.unique(y)) == {-1.0, 1.0}
    residual = X - np.asarray(s.strengths) * y[:, None]
    assert np.all(np.abs(residual) <= 0.3)
