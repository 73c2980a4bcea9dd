"""Monte-Carlo guarantee checks: exact degenerate statistics, quadrature
oracles, the conditional-expectation bound, and the exact loss identity."""
import numpy as np
import pytest

from attrsparse.losses import LOSS_KINDS, make_loss
from attrsparse.theory import (
    SyntheticConditionalSampler,
    WeightedAverageSpec,
    attribution_shift_norm,
    check_lemma_exp_bound,
    check_theorem1_bound,
    check_theorem1_limit,
    check_theorem3_identity,
    expected_update,
    verify_zero_weight_update,
    weighted_average,
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


def test_expected_update_matches_quadrature_oracle():
    # d = 1 reduces to a Gaussian integral; Gauss-Hermite nodes give an
    # independent high-precision reference for the Monte-Carlo estimate
    w, a, eps, sd = 0.7, 0.4, 0.1, 1.0
    nodes, weights = np.polynomial.hermite_e.hermegauss(201)
    weights = weights / weights.sum()
    margin = eps * abs(w) - w * (a + sd * nodes)
    oracle = float((weights * LOGISTIC.gprime(margin)
                    * (a + sd * nodes - np.sign(w) * eps)).sum())
    sampler = _sampler(strengths=(a,), noise_sd=sd)
    mean, se = expected_update(LOGISTIC, np.asarray([w]), eps, sampler, 400_000, seed=1)
    assert abs(float(mean[0]) - oracle) <= 4.0 * float(se[0])
    assert float(se[0]) < 0.01


def test_weighted_average_hand_value_and_validation():
    wspec = WeightedAverageSpec(indices=(0, 2), w=np.asarray([2.0, -1.0, 3.0]))
    assert weighted_average(np.asarray([1.0, 2.0, 3.0]), wspec) == pytest.approx(2.2, abs=1e-15)
    with pytest.raises(ValueError, match="non-empty"):
        WeightedAverageSpec(indices=(), w=np.asarray([1.0]))
    with pytest.raises(ValueError, match="vanish"):
        WeightedAverageSpec(indices=(1,), w=np.asarray([1.0, 0.0]))


def test_bound_holds_across_random_configurations():
    rng = np.random.default_rng(0)
    for k in range(5):
        d = 6
        strengths = tuple(rng.uniform(-0.8, 0.8, size=d).tolist())
        w = rng.normal(size=d)
        size = int(rng.integers(1, d + 1))
        idx = tuple(sorted(rng.choice(d, size=size, replace=False).tolist()))
        wspec = WeightedAverageSpec(indices=idx, w=w)
        sampler = _sampler(strengths=strengths)
        res = check_theorem1_bound(LOGISTIC, wspec, 0.1, sampler, 50_000, seed=k)
        assert res.passed, f"config {k}: {res.estimate} > {res.reference} + 3*{res.se}"
        assert res.estimate <= res.reference + 3.0 * res.se
        assert "abar=" in res.detail


def test_limit_residual_shrinks_with_weight_scale():
    rng = np.random.default_rng(3)
    wspec = WeightedAverageSpec(indices=(0, 1, 2), w=rng.normal(size=4))
    sampler = _sampler(strengths=(0.6, 0.3, -0.2, 0.1))
    results = check_theorem1_limit(LOGISTIC, wspec, 0.1, sampler, 100_000, seed=0)
    assert len(results) == 4
    assert all(r.passed for r in results)
    assert results[0].check_id == "limit-equality[scale=1]"
    assert results[-1].check_id == "limit-equality[scale=0.001]"
    # at vanishing weights the update equals its bound up to sampling noise
    assert results[-1].estimate < results[0].estimate
    assert results[-1].estimate <= 3.0 * results[-1].se + 1e-12


# --- conditional-expectation bound ------------------------------------------------

def _zv_sampler(strengths, f_strength=0.0, **kw):
    base = SyntheticConditionalSampler(strengths=strengths, **kw)

    def sample(n, rng):
        X, y = base.sample(n, rng)
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
    shared = _zv_sampler((0.6, 0.3, -0.2, 0.1),
                         shared_factor_indices=(1, 2, 3), shared_factor_weight=0.7)
    res2 = check_lemma_exp_bound(f, shared, 100_000, seed=0)
    assert res2.passed


# --- exact identity ----------------------------------------------------------------

def test_attribution_shift_norm_hand_value():
    spec = LOGISTIC
    shift = attribution_shift_norm(spec, np.asarray([1.0]), np.asarray([0.0]),
                                   1.0, np.asarray([-0.3]))
    assert shift == pytest.approx(G_LOG_03 - LN2, abs=1e-15)
    assert attribution_shift_norm(spec, np.asarray([1.0, 2.0]), np.asarray([0.5, -0.5]),
                                  -1.0, np.zeros(2)) == 0.0


def test_identity_hand_case_and_fuzz():
    assert check_theorem3_identity(LOGISTIC, np.asarray([1.0]), np.asarray([0.0]),
                                   1.0, 0.3) <= 1e-15
    rng = np.random.default_rng(7)
    for kind in LOSS_KINDS:
        spec = make_loss(kind)
        for _ in range(200):
            d = int(rng.integers(1, 9))
            w = rng.normal(size=d)
            x = rng.normal(size=d)
            y = 1.0 if rng.uniform() < 0.5 else -1.0
            eps = float(rng.uniform(0.0, 1.0))
            assert check_theorem3_identity(spec, w, x, y, eps) <= 1e-12


def test_closed_form_perturbation_maximizes_attribution_shift():
    rng = np.random.default_rng(8)
    for _ in range(100):
        d = int(rng.integers(1, 7))
        w = rng.normal(size=d)
        x = rng.normal(size=d)
        y = 1.0 if rng.uniform() < 0.5 else -1.0
        eps = float(rng.uniform(0.05, 0.8))
        best = attribution_shift_norm(LOGISTIC, w, x, y, -y * np.sign(w) * eps)
        for _ in range(20):
            delta = rng.uniform(-eps, eps, size=d)
            assert attribution_shift_norm(LOGISTIC, w, x, y, delta) <= best + 1e-12
        corner = eps * np.where(rng.uniform(size=d) < 0.5, 1.0, -1.0)
        assert attribution_shift_norm(LOGISTIC, w, x, y, corner) <= best + 1e-12


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


def test_sampler_validation_and_uniform_support():
    with pytest.raises(ValueError, match="noise kind"):
        SyntheticConditionalSampler(strengths=(0.1,), noise_kind="laplace")
    with pytest.raises(ValueError, match="class_balance"):
        SyntheticConditionalSampler(strengths=(0.1,), class_balance=1.0)
    s = SyntheticConditionalSampler(strengths=(0.5, -0.2), noise_sd=0.3,
                                    noise_kind="uniform")
    X, y = s.sample(5_000, np.random.default_rng(0))
    assert set(np.unique(y)) == {-1.0, 1.0}
    residual = X - np.asarray(s.strengths) * y[:, None]
    assert np.all(np.abs(residual) <= 0.3)
