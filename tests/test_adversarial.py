"""Worst-case perturbations: the exact linear references against brute
force and the training engine, PGD convergence and determinism."""
import itertools
from dataclasses import replace

import numpy as np
import pytest

from attrsparse.adversarial import (
    PgdConfig,
    default_pgd_config,
    pgd_perturb_batch,
)
from attrsparse.data import blob_sampler, generate_synthetic
from attrsparse.losses import LOSS_KINDS, linear_loss_and_grads, make_loss, worst_case_slope
from attrsparse.models import LinearModel, MlpModel, init_mlp
from attrsparse.training import TrainConfig, train
from helpers import adversarial_loss, closed_form_perturbation, loss, pgd_clip_reference

LOG1PE = 1.3132616875182228  # ln(1 + e)


def test_closed_form_signs():
    model = LinearModel(w=np.asarray([2.0, -1.0, 0.0]))
    np.testing.assert_array_equal(
        closed_form_perturbation(model, 1.0, 0.5), [-0.5, 0.5, 0.0])
    np.testing.assert_array_equal(
        closed_form_perturbation(model, -1.0, 0.5), [0.5, -0.5, -0.0])
    batch = closed_form_perturbation(model, np.asarray([1.0, -1.0]), 0.5)
    assert batch.shape == (2, 3)
    np.testing.assert_array_equal(np.abs(batch[0]), np.abs(batch[1]))


def test_adversarial_loss_hand_value():
    spec = make_loss("logistic-nll")
    model = LinearModel(w=np.asarray([1.0]))
    # margin 0, budget 1: worst case loss g(1) = ln(1 + e)
    val = adversarial_loss(spec, model, np.asarray([0.0]), 1.0, 1.0)
    assert float(val) == pytest.approx(LOG1PE, abs=1e-15)


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_adversarial_loss_equals_loss_at_closed_form(kind):
    spec = make_loss(kind)
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = int(rng.integers(1, 8))
        model = LinearModel(w=rng.normal(size=d))
        x = rng.normal(size=d)
        y = 1.0 if rng.uniform() < 0.5 else -1.0
        eps = float(rng.uniform(0, 1))
        delta = closed_form_perturbation(model, y, eps)
        lhs = float(adversarial_loss(spec, model, x, y, eps))
        rhs = float(loss(spec, model, x + delta, y))
        assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_closed_form_is_corner_maximum(kind):
    # brute force every corner of the box; the closed form must win
    spec = make_loss(kind)
    rng = np.random.default_rng(1)
    for _ in range(100):
        d = int(rng.integers(1, 7))
        model = LinearModel(w=rng.normal(size=d))
        x = rng.normal(size=d)
        y = 1.0 if rng.uniform() < 0.5 else -1.0
        eps = float(rng.uniform(0.01, 1.0))
        best = -np.inf
        for corner in itertools.product((-eps, eps), repeat=d):
            best = max(best, float(loss(spec, model, x + np.asarray(corner), y)))
        closed = float(adversarial_loss(spec, model, x, y, eps))
        assert closed == pytest.approx(best, abs=1e-12)
        assert closed >= best - 1e-12


def test_adversarial_loss_batch_and_gradient_shapes():
    spec = make_loss("logistic-nll")
    rng = np.random.default_rng(2)
    model = LinearModel(w=rng.normal(size=4))
    X = rng.normal(size=(6, 4))
    y = np.where(rng.uniform(size=6) < 0.5, 1.0, -1.0)
    vals = adversarial_loss(spec, model, X, y, 0.2)
    losses, (grad_sum,), _ = linear_loss_and_grads(spec, model.w[None], None, X, y, 0.2)
    coeff = -(worst_case_slope(spec, model.w[None], None, X, y, 0.2)[1] * y)
    assert vals.shape == (6,)
    assert losses.shape == (1, 6) and grad_sum.shape == (1, 4) and coeff.shape == (1, 6)
    np.testing.assert_allclose(losses[0], vals, rtol=1e-14)
    rows = [linear_loss_and_grads(spec, model.w[None], None, X[i:i + 1], y[i:i + 1], 0.2)[1][0][0]
            for i in range(6)]
    np.testing.assert_allclose(np.sum(rows, axis=0), grad_sum[0], rtol=1e-12, atol=1e-15)
    for i in range(6):
        assert float(adversarial_loss(spec, model, X[i], y[i], 0.2)) == \
            pytest.approx(float(vals[i]), rel=1e-14)


@pytest.mark.parametrize("kind", ["logistic-nll", "softplus-hinge"])
def test_adversarial_gradient_matches_fd(kind):
    spec = make_loss(kind)
    rng = np.random.default_rng(3)
    w = rng.normal(size=5)
    # keep coordinates away from 0 so sign(w) is FD-stable
    w = np.sign(w) * (np.abs(w) + 0.1)
    x = rng.normal(size=5)
    y = -1.0
    _, (grad,), _ = linear_loss_and_grads(spec, w[None], None, x[None, :], np.asarray([y]),
                                          np.asarray([0.3]))
    grad = grad[0]
    h = 1e-7
    fd = np.empty(5)
    for i in range(5):
        wp, wm = w.copy(), w.copy()
        wp[i] += h
        wm[i] -= h
        fd[i] = (float(adversarial_loss(spec, LinearModel(w=wp), x, y, 0.3))
                 - float(adversarial_loss(spec, LinearModel(w=wm), x, y, 0.3))) / (2 * h)
    np.testing.assert_allclose(grad, fd, atol=1e-5)


# --- PGD -------------------------------------------------------------------------

def _linear_mlp(w, bias=0.0):
    """The linear model <w, x> + bias as an MLP with no hidden layer, which
    PGD accepts."""
    w = np.asarray(w, dtype=float)
    return MlpModel(weights=[w[:, None]], biases=[np.asarray([bias])])


def test_pgd_rejects_linear_model():
    model = LinearModel(w=np.asarray([1.0, -2.0]))
    cfg = PgdConfig(steps=1)
    with pytest.raises(TypeError, match="PGD runs on an MlpModel, got LinearModel"):
        pgd_perturb_batch(model, np.zeros((1, 2)), np.ones(1), 0.1, cfg,
                          make_loss("logistic-nll"), np.random.default_rng(0))


def test_pgd_converges_to_linear_closed_form():
    spec = make_loss("logistic-nll")
    rng = np.random.default_rng(4)
    model = LinearModel(w=rng.normal(size=5))
    X = rng.normal(size=(8, 5))
    y = np.where(rng.uniform(size=8) < 0.5, 1.0, -1.0)
    # enough steps that every coordinate reaches its box face
    cfg = PgdConfig(steps=60, step_size=0.01)
    delta = pgd_perturb_batch(_linear_mlp(model.w), X, y, 0.2, cfg, spec,
                              np.random.default_rng(0))
    target = float(np.mean(adversarial_loss(spec, model, X, y, 0.2)))
    achieved = float(np.mean(spec.g(-y * model.margin(X + delta))))
    assert achieved == pytest.approx(target, abs=1e-9)
    # coordinates with nonzero weight sit exactly on the box face
    np.testing.assert_allclose(np.abs(delta), 0.2, atol=1e-12)


def test_pgd_projection_and_determinism():
    spec = make_loss("logistic-nll")
    rng = np.random.default_rng(5)
    model = init_mlp([6, 4, 1], rng)
    X = rng.normal(size=(5, 6))
    y = np.where(rng.uniform(size=5) < 0.5, 1.0, -1.0)
    # travel 0.25 < 2 * eps, so some coordinates end short of a face, where
    # their random start shows
    cfg = PgdConfig(steps=25, step_size=0.01)
    d1 = pgd_perturb_batch(model, X, y, 0.15, cfg, spec, np.random.default_rng(7))
    d2 = pgd_perturb_batch(model, X, y, 0.15, cfg, spec, np.random.default_rng(7))
    np.testing.assert_array_equal(d1, d2)
    assert np.all(np.abs(d1) <= 0.15 + 1e-15)
    d3 = pgd_perturb_batch(model, X, y, 0.15, cfg, spec, np.random.default_rng(8))
    assert not np.array_equal(d1, d3)


@pytest.mark.parametrize("loss_kind", ["logistic-nll", "softplus-hinge"])
def test_default_pgd_lands_on_the_linear_worst_case_vertex(loss_kind):
    # A model with no hidden layer has a constant gradient sign, so its exact
    # worst case is the vertex -y * sign(w) * eps (losses.worst_case_slope).
    # The default schedule's travel covers the box from any start, so every
    # coordinate with w_i != 0 ends on that vertex exactly. Hinge is left
    # out: its rows with g' = 0 do not move.
    spec = make_loss(loss_kind)
    rng = np.random.default_rng(21)
    d = 6
    for trial in range(4):
        w = rng.normal(size=d)
        w[trial % d] = 0.0
        model = _linear_mlp(w, bias=rng.normal())
        X = rng.normal(size=(25, d))
        y = np.where(rng.uniform(size=25) < 0.5, 1.0, -1.0)
        moves = w != 0.0
        for eps in (0.05, 0.1, 0.3, 1.0, 7.0):
            vertex = -y[:, None] * np.sign(w[moves]) * eps
            for start in range(3):
                delta = pgd_perturb_batch(model, X, y, eps, default_pgd_config(eps), spec,
                                          np.random.default_rng(start))
                assert np.array_equal(delta[:, moves], vertex), (trial, eps, start)


def test_default_pgd_is_close_to_a_long_attack_on_trained_mlps():
    # The training attack against a 200 x 0.005 reference on the test split
    # of small blob MLPs, natural and adversarial (eps = 0.1). Here the
    # default schedule reached at least 0.993 of the reference loss; at
    # eps = 0.3, 40 steps of 0.01, whose travel cannot cross the box, reached
    # about 0.82.
    spec = make_loss("logistic-nll")
    ds = generate_synthetic(blob_sampler(8, 8, strong_amplitude=0.69, weak_amplitude=0.085,
                                         blob_sigma=0.55, noise_sd=0.50), 600, 0)
    idx = ds.split("test")
    X, y = ds.features[idx], ds.labels[idx]
    base = TrainConfig(model_kind="mlp", hidden_sizes=(16,), epochs=6)
    reference = PgdConfig(steps=200, step_size=0.005)
    for cfg in (base, replace(base, regime="adversarial", epsilon=0.1)):
        model, _ = train(ds, spec, cfg)
        for eps in (0.1, 0.3):
            def attack_loss(pgd_cfg):
                delta = pgd_perturb_batch(model, X, y, eps, pgd_cfg, spec,
                                          np.random.default_rng(1))
                return float(np.mean(spec.g(-y * model.margin(X + delta))))

            assert attack_loss(default_pgd_config(eps)) >= 0.98 * attack_loss(reference), \
                (cfg.regime, eps)


def test_pgd_never_worse_than_start():
    spec = make_loss("logistic-nll")
    rng = np.random.default_rng(6)
    model = init_mlp([4, 3, 1], rng, hidden_activation="tanh")
    X = rng.normal(size=(10, 4))
    y = np.where(rng.uniform(size=10) < 0.5, 1.0, -1.0)
    cfg = PgdConfig(steps=5, step_size=0.05)
    for seed in range(3):
        delta = pgd_perturb_batch(model, X, y, 0.25, cfg, spec, np.random.default_rng(seed))
        rng_start = np.random.default_rng(seed)
        start = rng_start.uniform(-0.25, 0.25, size=X.shape)
        start_loss = spec.g(-y * model.margin(X + start))
        final_loss = spec.g(-y * model.margin(X + delta))
        assert np.all(final_loss >= start_loss - 1e-15)


def test_mlp_pgd_beats_random_noise():
    spec = make_loss("logistic-nll")
    rng = np.random.default_rng(8)
    model = init_mlp([6, 5, 1], rng)
    X = rng.normal(size=(40, 6))
    y = np.where(rng.uniform(size=40) < 0.5, 1.0, -1.0)
    cfg = default_pgd_config(0.3)
    delta = pgd_perturb_batch(model, X, y, 0.3, cfg, spec, np.random.default_rng(2))
    pgd_loss = float(np.mean(spec.g(-y * model.margin(X + delta))))
    noise = np.random.default_rng(3).uniform(-0.3, 0.3, size=X.shape)
    noise_loss = float(np.mean(spec.g(-y * model.margin(X + noise))))
    assert pgd_loss > noise_loss


def _pgd_model(kind, rng, d):
    if kind == "linear":
        return _linear_mlp(rng.normal(size=d), bias=0.3)
    model = init_mlp([d, 5, 3, 1], rng, hidden_activation=kind)
    model.biases = [rng.normal(size=b.shape) for b in model.biases]
    return model


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("kind", ["linear", "softplus", "tanh", "relu"])
def test_pgd_matches_clip_loop_bytewise(kind, eps):
    # Features on {0, 1/2, 1} with some -0.0, and eps = 0, make the clips
    # meet their bounds at signed zeros, where in-place np.maximum/np.minimum
    # and np.clip could round apart.
    rng = np.random.default_rng(11)
    d = 7
    model = _pgd_model(kind, rng, d)
    X = rng.integers(0, 3, size=(24, d)) / 2.0
    X[rng.uniform(size=X.shape) < 0.1] = -0.0
    y = np.where(rng.uniform(size=24) < 0.5, 1.0, -1.0)
    # one generator drives consecutive calls, as in training
    shared, shared_ref = np.random.default_rng(9), np.random.default_rng(9)
    for loss_kind in ("logistic-nll", "hinge", "softplus-hinge"):
        spec = make_loss(loss_kind)
        cfg = PgdConfig(steps=12, step_size=0.04)
        for _ in range(2):
            got = pgd_perturb_batch(model, X, y, eps, cfg, spec, shared)
            want = pgd_clip_reference(model, X, y, eps, cfg, spec, shared_ref)
            assert got.tobytes() == want.tobytes(), loss_kind  # signed zeros too


@pytest.mark.parametrize("loss_kind", ["logistic-nll", "hinge", "softplus-hinge"])
def test_pgd_follows_weights_updated_in_place(loss_kind):
    # Training updates the model's parameter arrays in place between calls,
    # as views of one buffer, so nothing PGD forms from the weights (the
    # output product -y * W_last above all) may outlive a call.
    spec = make_loss(loss_kind)
    rng = np.random.default_rng(13)
    model = init_mlp([6, 5, 1], rng)
    X = rng.normal(size=(30, 6))
    y = np.where(rng.uniform(size=30) < 0.5, 1.0, -1.0)
    cfg = PgdConfig(steps=8, step_size=0.05)
    shared, shared_ref = np.random.default_rng(5), np.random.default_rng(5)
    results = []
    for scale in (1.0, -1.5, 0.5):
        for W in model.weights:
            W *= scale
            W += 0.1 * rng.normal(size=W.shape)
        got = pgd_perturb_batch(model, X, y, 0.3, cfg, spec, shared)
        want = pgd_clip_reference(model, X, y, 0.3, cfg, spec, shared_ref)
        assert got.tobytes() == want.tobytes(), scale
        results.append(got)
    assert not np.array_equal(np.sign(results[0]), np.sign(results[1]))


def test_pgd_moves_rows_whose_slope_underflows():
    # A correctly classified row with a huge margin has g'(z) = 0 in floating
    # point (logistic: z below about -745). A step through g' leaves such a
    # row at its random start; the sign-only steps move it up the loss.
    spec = make_loss("logistic-nll")
    rng = np.random.default_rng(12)
    model = init_mlp([6, 5, 1], rng)
    model.weights[1] = 600.0 * model.weights[1]
    X = rng.normal(size=(40, 6))
    y = np.where(model.margin(X) >= 0, 1.0, -1.0)
    y[:5] *= -1.0  # a few misclassified rows too
    cfg, eps = PgdConfig(steps=10, step_size=0.02), 0.1
    got = pgd_perturb_batch(model, X, y, eps, cfg, spec, np.random.default_rng(1))
    want = pgd_clip_reference(model, X, y, eps, cfg, spec, np.random.default_rng(1))
    start = np.random.default_rng(1).uniform(-eps, eps, size=X.shape)
    z_start, z_want, z_got = (-y * model.margin(X + d) for d in (start, want, got))
    moved = np.any(got != want, axis=1)
    assert moved.sum() >= 3
    # only rows that the reference left at their start, with g' = 0, differ
    np.testing.assert_array_equal(want[moved], start[moved])
    assert np.all(spec.gprime(z_want[moved]) == 0.0)
    assert np.all(np.abs(got) <= eps)
    assert np.all(z_got[moved] > z_start[moved])
    assert np.all(spec.g(z_got) >= spec.g(z_start))


# --- configuration objects -------------------------------------------------------

def test_budget_and_config_validation():
    with pytest.raises(ValueError, match="steps"):
        PgdConfig(steps=0)
    with pytest.raises(ValueError, match="step_size"):
        PgdConfig(steps=1, step_size=0.0)


def test_default_pgd_step_counts():
    # 5 steps of eps / 2 for every eps > 0: travel 2.5 * eps covers the box
    for eps in (1e-323, 0.05, 0.1, 0.3, 9.91, 1e9):
        assert default_pgd_config(eps) == PgdConfig(steps=5, step_size=eps / 2)
    # the smallest subnormal halves to 0; its step is eps itself
    assert default_pgd_config(5e-324) == PgdConfig(steps=5, step_size=5e-324)
    with pytest.raises(ValueError, match="step_size"):
        default_pgd_config(0.0)

