"""Loss catalog: hand-computed values, calculus identities, shape behavior."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrsparse.losses import LOSS_KINDS, linear_loss_and_grads, make_loss, sigmoid, worst_case_slope
from attrsparse.models import LinearModel
from helpers import loss

LN2 = 0.6931471805599453
GRID = np.linspace(-10.0, 10.0, 401)


# --- hand-computed point values -------------------------------------------

def test_logistic_values():
    spec = make_loss("logistic-nll")
    assert spec.g(np.asarray(0.0)) == pytest.approx(LN2, abs=1e-15)
    assert spec.g(np.asarray(0.1)) == pytest.approx(0.744396660073571, abs=1e-15)
    assert spec.gprime(np.asarray(0.0)) == 0.5
    assert spec.gprime(np.asarray(1.0)) == pytest.approx(0.7310585786300049, abs=1e-15)


def test_hinge_values():
    spec = make_loss("hinge")
    assert spec.g(np.asarray(0.0)) == 1.0
    assert spec.g(np.asarray(-1.0)) == 0.0
    assert spec.g(np.asarray(-2.0)) == 0.0
    assert spec.g(np.asarray(2.0)) == 3.0
    # kink convention: derivative 0 exactly at the kink, 1 just past it
    assert spec.gprime(np.asarray(-1.0)) == 0.0
    assert spec.gprime(np.asarray(-0.999)) == 1.0
    assert spec.gprime(np.asarray(-1.001)) == 0.0


def test_softplus_hinge_values():
    spec = make_loss("softplus-hinge")
    assert spec.g(np.asarray(0.0)) == pytest.approx(1.3132616875182228, abs=1e-15)
    assert spec.gprime(np.asarray(-1.0)) == 0.5  # sigmoid(0)
    assert spec.gprime(np.asarray(0.0)) == pytest.approx(0.7310585786300049, abs=1e-15)


def test_sigmoid_values_and_stability():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(3.0) == pytest.approx(0.9525741268224334, abs=1e-16)
    z = np.linspace(-8, 8, 33)
    np.testing.assert_allclose(sigmoid(-z), 1.0 - sigmoid(z), atol=1e-15)
    big = sigmoid(np.asarray([-1000.0, 1000.0]))
    assert np.all(np.isfinite(big))
    assert big[0] == 0.0 and big[1] == 1.0


def test_sigmoid_matches_two_branch_reference_bitwise():
    def two_branch(z):
        z = np.asarray(z, dtype=float)
        e = np.exp(-np.abs(z))
        return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    rng = np.random.default_rng(20)
    z = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0, 36.7, -36.7, 745.2, -745.2],
        rng.normal(size=100_000), 20.0 * rng.normal(size=100_000)])
    got, want = sigmoid(z), two_branch(z)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    assert np.isnan(got[4]) and got[2] == 1.0 and got[3] == 0.0
    for scalar in (0.0, -0.0, 3.0, -3.0, np.inf, -np.inf):
        assert float(sigmoid(scalar)) == float(two_branch(scalar))


# --- calculus and shape properties -----------------------------------------

@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_monotone_convex_on_grid(kind):
    spec = make_loss(kind)
    g = spec.g(GRID)
    gp = spec.gprime(GRID)
    assert np.all(np.diff(g) >= 0.0), "g must be non-decreasing"
    assert np.all(np.diff(gp) >= -1e-15), "g' must be non-decreasing (convexity)"
    assert np.all(g >= 0.0)
    assert np.all((gp >= 0.0) & (gp <= 1.0))


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_gprime_matches_finite_difference(kind):
    spec = make_loss(kind)
    h = 1e-6
    pts = GRID
    if kind == "hinge":  # FD is meaningless inside the kink's window
        pts = pts[np.abs(pts + 1.0) > 1e-3]
    fd = (spec.g(pts + h) - spec.g(pts - h)) / (2.0 * h)
    np.testing.assert_allclose(spec.gprime(pts), fd, atol=1e-6)


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_vectorized_matches_scalar(kind):
    spec = make_loss(kind)
    zs = np.asarray([-3.0, -1.0, 0.0, 0.5, 4.0])
    np.testing.assert_array_equal(spec.g(zs), [float(spec.g(np.asarray(z))) for z in zs])
    np.testing.assert_array_equal(spec.gprime(zs), [float(spec.gprime(np.asarray(z))) for z in zs])


def test_make_loss_alias_and_unknown():
    assert make_loss("logistic") is make_loss("logistic-nll")
    with pytest.raises(ValueError, match="unknown loss"):
        make_loss("quadratic")
    assert set(LOSS_KINDS) == {"logistic-nll", "hinge", "softplus-hinge"}


# --- per-example loss and weight gradient ----------------------------------

def test_loss_of_linear_model():
    spec = make_loss("logistic-nll")
    model = LinearModel(w=np.asarray([1.0, -2.0]))
    x = np.asarray([1.0, 0.5])  # margin 0
    assert float(loss(spec, model, x, 1.0)) == pytest.approx(LN2, abs=1e-15)
    X = np.asarray([[1.0, 0.5], [2.0, 0.0]])
    y = np.asarray([1.0, -1.0])
    vals = loss(spec, model, X, y)
    assert vals.shape == (2,)
    assert vals[1] == pytest.approx(float(spec.g(np.asarray(2.0))), abs=1e-15)


@pytest.mark.parametrize("kind", ["logistic-nll", "softplus-hinge"])
def test_loss_gradient_matches_finite_difference(kind):
    # the linear engine at epsilon=0, as a stack of one model: weight, bias
    # and input gradients (coeff * w) of the natural loss of one example
    spec = make_loss(kind)
    rng = np.random.default_rng(7)
    w = rng.normal(size=4)
    b = 0.3
    x = rng.normal(size=4)
    y = -1.0
    losses, (gw, gb), _ = linear_loss_and_grads(spec, w[None], np.asarray([b]), x[None, :],
                                                np.asarray([y]))
    coeff = -(worst_case_slope(spec, w[None], np.asarray([b]), x[None, :], np.asarray([y]))[1] * y)
    assert losses.shape == (1, 1) and gw.shape == (1, 4) and gb.shape == (1,)
    losses, gw, gb, dx = losses[0], gw[0], gb[0], coeff[0][:, None] * w

    def at(w_, b_, x_):
        return float(loss(spec, LinearModel(w=w_, bias=b_), x_, y))

    assert float(losses[0]) == pytest.approx(at(w, b, x), abs=1e-12)
    h = 1e-6
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        assert gw[i] == pytest.approx((at(w + e, b, x) - at(w - e, b, x)) / (2 * h), abs=1e-5)
        assert dx[0, i] == pytest.approx((at(w, b, x + e) - at(w, b, x - e)) / (2 * h), abs=1e-5)
    assert float(gb) == pytest.approx((at(w, b + h, x) - at(w, b - h, x)) / (2 * h), abs=1e-5)


@pytest.mark.parametrize("use_bias", [False, True])
@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_linear_weight_gradient_matches_broadcast_reference(kind, use_bias):
    # The engine forms the weight gradient as coeff @ X per model plus the
    # eps-box term; the reference is the per-example (k, n, d) broadcast sum
    # it replaced. Sums of n products round apart, so each model's gradient
    # is held to 1e-12 of its largest entry; loss, slope and bias gradient
    # come from the same arithmetic as before and must match bit for bit.
    spec = make_loss(kind)
    rng = np.random.default_rng(31)
    eps = np.asarray([0.0, 0.05, 0.0, 0.2, 0.5, 0.0])
    k, n, d = eps.size, 32, 52
    for _ in range(10):
        w = rng.normal(size=(k, d))
        w[:, ::7] = 0.0  # sign(0) = 0 keeps those weights out of the eps-box term
        X = rng.normal(size=(n, d))
        y = rng.choice([-1.0, 1.0], size=n)
        bias = rng.normal(size=k) if use_bias else None
        losses, grads, l1 = linear_loss_and_grads(spec, w, bias, X, y, eps)
        z_engine, gp, l1_slope = worst_case_slope(spec, w, bias, X, y, eps)
        coeff = -(gp * y)
        margin = np.matmul(X, w[..., None])[..., 0] + (0.0 if bias is None else bias[:, None])
        z = eps[:, None] * np.abs(w).sum(axis=1, keepdims=True) - y * margin
        np.testing.assert_array_equal(z_engine, z)
        np.testing.assert_array_equal(l1, np.abs(w).sum(axis=1))
        np.testing.assert_array_equal(l1_slope, l1)
        # epsilon as training passes it, a (k, 1) column, gives the same bits
        column = linear_loss_and_grads(spec, w, bias, X, y, eps[:, None])
        np.testing.assert_array_equal(column[0], losses)
        np.testing.assert_array_equal(column[1][0], grads[0])
        np.testing.assert_array_equal(losses, spec.g(z))
        np.testing.assert_array_equal(gp, spec.gprime(z))
        ref = (coeff[..., None] * X + gp[..., None] * (np.sign(w) * eps[:, None])[:, None, :]).sum(axis=1)
        scale = np.abs(ref).max(axis=1, keepdims=True)
        assert np.all(np.abs(grads[0] - ref) <= 1e-12 * scale)
        assert len(grads) == (2 if use_bias else 1)
        if use_bias:
            np.testing.assert_array_equal(grads[1], coeff.sum(axis=1))


# --- hypothesis properties --------------------------------------------------

finite_z = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(z1=finite_z, z2=finite_z)
@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_property_monotone(kind, z1, z2):
    spec = make_loss(kind)
    lo, hi = min(z1, z2), max(z1, z2)
    assert float(spec.g(np.asarray(lo))) <= float(spec.g(np.asarray(hi))) + 1e-12


@settings(max_examples=200, deadline=None)
@given(a=finite_z, b=finite_z)
@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_property_midpoint_convex(kind, a, b):
    spec = make_loss(kind)
    mid = float(spec.g(np.asarray((a + b) / 2.0)))
    avg = 0.5 * (float(spec.g(np.asarray(a))) + float(spec.g(np.asarray(b))))
    assert mid <= avg + 1e-9


@settings(max_examples=200, deadline=None)
@given(z=finite_z)
@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_property_gprime_unit_interval(kind, z):
    gp = float(make_loss(kind).gprime(np.asarray(z)))
    assert 0.0 <= gp <= 1.0
