"""Model families: forward values, gradients vs finite differences,
equivalences, validation, and bit-exact serialization."""
import json

import numpy as np
import pytest

from attrsparse.adversarial import PgdConfig, pgd_perturb_batch
from attrsparse.attribution import ig_numeric
from attrsparse import models
from attrsparse.losses import make_loss, sigmoid
from attrsparse.models import (
    LinearModel,
    MlpModel,
    _act,
    classify,
    init_mlp,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)

SIGMOID_1 = 0.7310585786300049


def _midpoint_gradient(model, x, h=0.5):
    """dF/dx at x as numeric IG's one-step midpoint rule (its folded
    first-layer kernel) sees it, on the path from x - h to x + h."""
    attr = ig_numeric(model, x + h, x - h, steps=1)
    return attr.values / (2.0 * h)


# --- linear models -----------------------------------------------------------

def test_linear_forward_fixture():
    model = LinearModel(w=np.asarray([1.0, -2.0, 0.5]))
    x = np.asarray([2.0, 1.0, 2.0])  # margin = 2 - 2 + 1 = 1
    assert float(model.margin(x)) == 1.0
    assert float(model.value(x)) == pytest.approx(SIGMOID_1, abs=1e-16)
    X = np.stack([x, np.zeros(3)])
    np.testing.assert_array_equal(model.margin(X), [1.0, 0.0])
    np.testing.assert_allclose(model.value(X), [SIGMOID_1, 0.5], atol=1e-16)


def test_linear_bias_and_identity_activation():
    model = LinearModel(w=np.asarray([2.0]), activation="identity", bias=-1.0)
    assert float(model.margin(np.asarray([3.0]))) == 5.0
    assert float(model.value(np.asarray([3.0]))) == 5.0
    np.testing.assert_array_equal(_midpoint_gradient(model, np.asarray([3.0])), [2.0])


def test_linear_validation():
    with pytest.raises(ValueError, match="1-d"):
        LinearModel(w=np.ones((2, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        LinearModel(w=np.asarray([1.0, np.nan]))
    with pytest.raises(ValueError, match="activation"):
        LinearModel(w=np.ones(2), activation="step")
    with pytest.raises(ValueError, match="dimension"):
        LinearModel(w=np.ones(2)).margin(np.ones(3))


def test_linear_input_gradient_matches_fd():
    rng = np.random.default_rng(3)
    model = LinearModel(w=rng.normal(size=5))
    x = rng.normal(size=5)
    grad = _midpoint_gradient(model, x)
    h = 1e-6
    fd = np.empty(5)
    for i in range(5):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd[i] = (float(model.value(xp)) - float(model.value(xm))) / (2 * h)
    np.testing.assert_allclose(grad, fd, atol=1e-5)


# --- MLPs --------------------------------------------------------------------

def _tiny_mlp(hidden_activation="softplus"):
    # 2 -> 2 -> 1 with fixed parameters
    W1 = np.asarray([[1.0, -1.0], [0.5, 2.0]])
    b1 = np.asarray([0.1, -0.2])
    W2 = np.asarray([[2.0], [-1.5]])
    b2 = np.asarray([0.3])
    return MlpModel(weights=[W1, W2], biases=[b1, b2],
                    hidden_activation=hidden_activation)


def test_mlp_forward_hand_computed():
    model = _tiny_mlp()
    x = np.asarray([1.0, 2.0])
    t = np.asarray([1.0 * 1 + 0.5 * 2 + 0.1, -1.0 * 1 + 2.0 * 2 - 0.2])  # (2.1, 2.8)
    h = np.log1p(np.exp(t))
    logit = 2.0 * h[0] - 1.5 * h[1] + 0.3
    assert float(model.margin(x)) == pytest.approx(logit, abs=1e-12)
    assert float(model.value(x)) == pytest.approx(float(sigmoid(logit)), abs=1e-15)


@pytest.mark.parametrize("act", ["softplus", "tanh", "relu"])
def test_mlp_activations_forward(act):
    model = _tiny_mlp(act)
    x = np.asarray([0.5, -1.0])
    t = np.asarray([0.5 - 0.5 + 0.1, -0.5 - 2.0 - 0.2])
    if act == "softplus":
        h = np.log1p(np.exp(t))
    elif act == "tanh":
        h = np.tanh(t)
    else:
        h = np.maximum(0.0, t)
    expected = 2.0 * h[0] - 1.5 * h[1] + 0.3
    assert float(model.margin(x)) == pytest.approx(expected, abs=1e-12)


def _act_grid():
    """±0, subnormals, the exp under- and overflow edges, and normal draws
    from 0.01 to 300 in scale."""
    edges = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 709.0, 709.78, 745.0, 745.2,
             800.0, 1e-300, 36.0, 37.0]
    rng = np.random.default_rng(11)
    draws = [scale * rng.standard_normal(4000) for scale in (0.01, 0.3, 1.0, 5.0, 40.0, 300.0)]
    grid = np.concatenate([np.asarray(edges), *draws])
    return np.concatenate([grid, -grid])


def test_act_softplus_contract():
    t = _act_grid()
    value, deriv = _act("softplus", t)
    want = np.logaddexp(0.0, t)
    # both sides are >= 0, where the int64 bit patterns count ulps
    ulps = np.abs(value.view(np.int64) - want.view(np.int64))
    assert np.all(value >= 0.0) and ulps.max() <= 4, t[np.argmax(ulps)]
    np.testing.assert_array_equal(deriv, sigmoid(t))

    ends = np.asarray([np.inf, -np.inf, np.nan])
    with np.errstate(invalid="ignore"):
        value, deriv = _act("softplus", ends)
        np.testing.assert_array_equal(value, np.logaddexp(0.0, ends))
    np.testing.assert_array_equal(deriv, sigmoid(ends))
    assert np.isnan(value[2]) and np.isnan(deriv[2])


def test_act_tanh_and_relu_contract():
    t = _act_grid()
    value, deriv = _act("tanh", t)
    np.testing.assert_array_equal(value, np.tanh(t))
    np.testing.assert_array_equal(deriv, 1 - np.tanh(t) ** 2)
    value, deriv = _act("relu", t)
    np.testing.assert_array_equal(value, np.maximum(0, t))
    np.testing.assert_array_equal(deriv, np.where(t > 0, 1, 0))


def test_single_layer_mlp_equals_linear():
    w = np.asarray([0.7, -1.2, 0.4])
    mlp = MlpModel(weights=[w[:, None]], biases=[np.zeros(1)])
    lin = LinearModel(w=w)
    X = np.random.default_rng(5).normal(size=(6, 3))
    np.testing.assert_allclose(mlp.margin(X), lin.margin(X), atol=1e-12)
    np.testing.assert_allclose(mlp.value(X), lin.value(X), atol=1e-12)
    for x in X:
        np.testing.assert_allclose(_midpoint_gradient(mlp, x), _midpoint_gradient(lin, x),
                                   atol=1e-12)


@pytest.mark.parametrize("act", ["softplus", "tanh"])
def test_mlp_input_gradient_matches_fd(act):
    model = _tiny_mlp(act)
    x = np.asarray([0.3, -0.7])
    grad = _midpoint_gradient(model, x)
    h = 1e-6
    for i in range(2):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd = (model.value(xp) - model.value(xm)) / (2 * h)
        assert grad[i] == pytest.approx(fd, abs=1e-5)


def test_mlp_parameter_gradients_match_fd():
    spec = make_loss("logistic-nll")
    model = _tiny_mlp()
    x = np.asarray([0.4, -0.9])
    y = -1.0
    losses, grads = model.loss_and_grads(spec, x[None, :], np.asarray([y]))
    wg, bg = grads[:2], grads[2:]
    h = 1e-6

    def loss_at(m):
        return float(spec.g(np.asarray(-y * m.margin(x))))

    assert float(losses[0]) == pytest.approx(loss_at(model), abs=1e-12)
    for layer in range(2):
        W = model.weights[layer]
        for idx in np.ndindex(W.shape):
            orig = W[idx]
            W[idx] = orig + h
            up = loss_at(model)
            W[idx] = orig - h
            dn = loss_at(model)
            W[idx] = orig
            assert wg[layer][idx] == pytest.approx((up - dn) / (2 * h), abs=1e-5)
        b = model.biases[layer]
        for i in range(b.shape[0]):
            orig = b[i]
            b[i] = orig + h
            up = loss_at(model)
            b[i] = orig - h
            dn = loss_at(model)
            b[i] = orig
            assert bg[layer][i] == pytest.approx((up - dn) / (2 * h), abs=1e-5)


def test_mlp_input_loss_gradient_matches_fd():
    spec = make_loss("softplus-hinge")
    model = _tiny_mlp()
    x = np.asarray([0.4, -0.9])
    y = 1.0
    # the input-only chain that PGD runs
    cache = model._forward(x[None, :])
    dx = model.backprop(cache, -y * spec.gprime(-y * cache[0]), "inputs")[0]
    h = 1e-6
    for i in range(2):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd = (float(spec.g(np.asarray(-y * model.margin(xp))))
              - float(spec.g(np.asarray(-y * model.margin(xm))))) / (2 * h)
        assert dx[i] == pytest.approx(fd, abs=1e-5)


def test_mlp_validation():
    with pytest.raises(ValueError, match="non-empty"):
        MlpModel(weights=[], biases=[])
    with pytest.raises(ValueError, match="disagree"):
        MlpModel(weights=[np.ones((2, 3))], biases=[np.ones(2)])
    with pytest.raises(ValueError, match="fan-in"):
        MlpModel(weights=[np.ones((2, 3)), np.ones((4, 1))],
                 biases=[np.ones(3), np.ones(1)])
    with pytest.raises(ValueError, match="single unit"):
        MlpModel(weights=[np.ones((2, 2))], biases=[np.ones(2)])
    with pytest.raises(ValueError, match="hidden activation"):
        MlpModel(weights=[np.ones((2, 1))], biases=[np.ones(1)],
                 hidden_activation="sin")


def test_init_mlp():
    rng = np.random.default_rng(0)
    model = init_mlp([6, 4, 1], rng)
    assert model.layer_sizes == [6, 4, 1]
    for W, (fi, fo) in zip(model.weights, [(6, 4), (4, 1)]):
        limit = np.sqrt(6.0 / (fi + fo))
        assert np.all(np.abs(W) <= limit)
    for b in model.biases:
        assert np.all(b == 0.0)
    again = init_mlp([6, 4, 1], np.random.default_rng(0))
    for W1, W2 in zip(model.weights, again.weights):
        np.testing.assert_array_equal(W1, W2)
    with pytest.raises(ValueError, match="output layer"):
        init_mlp([4, 3], rng)


class _CountedTranspose(np.ndarray):
    """A weight matrix that counts its transposes: backprop's input product
    at a layer is delta @ W.swapaxes(-1, -2). Its products are plain arrays,
    so only the matrix itself counts."""

    count = 0

    def swapaxes(self, *axes):
        _CountedTranspose.count += 1
        return np.asarray(self).swapaxes(*axes)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        return getattr(ufunc, method)(*(np.asarray(t) for t in inputs), **kwargs)


def test_mlp_gradients_run_one_forward_pass(monkeypatch):
    model = _tiny_mlp()
    spec = make_loss("logistic-nll")
    X = np.asarray([[0.4, -0.9], [0.1, 0.2], [-0.3, 0.5]])
    y = np.asarray([1.0, -1.0, 1.0])
    # the full reverse pass of the 2 -> 2 -> 1 net, written out
    (W0, W1), _ = model.weights, model.biases
    logit, (dh,), (_, h) = model._forward(X)
    dlogit = -y * spec.gprime(-y * logit)
    delta1 = dlogit[:, None]
    delta0 = (delta1 @ W1.T) * dh
    full_grads = [X.T @ delta0, h.T @ delta1, delta0.sum(axis=0), delta1.sum(axis=0)]
    full_first, full_dx = delta0, delta0 @ W0.T

    calls, reverse = [], []
    forward, backprop = MlpModel._forward, MlpModel.backprop

    def counted(self, X, **kwargs):
        calls.append(kwargs.get("backward", True))
        return forward(self, X, **kwargs)

    def recorded(self, cache, dlogit, wrt):
        reverse.append(wrt)
        return backprop(self, cache, dlogit, wrt)

    monkeypatch.setattr(MlpModel, "_forward", counted)
    monkeypatch.setattr(MlpModel, "backprop", recorded)
    model.weights[0] = W0.view(_CountedTranspose)
    _CountedTranspose.count = 0
    _, grads = model.loss_and_grads(spec, X, y)
    assert len(calls) == 1 and reverse == ["params"]
    # the parameter chain keeps the bits and skips the last input product
    assert len(grads) == len(full_grads) and _CountedTranspose.count == 0
    for a, b in zip(grads, full_grads):
        np.testing.assert_array_equal(a, b)

    # the input-only chain skips the parameter products and keeps the bits
    cache = model._forward(X)
    dx = model.backprop(cache, dlogit, "inputs")
    assert len(calls) == 2 and _CountedTranspose.count == 1
    np.testing.assert_array_equal(dx, full_dx)
    # and the first-layer chain stops before that product
    np.testing.assert_array_equal(model.backprop(cache, dlogit, "first"), full_first)
    assert _CountedTranspose.count == 1
    with pytest.raises(ValueError, match="wrt"):
        model.backprop(cache, dlogit, "weights")

    # PGD: one forward pass per step, the first also giving the start loss,
    # plus the forward-only final loss check, and never the parameter products
    del calls[:], reverse[:]
    cfg = PgdConfig(steps=5, step_size=0.05)
    pgd_perturb_batch(model, X, y, 0.2, cfg, spec, np.random.default_rng(3))
    assert calls == [True] * cfg.steps + [False]
    assert reverse == ["inputs"] * cfg.steps


@pytest.mark.parametrize("act", ["softplus", "tanh", "relu"])
def test_margin_computes_no_activation_derivative(monkeypatch, act):
    # margin and value run no reverse pass, so no hidden layer's derivative
    # is formed; the logits keep the bits of the cached forward pass
    rng = np.random.default_rng(8)
    model = init_mlp([5, 7, 4, 1], rng, act)
    stack = MlpModel(weights=[np.stack([W, 2.0 * W]) for W in model.weights],
                     biases=[np.stack([b, b + 0.1]) for b in model.biases],
                     hidden_activation=act)
    X = rng.normal(size=(9, 5))
    cached = [m._forward(X)[0] for m in (model, stack)]
    returned = []

    def recorded(*args, **kwargs):
        returned.append(act_fn(*args, **kwargs))
        return returned[-1]

    act_fn = models._act
    monkeypatch.setattr(models, "_act", recorded)
    for m, logit in zip((model, stack), cached):
        np.testing.assert_array_equal(m.margin(X), logit)
        np.testing.assert_array_equal(m.value(X), sigmoid(logit))
    # two hidden layers, four calls, each returning the activation alone
    assert len(returned) == 8 and all(isinstance(r, np.ndarray) for r in returned)


# --- prediction helpers -------------------------------------------------------

def test_classify_ties_to_positive():
    model = LinearModel(w=np.zeros(2))  # value exactly 0.5 everywhere
    X = np.random.default_rng(1).normal(size=(4, 2))
    np.testing.assert_array_equal(classify(model, X), np.ones(4))


# --- serialization -------------------------------------------------------------

def test_linear_roundtrip_bit_exact():
    rng = np.random.default_rng(9)
    model = LinearModel(w=rng.normal(size=7) * 1e-3, bias=float(rng.normal()))
    doc = model_to_dict(model)
    assert doc["format_version"] == 1
    assert isinstance(doc["weights"][0], str)  # decimal-string parameters
    back = model_from_dict(doc)
    np.testing.assert_array_equal(back.w, model.w)
    assert back.bias == model.bias
    assert back.activation == model.activation


def test_mlp_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(10)
    model = init_mlp([5, 3, 1], rng, hidden_activation="tanh")
    path = tmp_path / "m.json"
    save_model(model, path)
    back = load_model(path)
    assert isinstance(back, MlpModel)
    assert back.hidden_activation == "tanh"
    for W1, W2 in zip(model.weights, back.weights):
        np.testing.assert_array_equal(W1, W2)
    for b1, b2 in zip(model.biases, back.biases):
        np.testing.assert_array_equal(b1, b2)
    # the file is plain JSON with string-encoded parameters
    doc = json.loads(path.read_text())
    assert doc["kind"] == "mlp"
    assert isinstance(doc["weights"][0][0][0], str)


def test_serialization_errors():
    with pytest.raises(ValueError, match="unknown model kind"):
        model_from_dict({"kind": "forest"})
    with pytest.raises(TypeError, match="cannot serialize"):
        model_to_dict(object())
