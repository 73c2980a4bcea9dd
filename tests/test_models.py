"""Model families: forward values, gradients vs finite differences,
equivalences, validation, and bit-exact serialization."""
import json

import numpy as np
import pytest

from attrsparse.adversarial import PgdConfig, pgd_perturb_batch
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
from helpers import ig_row

SIGMOID_1 = 0.7310585786300049


def _midpoint_gradient(model, x, h=0.5):
    """dF/dx at x as numeric IG's one-step midpoint rule (its folded
    first-layer kernel) sees it, on the path from x - h to x + h."""
    attr = ig_row(model, x + h, x - h, steps=1)
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
    first = model.backprop(cache, -y * spec.gprime(-y * cache[0]), "first")
    dx = (first @ model.weights[0].swapaxes(-1, -2))[0]
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
    full_first = delta0

    calls, reverse, ascents, steps = [], [], [], []
    forward, backprop, ascent = MlpModel._forward, MlpModel.backprop, MlpModel.ascent_slope

    def counted(self, X, **kwargs):
        calls.append(kwargs.get("backward", True))
        return forward(self, X, **kwargs)

    def recorded(self, cache, dlogit, wrt):
        reverse.append(wrt)
        return backprop(self, cache, dlogit, wrt)

    def stepped(self, X, top, *work):
        ascents.append(top)
        steps.append((np.array(X), np.array(top)))  # each step's point and rows
        return ascent(self, X, top, *work)

    monkeypatch.setattr(MlpModel, "_forward", counted)
    monkeypatch.setattr(MlpModel, "backprop", recorded)
    monkeypatch.setattr(MlpModel, "ascent_slope", stepped)
    model.weights[0] = W0.view(_CountedTranspose)
    _CountedTranspose.count = 0
    _, grads = model.loss_and_grads(spec, X, y)
    assert len(calls) == 1 and reverse == ["params"]
    # the parameter chain keeps the bits and skips the last input product
    assert len(grads) == len(full_grads) and _CountedTranspose.count == 0
    for a, b in zip(grads, full_grads):
        np.testing.assert_array_equal(a, b)

    # the first-layer chain skips the parameter products and the input
    # product, and keeps the bits
    cache = model._forward(X)
    first = model.backprop(cache, dlogit, "first")
    assert len(calls) == 2 and _CountedTranspose.count == 0
    np.testing.assert_array_equal(first, full_first)
    for wrt in ("weights", "inputs"):
        with pytest.raises(ValueError, match="wrt"):
            model.backprop(cache, dlogit, wrt)

    # PGD: a forward-only start pass, the output product -y * W1^T once,
    # then per step X @ W0 and the input product delta @ W0^T only (no
    # output-layer product, no parameter product), and the forward-only final
    # loss check; a stack of two takes the same two products per step.
    # Hinge's steps each add a forward-only pass for g'(z), which scales the
    # rows of that one output product.
    stack = MlpModel(weights=[np.stack([W0, 2.0 * W0]), np.stack([W1, -W1])],
                     biases=[np.stack([b, b + 0.1]) for b in model.biases])
    cfg = PgdConfig(steps=5, step_size=0.05)
    for net, kind, passes, products, output_products in [
            (model, "logistic-nll", [False, False], 2 + 1 + 2 * cfg.steps + 2, 2),
            (model, "hinge", [False] * (cfg.steps + 2), 2 + 1 + 4 * cfg.steps + 2,
             cfg.steps + 2),
            (stack, "logistic-nll", [False, False], 2 + 1 + 2 * cfg.steps + 2, 2)]:
        net.weights[:] = [W.view(_Tracked) for W in net.weights]
        _Tracked.output = net.weights[1]
        del calls[:], reverse[:], ascents[:], steps[:]
        _Tracked.products = _Tracked.output_products = 0
        Xs, ys = (X, y) if net is model else (np.stack([X, -X]), np.stack([y, -y]))
        pgd_perturb_batch(net, Xs, ys, 0.2, cfg, make_loss(kind), np.random.default_rng(3))
        assert calls == passes, kind
        assert _Tracked.products == products and _Tracked.output_products == output_products
        assert not reverse and len(ascents) == cfg.steps
        assert all(top is ascents[0] for top in ascents)  # formed once per call
        want = (-y)[:, None] * W1.T  # the stack's second row too: -(-y) * (-W1)^T
        want = want if net is model else np.stack([want, want])
        for moved, top in steps:  # hinge scales the rows by g'(z) in {0, 1}
            mask = make_loss(kind).gprime(-ys * net.margin(moved))[..., None]
            np.testing.assert_array_equal(top, want * mask if kind == "hinge" else want)


class _Tracked(np.ndarray):
    """A weight matrix that counts every matrix product formed from it or
    from any array computed from it (its transpose included); products
    with the output layer's matrix itself, h @ W, are also counted apart."""

    products = output_products = 0
    output = None

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if ufunc is np.matmul:
            _Tracked.products += 1
            _Tracked.output_products += any(t is _Tracked.output for t in inputs)
        plain = [t.view(np.ndarray) if isinstance(t, _Tracked) else t for t in inputs]
        if out is not None:
            kwargs["out"] = tuple(o.view(np.ndarray) if isinstance(o, _Tracked) else o
                                  for o in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        result = out[0] if out is not None else result
        return result.view(_Tracked) if isinstance(result, np.ndarray) else result


def _ascent_reference(model, X, y):
    """The input reverse pass from dlogit = -y through a full forward pass."""
    return model.backprop(model._forward(X), -y, "first") @ model.weights[0].swapaxes(-1, -2)


def _top(model, y):
    return (-y)[:, None] @ model.weights[-1].swapaxes(-1, -2)


@pytest.mark.parametrize("act", ["softplus", "tanh", "relu"])
def test_derivative_only_pass_keeps_the_bits(act):
    # PGD's sign-only step, ascent_slope, forms the last hidden layer's
    # derivative itself: it is _act's derivative bit for bit at +-0,
    # subnormals, the exp under- and overflow edges and +-1e308, and the step
    # is the full reverse pass bit for bit. One row per grid value through a
    # 1 -> 1 -> 1 net; x @ [[1]] is x except that -0 comes out +0, where every
    # derivative takes the same value.
    t = np.concatenate([_act_grid(), [1e308, -1e308]])
    assert _act(act, np.asarray([0.0]))[1].tobytes() == _act(act, np.asarray([-0.0]))[1].tobytes()
    model = MlpModel(weights=[np.ones((1, 1)), np.ones((1, 1))],
                     biases=[np.zeros(1), np.zeros(1)], hidden_activation=act)
    X, y = t[:, None], np.ones(t.size)
    got = model.ascent_slope(X, _top(model, y))
    assert got.tobytes() == _ascent_reference(model, X, y).tobytes()
    assert np.abs(got[:, 0]).tobytes() == _act(act, t)[1].tobytes()
    # 0, 1 and 2 hidden layers, one model and a stack of two
    rng = np.random.default_rng(4)
    for sizes in ([5, 1], [5, 7, 1], [5, 7, 4, 1]):
        one = init_mlp(sizes, rng, act)
        stack = MlpModel(weights=[np.stack([W, 2.0 * W]) for W in one.weights],
                         biases=[np.stack([b + 0.1, b - 0.3]) for b in one.biases],
                         hidden_activation=act)
        X = 3.0 * rng.normal(size=(9, 5))
        y = np.where(rng.random(9) < 0.5, -1.0, 1.0)
        for m in (one, stack):
            top = _top(m, y)
            kept = top.copy()
            got, want = m.ascent_slope(X, top), _ascent_reference(m, X, y)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), sizes
            assert top.tobytes() == kept.tobytes()  # top is reused on the next step
            if m is stack:
                for i in range(2):
                    alone = MlpModel(weights=[W[i] for W in m.weights],
                                     biases=[b[i] for b in m.biases], hidden_activation=act)
                    assert got[i].tobytes() == alone.ascent_slope(X, _top(alone, y)).tobytes()


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
