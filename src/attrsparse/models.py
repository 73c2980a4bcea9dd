"""Model families: linear scoring models and small dense MLPs.

All models expose margin(x) -> raw score(s) so the margin losses apply
uniformly; probability-style output goes through value(x).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import canonical_json, fmt_float, json_entry, read_json_object
from .losses import LossSpec, sigmoid

__all__ = [
    "MODEL_KINDS",
    "HIDDEN_ACTIVATIONS",
    "LinearModel",
    "MlpModel",
    "init_mlp",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
]

_FORMAT_VERSION = 1
MODEL_KINDS = ("linear", "mlp")


def _check_finite(arr, what):
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries")


@dataclass
class LinearModel:
    """Score A(<w, x> + bias) with activation A in {sigmoid, identity}."""

    w: np.ndarray
    activation: str = "sigmoid"
    bias: float | None = None

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        if self.w.ndim != 1:
            raise ValueError(f"weights must be 1-d, got shape {self.w.shape}")
        _check_finite(self.w, "weights")
        if self.activation not in ("sigmoid", "identity"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.bias is not None:
            self.bias = float(self.bias)
            _check_finite(np.asarray(self.bias), "bias")

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    def margin(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(f"input dimension {x.shape[-1]} != model dimension {self.dim}")
        m = x @ self.w
        if self.bias is not None:
            m = m + self.bias
        return m

    def value(self, x):
        """Model output F(x): activation applied to the margin."""
        m = self.margin(x)
        return sigmoid(m) if self.activation == "sigmoid" else m


HIDDEN_ACTIVATIONS = ("softplus", "tanh", "relu")


def _act(kind, t, value=True, deriv=True):
    """A hidden activation and its derivative at t from one pass, or only the
    activation (deriv=False), or only the derivative (value=False), which is
    written over t; each of the same bits in every mode. Softplus is
    max(t, 0) + log1p(exp(-|t|)) on NumPy's vectorised exp and log1p, and its
    derivative is losses.sigmoid(t) bit for bit, exp(min(t, 0)) /
    (1 + exp(-|t|)). Sums, products and quotients are taken in place, as
    numeric IG's blocks outgrow NumPy's small-buffer cache and PGD forms a
    derivative on every step."""
    own = None if value else t  # where a derivative-only call writes
    if kind == "softplus":
        e = np.copysign(t, -1.0)  # -|t|
        e = np.exp(e, out=e)
        if value:
            h = np.log1p(e)
            h += np.maximum(t, 0.0)
        if deriv:
            dh = np.fmin(t, 0.0, out=own)
            dh = np.exp(dh, out=dh)
            dh /= np.add(e, 1.0, out=e)
    elif kind == "tanh":
        h = np.tanh(t, out=own)
        if deriv:  # 1 - h * h, written over h when h is not returned
            dh = np.multiply(h, h, out=own)
            dh = np.subtract(1.0, dh, out=dh)
    else:
        h = np.maximum(0.0, t) if value else None
        dh = np.greater(t, 0.0, out=np.empty_like(t) if value else t) if deriv else None
    return (h, dh) if value and deriv else h if value else dh


@dataclass
class MlpModel:
    """Dense feed-forward net with a single sigmoid output unit.

    weights[l] has shape (fan_in, fan_out) and biases[l] (fan_out,); the last
    layer has fan_out 1. margin(x) is the pre-sigmoid output logit, so the
    margin losses apply. A training stack of k models sharing one
    architecture puts a leading model axis on every parameter, (k, fan_in,
    fan_out) and (k, fan_out); its forward and reverse passes return one row
    per model, each bit-identical to that model's own pass.
    """

    weights: list = field(default_factory=list)
    biases: list = field(default_factory=list)
    hidden_activation: str = "softplus"

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must be non-empty lists of equal length")
        if self.hidden_activation not in HIDDEN_ACTIVATIONS:
            raise ValueError(f"unknown hidden activation {self.hidden_activation!r}")
        self.weights = [np.asarray(W, dtype=float) for W in self.weights]
        self.biases = [np.asarray(b, dtype=float) for b in self.biases]
        lead = self.weights[0].shape[:-2]  # () for one model, (k,) for a stack
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            if W.ndim not in (2, 3) or W.shape[:-2] != lead or b.shape != lead + W.shape[-1:]:
                raise ValueError(f"layer {i}: weight shape {W.shape} and bias shape {b.shape} "
                                 "disagree")
            if i > 0 and self.weights[i - 1].shape[-1] != W.shape[-2]:
                raise ValueError(f"layer {i}: fan-in {W.shape[-2]} != previous fan-out")
            _check_finite(W, f"layer {i} weights")
            _check_finite(b, f"layer {i} biases")
        if self.weights[-1].shape[-1] != 1:
            raise ValueError("output layer must have a single unit")

    @property
    def dim(self) -> int:
        return self.weights[0].shape[-2]

    @property
    def layer_sizes(self):
        return [self.dim] + [W.shape[-1] for W in self.weights]

    def _forward(self, X, first=None, *, backward=True):
        """Forward pass on X (n, d) returning (logit, derivatives, layer
        inputs), with each hidden activation's derivative cached for backprop.

        The logit is (n,), or (k, n) for a stack of k models. ``first``, when
        given, replaces the first layer's output X @ W0 + b0 (X then only
        fills the cache's input slot); its leading axes carry through to the
        logit. backward=False, for callers that run no reverse pass, computes
        no derivative and leaves that list empty.
        """
        t = X @ self.weights[0] + self.biases[0][..., None, :] if first is None else first
        derivs = []   # activation derivative per hidden layer
        acts = [X]    # layer inputs, starting with the data
        for W, b in zip(self.weights[1:], self.biases[1:]):
            if backward:
                h, dh = _act(self.hidden_activation, t)
                derivs.append(dh)
            else:
                h = _act(self.hidden_activation, t, deriv=False)
            acts.append(h)
            t = h @ W + b[..., None, :]
        return t[..., 0], derivs, acts

    def margin(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(f"input dimension {x.shape[-1]} != model dimension {self.dim}")
        single = x.ndim == 1
        logit, _, _ = self._forward(x[None, :] if single else x, backward=False)
        return float(logit[0]) if single else logit

    def value(self, x):
        return sigmoid(self.margin(x))

    def backprop(self, cache, dlogit, wrt):
        """Reverse pass from dLoss/dlogit (n,) through the cached forward pass
        ``cache = self._forward(X)``, using the activation derivatives it cached.

        wrt picks the one result computed: "params", the parameter gradients
        summed over the batch [weights by layer, then biases by layer]; or
        "first", the gradient at the first layer's output (n, h1), whose
        product with W0 transposed is the per-example input gradient (n, d).
        A stack adds its leading model axis to each. Every product the result
        does not need is skipped, and what is computed does not depend on wrt
        bit for bit.
        """
        if wrt not in ("params", "first"):
            raise ValueError(f"wrt must be 'params' or 'first', got {wrt!r}")
        _, derivs, acts = cache
        weight_grads, bias_grads = [], []
        delta = dlogit[..., None]  # gradient at the output unit
        for l in range(len(self.weights) - 1, -1, -1):
            if l < len(derivs):
                delta = np.multiply(upstream, derivs[l], out=upstream)
            if wrt == "params":
                weight_grads.insert(0, acts[l].swapaxes(-1, -2) @ delta)
                bias_grads.insert(0, delta.sum(axis=-2))
            if l:
                upstream = delta @ self.weights[l].swapaxes(-1, -2)
        if wrt == "params":
            return weight_grads + bias_grads
        return delta

    def ascent_slope(self, X, top):
        """The input gradient for dLoss/dlogit = c (n,) given
        top = c[:, None] * W_last^T, backprop(_forward(X), c, "first") @ W0^T
        bit for bit when top is that product: one PGD step, whose call forms
        top = -y * W_last^T once and, for hinge, scales it row by row by g'(z).

        Only the activation derivatives are formed, the last hidden layer's
        alone, with no logit and no output-layer product. A stack adds its
        leading model axis to the result.
        """
        Ws, kind = self.weights, self.hidden_activation
        if len(Ws) == 1:
            return top.copy()
        t = X @ Ws[0]
        t += self.biases[0][..., None, :]
        derivs = []
        for W, b in zip(Ws[1:-1], self.biases[1:-1]):
            h, dh = _act(kind, t)
            derivs.append(dh)
            t = h @ W + b[..., None, :]
        upstream = np.multiply(top, _act(kind, t, value=False), out=t)
        for l in range(len(derivs), 0, -1):
            upstream = upstream @ Ws[l].swapaxes(-1, -2)
            upstream *= derivs[l - 1]
        return upstream @ Ws[0].swapaxes(-1, -2)

    def loss_and_grads(self, spec: LossSpec, X, y):
        """The MLP family's one gradient engine: g(-y * logit) on a batch
        X (n, d) from one forward and one reverse pass.

        Returns (per-example loss (n,), parameter gradients summed over the
        batch [weights by layer, then biases by layer]); a stack adds its
        leading model axis to each.
        """
        cache = self._forward(X)
        z = -y * cache[0]
        return spec.g(z), self.backprop(cache, -y * spec.gprime(z), "params")


def init_mlp(layer_sizes, rng, hidden_activation="softplus") -> MlpModel:
    """Glorot-uniform initialized MLP; layer_sizes like [d, h1, ..., 1] (an
    output layer of another size is MlpModel's error)."""
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights=weights, biases=biases, hidden_activation=hidden_activation)


# --- serialization: parameters as decimal strings that round-trip bit-exact ---

def _encode(arr):
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        return [fmt_float(v) for v in arr]
    return [[fmt_float(v) for v in row] for row in arr]


def model_to_dict(model) -> dict:
    if isinstance(model, LinearModel):
        return {
            "format_version": _FORMAT_VERSION,
            "kind": "linear",
            "activation": model.activation,
            "dim": model.dim,
            "weights": _encode(model.w),
            "bias": None if model.bias is None else fmt_float(model.bias),
        }
    if isinstance(model, MlpModel):
        return {
            "format_version": _FORMAT_VERSION,
            "kind": "mlp",
            "hidden_activation": model.hidden_activation,
            "layer_sizes": model.layer_sizes,
            "weights": [_encode(W) for W in model.weights],
            "biases": [_encode(b) for b in model.biases],
        }
    raise TypeError(f"cannot serialize model of type {type(model).__name__}")


def model_from_dict(data: dict, where: str = "the model document"):
    """The model a model_to_dict document describes; an unknown format
    version, a missing or wrong-typed entry (named with `where`), or a
    stored dim or layer_sizes that disagrees with the weights, is an error."""
    kind = data.get("kind")
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version {version!r}; "
                         f"expected {_FORMAT_VERSION}")

    def entry(key, convert=lambda v: v):
        return json_entry(data, key, convert, where)

    def arrays(v):  # decimal strings, which parse to their floats
        return [np.asarray(a, dtype=float) for a in v]

    if kind == "linear":
        model = LinearModel(
            w=entry("weights", lambda v: np.asarray(v, dtype=float)),
            activation=entry("activation"),
            bias=None if data.get("bias") is None else entry("bias", float),
        )
        key, shape = "dim", model.dim
    else:
        model = MlpModel(
            weights=entry("weights", arrays),
            biases=entry("biases", arrays),
            hidden_activation=entry("hidden_activation"),
        )
        key, shape = "layer_sizes", model.layer_sizes
    if data.get(key) != shape:
        raise ValueError(f"model {key} {data.get(key)!r} does not match its weights' {shape!r}")
    return model


def save_model(model, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(model_to_dict(model)))


def load_model(path):
    return model_from_dict(read_json_object(path, "model"), f"{path}: the model file")
