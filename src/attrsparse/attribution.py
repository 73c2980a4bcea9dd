"""Integrated-gradients attribution: midpoint-rule path integration for
linear models and MLPs, the exact closed form for linear scoring models, and
dataset-level impact aggregation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import chunk_bounds
from .data import Dataset
from .losses import sigmoid
from .models import LinearModel, MlpModel

__all__ = [
    "AttributionVector",
    "check_method",
    "check_baseline",
    "attribute_dataset",
    "impact_report",
    "write_pgm",
]

DEFAULT_REPORT_STEPS = 256


@dataclass
class AttributionVector:
    values: np.ndarray
    completeness_residual: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)


def _numeric_rows(model, X, u, steps):
    """Midpoint-rule path integrals for the rows of X (n, d) against one
    baseline u:

        IG_i ~ (x_i - u_i) * (1/S) * sum_k dF/dx_i at u + ((k - 0.5)/S)(x - u)

    The path enters the model only through its first layer, whose output
    along it is a + alpha*c with a = u @ W0 + b0 and c = (x - u) @ W0, and the
    mean input gradient is W0 times the mean gradient at that output. So each
    row takes one (d, h1) product in and one (h1, d) product out, and the S
    path points run through the layers above as one (rows, S, h) block. A
    linear model is the case with no hidden layer, W0 = w as one column.
    Returns (values (n, d), completeness residuals (n,)).
    """
    if isinstance(model, LinearModel):
        W0, a, widest = model.w[:, None], np.atleast_1d(model.margin(u)), 1
    else:
        W0 = model.weights[0]
        a = u @ W0 + model.biases[0]
        widest = max(W.shape[-1] for W in model.weights)
    # Blocks hold no temporary larger than one row's S x max(d, h) points.
    rows = max(1, max(model.dim, widest) // widest)
    alphas = ((np.arange(1, steps + 1) - 0.5) / steps)[:, None]
    diff = X - u
    grads = np.empty_like(diff)
    # Each row is its own (1, d) and (1, h1) product, so its bits do not
    # depend on the block it lands in.
    for start, stop in chunk_bounds(len(X), rows):
        first = a + alphas * (diff[start:stop, None, :] @ W0)
        mean = _first_layer_grad(model, first).mean(axis=1)
        grads[start:stop] = (mean[:, None, :] @ W0.T)[:, 0]
    values = diff * grads
    fx = np.asarray(model.value(X[:, None, :]), dtype=float).reshape(-1)
    fu = float(np.asarray(model.value(u)))
    return values, np.abs(values.sum(axis=1) - (fx - fu))


def _first_layer_grad(model, first):
    """dF/dt at the first layer's output t = first, any leading axes."""
    if isinstance(model, MlpModel):
        cache = model._forward(None, first=first)
        p = sigmoid(cache[0])
        return model.backprop(cache, p * (1.0 - p), "first")
    if model.activation == "identity":
        return np.ones_like(first)
    p = sigmoid(first)
    return p * (1.0 - p)


def _closed_form_rows(model, X, u):
    """Exact path integrals for the rows of X (n, d) against one baseline u:

        IG = [F(x) - F(u)] * ((x - u) * w) / <x - u, w>

    Returns (values (n, d), completeness residuals (n,)). A zero denominator
    yields the zero attribution, with residual |F(x) - F(u)|. Both
    activations are strictly monotone in the margin, so that residual is 0
    unless <x, w> and <u, w> round apart while <x - u, w> rounds to 0, and
    it then reports the gap.
    """
    # Taking each row as a (1, d) block makes matmul run one dot product per
    # row, the kernel of x @ w for a single row; a 2-d X @ w is a
    # matrix-vector product, which rounds differently.
    diff = X - u
    denom = (diff[:, None, :] @ model.w)[:, 0]
    fx = np.asarray(model.value(X[:, None, :]), dtype=float).reshape(-1)
    fu = float(np.asarray(model.value(u)))
    degenerate = denom == 0.0
    delta = fx - fu
    values = np.divide(delta[:, None] * (diff * model.w), denom[:, None],
                       out=np.zeros_like(diff), where=~degenerate[:, None])
    return values, np.abs(values.sum(axis=1) - delta)


def check_method(method: str, steps: int, model_kind: str = "linear"):
    """Reject an unknown method, the closed form for a non-linear model kind,
    or fewer than one numeric path step."""
    if method not in ("closed", "numeric"):
        raise ValueError(f"unknown method {method!r}; use 'closed' or 'numeric'")
    if method == "closed" and model_kind != "linear":
        raise TypeError("closed form applies to linear models only")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")


def check_baseline(u, dim: int):
    """The baseline as a float vector; reject a wrong shape or a non-finite entry."""
    u = np.asarray(u, dtype=float)
    if u.shape != (dim,):
        raise ValueError(f"baseline shape {u.shape} does not match dimension {dim}")
    if not np.all(np.isfinite(u)):
        raise ValueError(f"baseline has non-finite entries: {u[~np.isfinite(u)][:4]}")
    return u


def attribute_dataset(model, ds: Dataset, u, method: str = "closed",
                      steps: int = DEFAULT_REPORT_STEPS, split: str = "test",
                      target: str = "true-class-probability"):
    """One attribution per example of the chosen split (test by default).

    With the default target, F is the predicted probability of the example's
    true class; for y = -1 that is 1 - F(x), whose attribution is the negated
    model-output attribution (sign flip, residual unchanged). Either method
    attributes the whole split as one array; its vectors view rows of it.
    """
    check_method(method, steps, "linear" if isinstance(model, LinearModel) else "mlp")
    if model.dim != ds.dim:
        raise ValueError(f"model dimension {model.dim} does not match data dimension {ds.dim}")
    u = check_baseline(u, ds.dim)
    if target not in ("true-class-probability", "model-output"):
        raise ValueError(f"unknown target {target!r}")
    true_class = target == "true-class-probability"
    idx = ds.split(split)
    if method == "closed":
        values, residual = _closed_form_rows(model, ds.features[idx], u)
    else:
        values, residual = _numeric_rows(model, ds.features[idx], u, steps)
    if true_class:
        flip = ds.labels[idx] == -1.0
        values[flip] = -values[flip]
    return [AttributionVector(row, r) for row, r in zip(values, residual.tolist())]


def impact_report(attribs, ds: Dataset):
    """Mean |attribution| per encoded position (one per ds.feature_names), and
    per original column (one per ds.encoding_map, its one-hot span summed)."""
    if not attribs:
        raise ValueError("no attributions given")
    value_impact = np.abs(np.stack([a.values for a in attribs])).mean(axis=0)
    return value_impact, np.asarray([value_impact[g.start:g.stop].sum()
                                     for g in ds.encoding_map])


def write_pgm(values, shape, path):
    """ASCII portable graymap of |values| reshaped to (height, width),
    normalized so the largest magnitude maps to 255."""
    h, w = shape
    mag = np.abs(np.asarray(values, dtype=float)).reshape(h, w)
    top = mag.max()
    scaled = np.zeros_like(mag, dtype=int) if top == 0.0 else np.rint(mag / top * 255).astype(int)
    lines = ["P2", f"{w} {h}", "255", *(" ".join(map(str, row)) for row in scaled)]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
