"""Integrated-gradients attribution: numeric path integration (Gauss-Legendre
for softplus and tanh MLPs, the midpoint rule for linear models and ReLU
MLPs), the exact closed form for functions of one linear score (a linear
model, or the theory layer's loss map), and dataset-level impact aggregation.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._util import chunk_bounds
from .data import Dataset
from .losses import sigmoid
from .models import LinearModel, MlpModel

__all__ = [
    "AttributionVector",
    "straight_path_ig",
    "check_method",
    "check_baseline",
    "numeric_rule",
    "attribute_dataset",
    "impact_report",
    "write_pgm",
]

DEFAULT_REPORT_STEPS = 256
GL_START = 32     # Gauss-Legendre nodes of a row's first pass
GL_TOL = 1e-10    # the completeness residual that ends a row's refinement


@dataclass
class AttributionVector:
    values: np.ndarray
    completeness_residual: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)


def _attribute_rows(model, X, u, method, steps):
    """IG of the rows of X (n, d) against one baseline u by either method, and
    each row's completeness residual |sum_i IG_i - (F(x) - F(u))|: the
    (values (n, d), residuals (n,)) attribute_dataset reports."""
    diff = X - u
    gap = np.asarray(model.value(X[:, None, :]), dtype=float).reshape(-1)
    gap -= float(np.asarray(model.value(u)))
    if method == "closed":
        values = straight_path_ig(gap, diff, model.w)
    else:
        values = _numeric_rows(model, diff, u, gap, steps)
    return values, np.abs(values.sum(axis=1) - gap)


def _numeric_rows(model, diff, u, gap, steps):
    """Numeric path integrals for the rows of diff = X - u (n, d):

        IG_i ~ (x_i - u_i) * sum_k w_k * dF/dx_i at u + alpha_k (x - u)

    One refinement loop serves both rules. A softplus or tanh MLP
    (numeric_rule) takes Gauss-Legendre nodes alpha_k and weights w_k on
    [0, 1]: min(steps, GL_START) of them, then twice as many, never more than
    steps, for each row whose completeness residual against gap = F(x) - F(u)
    still exceeds GL_TOL. Other models take the midpoint rule,
    alpha_k = (k - 0.5)/S and w_k = 1/S for S = steps, as the loop's one pass.

    The path enters the model only through its first layer, whose output
    along it is a + alpha*c with a = u @ W0 + b0 and c = (x - u) @ W0, and the
    weighted input gradient is W0 times the weighted gradient at that output.
    So each row takes one (d, h1) product in and one (h1, d) product out,
    and its path points run through the layers above as one (rows, S, h)
    block, of about DEFAULT_REPORT_STEPS path points per row. A linear model
    is the case with no hidden layer, W0 = w as one column. Every product and
    sum rounds row by row, so a row's bits depend neither on its block nor on
    which other rows were refined.
    """
    if isinstance(model, LinearModel):
        W0, a, widest = model.w[:, None], np.atleast_1d(model.margin(u)), 1
        rule = numeric_rule("linear")
    else:
        W0 = model.weights[0]
        a = u @ W0 + model.biases[0]
        widest = max(W.shape[-1] for W in model.weights)
        rule = numeric_rule("mlp", model.hidden_activation)
    width = max(model.dim, widest)
    quadrature = _midpoint if rule == "midpoint" else _gauss_legendre
    nodes = steps if rule == "midpoint" else min(steps, GL_START)
    values, todo = np.empty_like(diff), np.arange(len(diff))
    while todo.size:
        part = diff[todo]
        # about DEFAULT_REPORT_STEPS path points a row, at any node count
        rows = max(1, DEFAULT_REPORT_STEPS * width // (nodes * widest))
        part *= _path_grads(model, W0, a, part, *quadrature(nodes), rows)
        values[todo] = part
        if nodes == steps:
            break
        todo = todo[np.abs(part.sum(axis=1) - gap[todo]) > GL_TOL]
        nodes = min(2 * nodes, steps)
    return values


def _midpoint(nodes):
    """The midpoint rule's nodes on [0, 1]; None: equal weights, a mean."""
    return (np.arange(1, nodes + 1) - 0.5) / nodes, None


@lru_cache(maxsize=8)
def _gauss_legendre(nodes):
    """Gauss-Legendre nodes and weights on [0, 1], read-only: numpy's
    [-1, 1] rule, whose O(nodes^3) solve each count pays once."""
    from numpy.polynomial.legendre import leggauss  # off the CLI's import path

    t, w = leggauss(nodes)
    rule = (t + 1.0) / 2.0, w / 2.0
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _path_grads(model, W0, a, diff, alphas, weights, rows):
    """The weighted input gradient along each row's path, `rows` rows to a
    block: the mean over the nodes alphas when weights is None, else
    sum_k weights[k] * gradient at alphas[k]."""
    grads = np.empty_like(diff)
    for start, stop in chunk_bounds(len(diff), rows):
        first = a + alphas[:, None] * (diff[start:stop, None, :] @ W0)
        g = _first_layer_grad(model, first)
        if weights is None:
            g = g.mean(axis=1)
        else:
            g = np.multiply(g, weights[:, None], out=g).sum(axis=1)
        grads[start:stop] = (g[:, None, :] @ W0.T)[:, 0]
    return grads


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


def _row_dot(A, B):
    """Per-row <a, b> of an (m, d) block A with B, an (m, d) block or one
    (d,) row for every a. A (1, d) @ (d, 1) product runs one dot product per
    row, the kernel of a 1-d a @ b, so each row rounds as the one-row call
    would; a 2-d A @ b is a matrix-vector product, which rounds differently."""
    return (A[:, None, :] @ B[..., None])[:, 0, 0]


def straight_path_ig(change, diff, w):
    """Exact integrated gradients of a function of one score, F(v) = f(<w, v>),
    along the straight path from s to s + diff, one path per row:

        IG = change * diff * w / <diff, w>,   change = F(s + diff) - F(s)

    diff is (m, d), w (m, d) or one (d,) row for every path, change (m,). A
    zero <diff, w> yields the zero attribution, whose completeness gap is
    |change|: 0 for a monotone f unless f(<s, w>) and f(<s + diff, w>)
    round apart while <diff, w> rounds to 0.
    """
    denom = _row_dot(diff, w)[:, None]
    return np.divide(change[:, None] * (diff * w), denom, out=np.zeros_like(diff),
                     where=denom != 0.0)


def numeric_rule(model_kind: str, hidden_activation: str | None = None) -> str:
    """The rule the numeric method integrates a model with: "gauss-legendre"
    for a softplus or tanh MLP, whose path integrand is analytic, else
    "midpoint" (a linear model, or a ReLU MLP's integrand with its kinks)."""
    smooth = model_kind == "mlp" and hidden_activation in ("softplus", "tanh")
    return "gauss-legendre" if smooth else "midpoint"


def check_method(method: str, steps: int, model_kind: str = "linear"):
    """Reject an unknown method, the closed form for a non-linear model kind,
    or fewer than one numeric path step."""
    if method not in ("closed", "numeric"):
        raise ValueError(f"unknown method {method!r}; use 'closed' or 'numeric'")
    if method == "closed" and model_kind != "linear":
        raise ValueError("closed form applies to linear models only")
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
    values, residual = _attribute_rows(model, ds.features[idx], u, method, steps)
    if true_class:
        flip = ds.labels[idx] == -1.0
        values[flip] = -values[flip]
    return [AttributionVector(row, r) for row, r in zip(values, residual.tolist())]


def impact_report(attribs, ds: Dataset):
    """Mean |attribution| per encoded position (one per ds.feature_names), and
    per original column (one per ds.encoding_map, its one-hot span summed)."""
    if not attribs:
        raise ValueError("no attributions given")
    value_impact = np.abs(np.array([a.values for a in attribs])).mean(axis=0)
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
