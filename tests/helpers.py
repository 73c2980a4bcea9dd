"""Shared test utilities: one-row views of the program's split kernels, the
exact references tests compare the program against, surrogate dataset
generators and file loaders.

The surrogate generators produce data with the same shape and texture as the
two real tabular benchmarks (one all-categorical, one all-numeric) so the
full pipeline can be exercised hermetically. They make no claim of matching
the published numbers; quantitative reproduction tests run only against the
real files (see data/README.md).
"""
from __future__ import annotations

import csv
import math
import os

import numpy as np

from attrsparse.attribution import AttributionVector, _attribute_rows
from attrsparse.data import Dataset, load_csv
from attrsparse.losses import LossSpec, linear_loss_and_grads, sigmoid
from attrsparse.models import LinearModel, MlpModel, init_mlp
from attrsparse.sparseness import gini_rows
from attrsparse.theory import TheoremCheckResult, check_theorem1_bound
from attrsparse.training import soft_threshold

DATA_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "data")
MUSHROOM_PATH = os.path.abspath(os.path.join(DATA_DIR, "mushroom.csv"))
SPAMBASE_PATH = os.path.abspath(os.path.join(DATA_DIR, "spambase.csv"))


def one_row(check, spec, *instance) -> float:
    """A row-block theorem check (w, x, ... as (m, d) and (m,) blocks) on one
    1-d instance, passed as a (1, d) block; returns its one row."""
    return float(check(spec, *(np.asarray(t, dtype=float)[None] for t in instance))[0])


def ig_row(model, x, u, steps=None) -> AttributionVector:
    """Integrated gradients of one input x against the baseline u: the
    program's split kernel by the closed form, or numerically with ``steps``
    path points, run on x as a (1, d) block."""
    X = np.asarray(x, dtype=float)[None, :]
    method = "closed" if steps is None else "numeric"
    values, residual = _attribute_rows(model, X, np.asarray(u, dtype=float), method, steps)
    return AttributionVector(values[0], float(residual[0]))


def gini_row(v) -> float:
    """The program's gini_rows on one vector, passed as a (1, d) block."""
    return float(gini_rows(np.asarray(v, dtype=float)[None, :])[0])


def loss(spec: LossSpec, model, x, y):
    """Natural loss g(-y * margin) of a model on one example (or a batch)."""
    margin = model.margin(x)
    return spec.g(-np.asarray(y, dtype=float) * margin)


def closed_form_perturbation(model: LinearModel, y, epsilon: float):
    """Loss-maximizing perturbation -y * sign(w) * eps (sign(0) = 0).

    Independent of x: the worst case pushes every coordinate against the
    weight's sign. Coordinates with w_i = 0 do not affect the loss and stay 0.
    """
    return -np.asarray(y, dtype=float)[..., None] * np.sign(model.w) * epsilon


def adversarial_loss(spec: LossSpec, model: LinearModel, x, y, epsilon: float):
    """Worst-case loss over the eps-box: g(eps*||w||_1 - y*<w,x>).

    Accepts one example or a batch; equals the natural loss at
    x + closed_form_perturbation exactly.
    """
    margin = model.margin(x)
    y = np.asarray(y, dtype=float)
    return spec.g(epsilon * np.abs(model.w).sum() - y * margin)


def theorem1_limit(spec, w, subset, epsilon, sampler, n, scales=(1.0, 0.1, 0.01, 0.001), seed=0):
    """Shrinking the weights toward 0 must shrink the bound-vs-update residual.

    Runs check_theorem1_bound at each scale of w (common random numbers
    across scales): the residual is |estimate - reference| and its paired SE
    is se. Each residual may exceed the previous one by at most 3 of their
    SEs."""
    results = []
    for scale in scales:
        bound = check_theorem1_bound(spec, scale * w, subset, epsilon, sampler, n, seed=seed)
        residual = abs(bound.estimate - bound.reference)
        passed = not results or residual <= results[-1].estimate + 3.0 * (bound.se + results[-1].se)
        results.append(TheoremCheckResult(
            check_id=f"limit-equality[scale={scale:g}]",
            estimate=residual,
            reference=0.0,
            se=bound.se,
            n_samples=n,
            passed=bool(passed),
            detail=f"loss={spec.kind} eps={epsilon}",
        ))
    return results


def expected_update_exact(spec, w, strengths, noise_sd, epsilon, nodes=160):
    """The exact E[g'(z) * (y*x_i - sign(w_i)*eps)] for every i, and E[g'(z)],
    under the Gaussian sampler, at z = eps*|w|_1 - y*<w, x>.

    With n = y * noise, y*x = a + n, and t = <w, n> ~ N(0, sd^2 |w|^2) carries
    all of z's randomness; E[n_i | t] = w_i t / |w|^2, so each coordinate is a
    1-d integral over t, taken by Gauss-Hermite quadrature (probabilists'
    nodes) for a smooth loss. For hinge, g'(z) = 1{t < c} with c = 1 +
    eps*|w|_1 - <w, a>, so with s = sd |w|, E[g'] = Phi(c/s) and
    E[update_i] = Phi(c/s) (a_i - sign(w_i) eps) - (w_i / |w|^2) s phi(c/s),
    taken from math.erf rather than spec.gprime. The class balance drops
    out. w must not vanish. Returns (E[update] (d,), E[g'(z)]).
    """
    w, a = np.asarray(w, dtype=float), np.asarray(strengths, dtype=float)
    norm2 = float(w @ w)
    if spec.kind == "hinge":
        s = noise_sd * math.sqrt(norm2)
        c = (1.0 + epsilon * np.abs(w).sum() - w @ a) / s
        cdf = 0.5 * (1.0 + math.erf(c / math.sqrt(2.0)))
        pdf = math.exp(-0.5 * c * c) / math.sqrt(2.0 * math.pi)
        return cdf * (a - np.sign(w) * epsilon) - w / norm2 * s * pdf, cdf
    u, weights = np.polynomial.hermite_e.hermegauss(nodes)
    weights = weights / weights.sum()
    t = noise_sd * math.sqrt(norm2) * u
    slope = weights * spec.gprime(epsilon * np.abs(w).sum() - w @ a - t)
    given_t = (a - np.sign(w) * epsilon)[:, None] + w[:, None] * (t / norm2)[None, :]
    return given_t @ slope, float(slope.sum())


def gini_row_reference(v) -> float:
    """The Gini index of one non-negative vector in the rank form with exact
    sums, coded one 1-d row at a time (0 for an all-zero vector)."""
    v = np.asarray(v, dtype=float)
    total = math.fsum(v.tolist())
    if total == 0.0:
        return 0.0
    d = v.size
    ordered = np.sort(v, kind="stable")
    ranks = 2.0 * np.arange(1, d + 1) - d - 1
    return max(math.fsum((ordered * ranks).tolist()) / (d * total), 0.0)


def _path_input_grads(model, x, u, alphas):
    """The model's input gradient at each path point u + alpha (x - u),
    taken directly: by a full reverse pass through an MLP and as p(1-p) * w
    (w for the identity activation) for a linear model. Returns (S, d)."""
    points = u[None, :] + alphas[:, None] * (x - u)[None, :]
    if isinstance(model, MlpModel):
        cache = model._forward(points)
        p = sigmoid(cache[0])
        return model.backprop(cache, p * (1.0 - p), "first") @ model.weights[0].swapaxes(-1, -2)
    if model.activation == "identity":
        return np.ones((alphas.size, 1)) * model.w
    p = sigmoid(model.margin(points))
    return (p * (1.0 - p))[:, None] * model.w


def _completeness_residual(model, x, u, values) -> float:
    fx = float(np.asarray(model.value(x)))
    fu = float(np.asarray(model.value(u)))
    return abs(float(values.sum()) - (fx - fu))


def ig_midpoint_reference(model, x, u, steps):
    """The midpoint rule evaluated point by point: the model's input
    gradient at all S path points, averaged. Returns (values, residual)."""
    alphas = (np.arange(1, steps + 1) - 0.5) / steps
    values = (x - u) * _path_input_grads(model, x, u, alphas).mean(axis=0)
    return values, _completeness_residual(model, x, u, values)


def ig_gauss_legendre_reference(model, x, u, steps, start=32, tol=1e-10):
    """Gauss-Legendre path integration evaluated point by point for one row:
    numpy's rule on [-1, 1] mapped to [0, 1] (nodes (t + 1)/2, weights w/2),
    first min(steps, start) nodes, doubled up to steps while the completeness
    residual exceeds tol. Returns (values, residual, nodes used)."""
    nodes = min(steps, start)
    while True:
        t, w = np.polynomial.legendre.leggauss(nodes)
        grads = _path_input_grads(model, x, u, (t + 1.0) / 2.0)
        values = (x - u) * (w[:, None] / 2.0 * grads).sum(axis=0)
        residual = _completeness_residual(model, x, u, values)
        if residual <= tol or nodes == steps:
            return values, residual, nodes
        nodes = min(2 * nodes, steps)


def pgd_clip_reference(model, X, y, eps, cfg, spec, rng):
    """Projected signed-gradient ascent on an MLP written with fresh arrays,
    a full forward and input reverse pass and np.clip at every step: the
    plain form of adversarial.pgd_perturb_batch."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    delta = rng.uniform(-eps, eps, size=X.shape)
    start = delta.copy()
    start_loss = loss(spec, model, X + delta, y)
    for _ in range(cfg.steps):
        cache = model._forward(X + delta)
        first = model.backprop(cache, -y * spec.gprime(-y * cache[0]), "first")
        dx = first @ model.weights[0].swapaxes(-1, -2)
        delta = np.clip(delta + cfg.step_size * np.sign(dx), -eps, eps)
    final_loss = loss(spec, model, X + delta, y)
    worse = final_loss < start_loss
    if np.any(worse):
        delta[worse] = start[worse]
    return delta


class _Sgd:
    def __init__(self, params, lr):
        self.params = params
        self.lr = lr

    def step(self, grads):
        for p, g in zip(self.params, grads):
            p -= self.lr * g


class _Adam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        correction1 = 1.0 - b1**self.t
        correction2 = 1.0 - b2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= self.lr * (m / correction1) / (np.sqrt(v / correction2) + self.eps)


def train_reference(ds, spec: LossSpec, cfg):
    """training.train for one linear model, or one MLP outside the PGD
    regime, with one parameter array per layer and bias: the optimizer
    updates each array and the l1 prox shrinks each weight array in turn.
    Returns the fitted model."""
    X, y = ds.features[ds.train_indices], ds.labels[ds.train_indices]
    n, d = X.shape
    rng = np.random.default_rng(cfg.seed)
    epsilon = np.asarray([cfg.epsilon if cfg.regime in ("adversarial", "stable-ig") else 0.0])
    prox = np.asarray([cfg.regime == "l1" and cfg.l1_strength > 0.0])
    threshold = cfg.learning_rate * np.asarray([cfg.l1_strength])[prox]
    if cfg.model_kind == "linear":
        params = [np.zeros((1, d))] + ([np.zeros(1)] if cfg.use_bias else [])
        weights = params[:1]
    else:
        one = init_mlp([d, *cfg.hidden_sizes, 1], rng, cfg.hidden_activation)
        stack = MlpModel(weights=[W[None] for W in one.weights],
                         biases=[b[None] for b in one.biases],
                         hidden_activation=cfg.hidden_activation)
        params = stack.weights + stack.biases
        weights = stack.weights
    optimizer = (_Adam if cfg.optimizer == "adam" else _Sgd)(params, cfg.learning_rate)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            Xb, yb = X[batch], y[batch]
            if cfg.model_kind == "linear":
                bias = params[1] if cfg.use_bias else None
                _, grads, _ = linear_loss_and_grads(spec, params[0], bias, Xb, yb, epsilon)
            else:
                _, grads = stack.loss_and_grads(spec, Xb, yb)
            grads = [g / batch.size for g in grads]
            optimizer.step(grads)
            if prox.any():
                for arr in weights:
                    thr = threshold.reshape((-1,) + (1,) * (arr.ndim - 1))
                    arr[prox] = soft_threshold(arr[prox], thr)
    if cfg.model_kind == "linear":
        return LinearModel(w=params[0][0], bias=float(params[1][0]) if cfg.use_bias else None)
    return MlpModel(weights=[W[0] for W in weights], biases=[b[0] for b in stack.biases],
                    hidden_activation=cfg.hidden_activation)


def make_categorical_csv(path, n=2000, seed=0) -> str:
    """All-categorical binary task: a few strongly informative columns, a few
    weak ones, several pure-noise ones; single-letter categories."""
    rng = np.random.default_rng(seed)
    y = rng.uniform(size=n) < 0.48
    rows = []
    strong_cats = np.array(list("abcdef"))
    noise_cats = np.array(list("xyzw"))
    for i in range(n):
        label = "p" if y[i] else "e"
        row = [label]
        # two near-deterministic columns (like a dominant categorical marker)
        for flip_p in (0.02, 0.05):
            flip = rng.uniform() < flip_p
            side = y[i] ^ flip
            row.append(strong_cats[rng.integers(0, 3) + (3 if side else 0)])
        # three weakly informative columns
        for shift in (0.25, 0.2, 0.15):
            p = 0.5 + (shift if y[i] else -shift)
            row.append("t" if rng.uniform() < p else "f")
        # five noise columns
        for _ in range(5):
            row.append(noise_cats[rng.integers(0, len(noise_cats))])
        rows.append(row)
    header = ["class"] + [f"c{j}" for j in range(1, 11)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def make_numeric_csv(path, n=1500, n_features=57, seed=0) -> str:
    """All-numeric binary task: skewed non-negative features, a handful of
    informative columns, the rest noise."""
    rng = np.random.default_rng(seed)
    y = (rng.uniform(size=n) < 0.4).astype(float)
    X = rng.exponential(scale=0.5, size=(n, n_features))
    informative = rng.choice(n_features, size=10, replace=False)
    for k, j in enumerate(informative):
        lift = 0.8 + 0.2 * k
        X[:, j] += lift * y * rng.exponential(scale=1.0, size=n)
    header = [f"f{j}" for j in range(n_features)] + ["label"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(n):
            writer.writerow([f"{v:.6f}" for v in X[i]] + [int(y[i])])
    return str(path)


def categorical_schema(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    return [(name, "categorical") for name in header if name != "class"]


def numeric_schema(path, label="label") -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    return [(name, "numeric") for name in header if name != label]


def _has_header(first_row, known_labels) -> bool:
    return not any(cell in known_labels for cell in first_row)


def load_mushroom_file(path, tmp_dir) -> Dataset:
    """Accepts the raw benchmark file (headerless, label first, 22 categorical
    attributes) or the same data with a header row."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise ValueError(f"{path}: empty")
    if _has_header(rows[0], {"e", "p"}):
        header, body = rows[0], rows[1:]
        label_col = header[0]
    else:
        header = ["class"] + [f"a{j}" for j in range(1, len(rows[0]))]
        body, label_col = rows, "class"
    staged = os.path.join(tmp_dir, "mushroom_headed.csv")
    with open(staged, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(body)
    schema = [(name, "categorical") for name in header if name != label_col]
    return load_csv(staged, schema, label_col, split_seed=0)


def load_spambase_file(path, tmp_dir) -> Dataset:
    """Accepts the raw benchmark file (headerless, 57 numeric columns, 0/1
    label last) or the same data with a header row."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise ValueError(f"{path}: empty")
    def _numeric_row(row):
        try:
            [float(v) for v in row]
            return True
        except ValueError:
            return False
    if _numeric_row(rows[0]):
        header = [f"f{j}" for j in range(len(rows[0]) - 1)] + ["label"]
        body = rows
    else:
        header, body = rows[0], rows[1:]
    label_col = header[-1]
    staged = os.path.join(tmp_dir, "spambase_headed.csv")
    with open(staged, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(body)
    schema = [(name, "numeric") for name in header if name != label_col]
    return load_csv(staged, schema, label_col, split_seed=0)
