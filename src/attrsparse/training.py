"""Minibatch training loops for the four regimes: natural, worst-case
(adversarial), l1-proximal, and stable-attribution (which shares the
adversarial arithmetic step for step).
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .adversarial import PerturbationBudget, PgdConfig, default_pgd_config, pgd_perturb_batch
from .data import Dataset
from .losses import LossSpec, linear_loss_and_grads, make_loss
from .models import LinearModel, MlpModel, classify, init_mlp
from .sparseness import gini

__all__ = [
    "REGIMES",
    "TrainConfig",
    "TrainTrace",
    "TrainingDivergedError",
    "train",
    "evaluate",
    "EvalResult",
    "soft_threshold",
]

REGIMES = ("natural", "adversarial", "l1", "stable-ig")
DIVERGENCE_LIMIT = 1e6


class TrainingDivergedError(RuntimeError):
    def __init__(self, message, step):
        super().__init__(message)
        self.step = step


@dataclass
class TrainConfig:
    regime: str = "natural"
    epsilon: float = 0.0
    l1_strength: float = 0.0
    learning_rate: float = 0.01
    batch_size: int = 32
    epochs: int = 30
    seed: int = 0
    optimizer: str = "adam"
    model_kind: str = "linear"
    hidden_sizes: tuple = (16,)
    hidden_activation: str = "softplus"
    use_bias: bool = False
    pgd: PgdConfig | None = None

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}; choose one of {REGIMES}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if not (math.isfinite(self.l1_strength) and self.l1_strength >= 0):
            raise ValueError(f"l1_strength must be finite and >= 0, got {self.l1_strength}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.model_kind not in ("linear", "mlp"):
            raise ValueError(f"unknown model kind {self.model_kind!r}")


@dataclass
class TrainTrace:
    loss: list = field(default_factory=list)
    accuracy: list = field(default_factory=list)
    weight_l1: list = field(default_factory=list)
    weight_gini: list = field(default_factory=list)
    final_model: object = None

    def to_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["epoch", "loss", "acc", "l1_norm", "weight_gini"])
            rows = zip(self.loss, self.accuracy, self.weight_l1, self.weight_gini)
            for e, (lo, ac, l1, gi) in enumerate(rows, start=1):
                writer.writerow([e, repr(float(lo)), repr(float(ac)), repr(float(l1)), repr(float(gi))])


def soft_threshold(values, threshold):
    """Proximal step for an l1 penalty: shrink toward 0, landing exactly on it."""
    v = np.asarray(values, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - threshold, 0.0)


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


def _make_optimizer(kind, params, lr):
    return _Adam(params, lr) if kind == "adam" else _Sgd(params, lr)


def _weight_vector(params_w):
    return params_w[0] if len(params_w) == 1 else np.concatenate([w.ravel() for w in params_w])


def _trace_point(spec, cfg, model, weight_arrays, X, y):
    margin = model.margin(X)
    wv = _weight_vector(weight_arrays)
    l1 = float(np.abs(wv).sum())
    if cfg.regime in ("adversarial", "stable-ig") and not isinstance(model, MlpModel):
        z = cfg.epsilon * l1 - y * margin
    else:
        z = -y * margin
    mean_loss = float(spec.g(z).mean())
    if cfg.regime == "l1":
        mean_loss += cfg.l1_strength * l1
    acc = float((np.where(np.asarray(margin) >= 0.0, 1.0, -1.0) == y).mean())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        wg = gini(np.abs(wv))
    return mean_loss, acc, l1, wg


def train(ds: Dataset, spec: LossSpec, cfg: TrainConfig):
    """Fit a model on the training split; deterministic given cfg.seed.

    Returns (model, trace). The adversarial regime perturbs every batch
    example with the current-weight closed form (linear) or projected
    gradient ascent (MLP) before the gradient step; the stable-ig regime is
    the same arithmetic by the worst-case-attribution equivalence and is
    limited to linear models; l1 applies proximal soft-thresholding to the
    weights (never the bias) after every optimizer step.
    """
    if not ds.binary:
        raise ValueError("binary labels required")
    if cfg.regime == "stable-ig" and cfg.model_kind != "linear":
        raise ValueError("stable-ig training requires a linear model")
    X, y = ds.features[ds.train_indices], ds.labels[ds.train_indices]
    n, d = X.shape
    rng = np.random.default_rng(cfg.seed)
    epsilon = cfg.epsilon if cfg.regime in ("adversarial", "stable-ig") else 0.0

    if cfg.model_kind == "linear":
        w = np.zeros(d)
        bias = np.zeros(()) if cfg.use_bias else None
        params = [w] + ([bias] if bias is not None else [])
        model = None
        weight_arrays = [w]
    else:
        model = init_mlp([d, *cfg.hidden_sizes, 1], rng, cfg.hidden_activation)
        params = list(model.weights) + list(model.biases)
        weight_arrays = model.weights
        budget = PerturbationBudget(epsilon)
        pgd_cfg = cfg.pgd or default_pgd_config(epsilon, seed=cfg.seed)

    optimizer = _make_optimizer(cfg.optimizer, params, cfg.learning_rate)
    prox = cfg.regime == "l1" and cfg.l1_strength > 0.0
    threshold = cfg.learning_rate * cfg.l1_strength
    trace = TrainTrace()
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            Xb, yb = X[batch], y[batch]
            if model is None:
                losses, grads, _ = linear_loss_and_grads(spec, w, bias, Xb, yb, epsilon)
            else:
                if epsilon > 0.0:
                    Xb = Xb + pgd_perturb_batch(model, Xb, yb, budget, pgd_cfg, spec=spec, rng=rng)
                losses, grads, _ = model.loss_and_grads(spec, Xb, yb)
            grads = [g / batch.size for g in grads]
            batch_loss = float(losses.mean())
            if cfg.regime == "l1":
                batch_loss += cfg.l1_strength * float(np.abs(_weight_vector(weight_arrays)).sum())
            if not np.isfinite(batch_loss) or batch_loss > DIVERGENCE_LIMIT:
                raise TrainingDivergedError(
                    f"objective {batch_loss!r} exceeded {DIVERGENCE_LIMIT:g} at step {step}", step)
            optimizer.step(grads)
            if prox:
                for arr in weight_arrays:
                    arr[...] = soft_threshold(arr, threshold)
            step += 1
        snapshot = model if model is not None else LinearModel(
            w=w.copy(), activation="sigmoid",
            bias=None if bias is None else float(bias[()]))
        lo_, ac_, l1_, gi_ = _trace_point(spec, cfg, snapshot, weight_arrays, X, y)
        trace.loss.append(lo_)
        trace.accuracy.append(ac_)
        trace.weight_l1.append(l1_)
        trace.weight_gini.append(gi_)

    if cfg.model_kind == "linear":
        final = LinearModel(w=w.copy(), activation="sigmoid",
                            bias=None if bias is None else float(bias[()]))
    else:
        final = model
    trace.final_model = final
    return final, trace


@dataclass(frozen=True)
class EvalResult:
    accuracy: float
    mean_loss: float


def evaluate(model, ds: Dataset, split: str = "test", spec: LossSpec | None = None) -> EvalResult:
    """Accuracy (0.5 threshold, ties to +1) and mean natural loss on a split."""
    spec = spec or make_loss("logistic-nll")
    idx = ds.split(split)
    if idx.size == 0:
        raise ValueError(f"{split} split is empty")
    X = ds.features[idx]
    y = ds.labels[idx]
    preds = classify(model, X)
    acc = float((preds == y).mean())
    mean_loss = float(spec.g(-y * model.margin(X)).mean())
    return EvalResult(acc, mean_loss)
