"""The minibatch training loop for the four regimes: natural, worst-case
(adversarial), l1-proximal, and stable-attribution (which shares the
adversarial arithmetic step for step), run over a stack of models that
share one random stream.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._util import write_csv
from .adversarial import default_pgd_config, pgd_perturb_batch
from .data import Dataset
from .losses import LossSpec, linear_loss_and_grads
from .models import LinearModel, MlpModel, classify, init_mlp
from .sparseness import gini_rows

__all__ = [
    "REGIMES",
    "TrainConfig",
    "TrainTrace",
    "TrainingDivergedError",
    "train",
    "train_many",
    "uses_pgd",
    "regime_tag",
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

    def to_csv(self, path):
        rows = zip(self.loss, self.accuracy, self.weight_l1, self.weight_gini)
        write_csv(path, ["epoch", "loss", "acc", "l1_norm", "weight_gini"],
                  ([e, *point] for e, point in enumerate(rows, start=1)))


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


def _weight_rows(weights):
    """Every weight of each model in a stack, one row per model, in layer order."""
    return np.concatenate([W.reshape(W.shape[0], -1) for W in weights], axis=1)


def regime_tag(cfg):
    """The regime with its strength, e.g. "adversarial(eps=0.1)": how reports
    and errors name a model."""
    if cfg.regime in ("adversarial", "stable-ig"):
        return f"{cfg.regime}(eps={cfg.epsilon:g})"
    if cfg.regime == "l1":
        return f"l1(lam={cfg.l1_strength:g})"
    return cfg.regime


def _trace_points(spec, margins, rows, y, epsilon, is_l1, lam):
    """Loss, accuracy, weight l1 norm and weight Gini of every model in a
    stack on the training split: one row of each per model.

    margins is (k, n); rows holds each model's weights, one row per model.
    Each model's loss is g(eps*||w||_1 - y*margin), with epsilon non-zero
    only for the linear models trained on the eps-box's worst case; l1
    models add lam * ||w||_1.
    """
    l1 = np.abs(rows).sum(axis=1)
    z = epsilon[:, None] * l1[:, None] - y * margins
    mean_loss = spec.g(z).mean(axis=1)
    mean_loss[is_l1] += lam[is_l1] * l1[is_l1]
    acc = (np.where(margins >= 0.0, 1.0, -1.0) == y).mean(axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        wg = gini_rows(np.abs(rows))
    return mean_loss, acc, l1, wg


_SHARED = ("seed", "epochs", "batch_size", "optimizer", "learning_rate", "model_kind", "use_bias")
_SHARED_MLP = ("hidden_sizes", "hidden_activation")


def uses_pgd(cfg):
    """True for an MLP fit that draws PGD starts from its seed's stream, so
    it cannot share that stream with other fits."""
    return cfg.model_kind == "mlp" and cfg.regime == "adversarial" and cfg.epsilon > 0.0


def _check_stack(cfgs):
    if not cfgs:
        raise ValueError("train_many needs at least one config")
    first = cfgs[0]
    shared = _SHARED + (_SHARED_MLP if first.model_kind == "mlp" else ())
    for cfg in cfgs:
        if cfg.regime == "stable-ig" and cfg.model_kind != "linear":
            raise ValueError("stable-ig training requires a linear model")
        for name in shared:
            if getattr(cfg, name) != getattr(first, name):
                raise ValueError(f"stacked configs must share {name}: {getattr(first, name)!r} "
                                 f"!= {getattr(cfg, name)!r}")
        if len(cfgs) > 1 and uses_pgd(cfg):
            raise ValueError(f"{regime_tag(cfg)} draws PGD starts from the shared generator "
                             "and must train alone")


def _unstack(cfg, params, i, copy=False):
    """Model i of the stack, viewing the stacked parameters unless copy."""
    take = (lambda a: a[i].copy()) if copy else (lambda a: a[i])
    if cfg.model_kind == "linear":
        bias = None if len(params) == 1 else float(params[1][i])
        return LinearModel(w=take(params[0]), activation="sigmoid", bias=bias)
    half = len(params) // 2
    return MlpModel(weights=[take(W) for W in params[:half]],
                    biases=[take(b) for b in params[half:]],
                    hidden_activation=cfg.hidden_activation)


# Overflow in a step's arithmetic shows up as a non-finite objective, which
# the divergence check below reports by model and step.
@np.errstate(over="ignore", invalid="ignore")
def train_many(ds: Dataset, spec: LossSpec, cfgs, *, trace=True):
    """Fit one model per config as one stacked program; deterministic given
    the shared seed.

    The configs must share one random stream: the same seed, epochs, batch
    size, optimizer, learning rate, model kind and shape, and bias. Every
    parameter carries a leading model axis, and each model keeps its own
    epsilon, l1 strength and proximal mask, so each returned (model, trace)
    is bit-identical to that config trained alone. An adversarial MLP with
    eps > 0 draws its PGD starts from the shared stream and must be alone.

    The adversarial regime perturbs every batch example with the
    current-weight closed form (linear) or projected gradient ascent (MLP)
    before the gradient step; the stable-ig regime is the same arithmetic by
    the worst-case-attribution equivalence and is limited to linear models;
    l1 applies proximal soft-thresholding to the weights (never the bias)
    after every optimizer step. Returns [(model, trace)] in config order;
    trace=False skips the per-epoch training-split pass and returns
    (model, None).
    """
    cfgs = list(cfgs)
    _check_stack(cfgs)
    if not ds.binary:
        raise ValueError("binary labels required")
    cfg, k = cfgs[0], len(cfgs)
    X, y = ds.features[ds.train_indices], ds.labels[ds.train_indices]
    n, d = X.shape
    rng = np.random.default_rng(cfg.seed)
    epsilon = np.asarray([c.epsilon if c.regime in ("adversarial", "stable-ig") else 0.0
                          for c in cfgs])
    is_l1 = np.asarray([c.regime == "l1" for c in cfgs])
    lam = np.asarray([c.l1_strength for c in cfgs])
    prox = is_l1 & (lam > 0.0)
    threshold = cfg.learning_rate * lam[prox]
    any_l1, any_prox = bool(is_l1.any()), bool(prox.any())

    if cfg.model_kind == "linear":
        bias = np.zeros(k) if cfg.use_bias else None
        params = [np.zeros((k, d))] + ([bias] if cfg.use_bias else [])
        weights = params[:1]
        stack = pgd_model = None
    else:
        one = init_mlp([d, *cfg.hidden_sizes, 1], rng, cfg.hidden_activation)
        stack = MlpModel(weights=[np.repeat(W[None], k, axis=0) for W in one.weights],
                         biases=[np.repeat(b[None], k, axis=0) for b in one.biases],
                         hidden_activation=cfg.hidden_activation)
        params = stack.weights + stack.biases
        weights = stack.weights
        pgd_model = _unstack(cfg, params, 0) if uses_pgd(cfg) else None

    optimizer = _make_optimizer(cfg.optimizer, params, cfg.learning_rate)
    trace_eps = epsilon if stack is None else np.zeros(k)  # an MLP traces its natural loss
    traces = [TrainTrace() if trace else None for _ in cfgs]
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            Xb, yb = X[batch], y[batch]
            if stack is None:
                losses, grads = linear_loss_and_grads(spec, params[0], bias, Xb, yb, epsilon)
            else:
                if pgd_model is not None:
                    Xb = Xb + pgd_perturb_batch(pgd_model, Xb, yb, cfg.epsilon,
                                                default_pgd_config(cfg.epsilon), spec, rng)
                losses, grads = stack.loss_and_grads(spec, Xb, yb)
            grads = [g / batch.size for g in grads]
            batch_loss = losses.mean(axis=-1)
            if any_l1:
                l1 = np.abs(_weight_rows([W[is_l1] for W in weights])).sum(axis=1)
                batch_loss[is_l1] += lam[is_l1] * l1
            bad = ~(batch_loss <= DIVERGENCE_LIMIT)  # NaN compares False too
            if bad.any():
                i = int(np.argmax(bad))
                raise TrainingDivergedError(
                    f"{regime_tag(cfgs[i])}: objective {float(batch_loss[i])!r} exceeded "
                    f"{DIVERGENCE_LIMIT:g} at step {step}", step)
            optimizer.step(grads)
            if any_prox:
                for arr in weights:
                    thr = threshold.reshape((-1,) + (1,) * (arr.ndim - 1))
                    arr[prox] = soft_threshold(arr[prox], thr)
            step += 1
        if not trace:
            continue
        if stack is None:
            margins = np.matmul(X, params[0][..., None])[..., 0]
            if bias is not None:
                margins = margins + bias[:, None]
        else:
            margins = stack.margin(X)
        points = _trace_points(spec, margins, _weight_rows(weights), y,
                               trace_eps, is_l1, lam)
        for tr, point in zip(traces, zip(*(p.tolist() for p in points))):
            for series, value in zip((tr.loss, tr.accuracy, tr.weight_l1, tr.weight_gini), point):
                series.append(value)

    return [(_unstack(c, params, i, copy=True), tr)
            for i, (c, tr) in enumerate(zip(cfgs, traces))]


def train(ds: Dataset, spec: LossSpec, cfg: TrainConfig):
    """Fit one model on the training split: the k=1 case of train_many.

    Returns (model, trace).
    """
    return train_many(ds, spec, [cfg])[0]


@dataclass(frozen=True)
class EvalResult:
    accuracy: float
    mean_loss: float


def evaluate(model, ds: Dataset, spec: LossSpec, split: str = "test") -> EvalResult:
    """Accuracy (0.5 threshold, ties to +1) and mean natural loss on a split."""
    idx = ds.split(split)
    if idx.size == 0:
        raise ValueError(f"{split} split is empty")
    X = ds.features[idx]
    y = ds.labels[idx]
    preds = classify(model, X)
    acc = float((preds == y).mean())
    mean_loss = float(spec.g(-y * model.margin(X)).mean())
    return EvalResult(acc, mean_loss)
