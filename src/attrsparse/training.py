"""The minibatch training loop for the four regimes: natural, worst-case
(adversarial), l1-proximal, and stable-attribution (which shares the
adversarial arithmetic step for step), run over a stack of models, each
drawing from the random stream it would draw from alone.
"""
from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._util import write_csv
from .adversarial import default_pgd_config, pgd_perturb_batch
from .data import Dataset
from .losses import LossSpec, linear_loss_and_grads, sigmoid
from .models import MODEL_KINDS, LinearModel, MlpModel, init_mlp
from .sparseness import gini_rows

__all__ = [
    "REGIMES",
    "OPTIMIZERS",
    "TrainConfig",
    "TrainTrace",
    "TrainingDivergedError",
    "train",
    "train_many",
    "regime_tag",
    "evaluate",
    "EvalResult",
    "soft_threshold",
]

REGIMES = ("natural", "adversarial", "l1", "stable-ig")
OPTIMIZERS = ("adam", "sgd")
DIVERGENCE_LIMIT = 1e6
# default_pgd_config's floor(100*eps) + 10 steps per batch stay within
# MAX_PGD_STEPS exactly when eps < MAX_PGD_EPS, in floating point too
MAX_PGD_STEPS, MAX_PGD_EPS = 1000, 9.91


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
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.model_kind!r}")
        if _uses_pgd(self) and self.epsilon >= MAX_PGD_EPS:
            raise ValueError(f"epsilon {self.epsilon:g} asks an adversarial MLP for more than "
                             f"{MAX_PGD_STEPS} PGD steps per batch; it must be < {MAX_PGD_EPS:g}")
        if self.use_bias and self.model_kind == "mlp":
            raise ValueError("use_bias applies to linear models only: an MLP always has biases")
        # -0.0 is stored as +0.0, so that it names its model as 0.0 does
        self.epsilon, self.l1_strength = (abs(v) if v == 0 else v
                                          for v in (self.epsilon, self.l1_strength))


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
    def __init__(self, param, lr):
        self.param = param
        self.lr = lr

    def step(self, grad):
        self.param -= self.lr * grad


class _Adam:
    def __init__(self, param, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.param = param
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = np.zeros_like(param)
        self.v = np.zeros_like(param)
        self.t = 0

    def step(self, g):
        self.t += 1
        b1, b2, m, v = self.beta1, self.beta2, self.m, self.v
        correction1 = 1.0 - b1**self.t
        correction2 = 1.0 - b2**self.t
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        self.param -= self.lr * (m / correction1) / (np.sqrt(v / correction2) + self.eps)


def regime_tag(cfg):
    """The regime with its strength, e.g. "adversarial(eps=0.1)": how reports
    and errors name a model."""
    if cfg.regime in ("adversarial", "stable-ig"):
        return f"{cfg.regime}(eps={cfg.epsilon:g})"
    if cfg.regime == "l1":
        return f"l1(lam={cfg.l1_strength:g})"
    return cfg.regime


def _trace_points(margins, weights, y):
    """Accuracy and weight Gini of every model in a stack on the training
    split, the trace's columns besides the objective's."""
    acc = (np.where(margins >= 0.0, 1.0, -1.0) == y).mean(axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an all-zero row of weights scores 0
        return acc, gini_rows(np.abs(weights))


def _check_objective(objective, cfgs, step):
    """Raise TrainingDivergedError naming the first model whose objective is
    NaN or above DIVERGENCE_LIMIT after step updates."""
    bad = ~(objective <= DIVERGENCE_LIMIT)  # NaN compares False too
    if bad.any():
        i = int(np.argmax(bad))
        raise TrainingDivergedError(
            f"{regime_tag(cfgs[i])}: objective {float(objective[i])!r} exceeded "
            f"{DIVERGENCE_LIMIT:g} at step {step}", step)


_SHARED = ("seed", "epochs", "batch_size", "optimizer", "learning_rate", "model_kind", "use_bias")
_SHARED_MLP = ("hidden_sizes", "hidden_activation")


def _uses_pgd(cfg):
    """True for an MLP fit that draws PGD starts, so it owns its stream."""
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


def _unstack(cfg, params, i, copy=False):
    """Model i of the stack, viewing the stacked parameters unless copy."""
    pick = (lambda a: a[i].copy()) if copy else (lambda a: a[i])
    if cfg.model_kind == "linear":
        bias = None if len(params) == 1 else float(params[1][i])
        return LinearModel(w=pick(params[0]), activation="sigmoid", bias=bias)
    half = len(params) // 2
    return MlpModel(weights=[pick(W) for W in params[:half]],
                    biases=[pick(b) for b in params[half:]],
                    hidden_activation=cfg.hidden_activation)


# Overflow in a step's arithmetic shows up as a non-finite objective, which
# the divergence check below reports by model and step.
@np.errstate(over="ignore", invalid="ignore")
def train_many(ds: Dataset, spec: LossSpec, cfgs, *, trace=True):
    """Fit one model per config as one stacked program; deterministic given
    the seed.

    The configs must share the seed, epochs, batch size, optimizer, learning
    rate, model kind and shape, and bias. Each fit draws from the generator
    train() gives it, default_rng(seed): the fits that draw no PGD start
    share that stream and so one permutation per epoch, and each adversarial
    MLP with eps > 0 owns a copy of it for its permutations and PGD starts.
    Every parameter carries a leading model axis, and each model keeps its
    own batch rows, epsilon, l1 strength and proximal mask, so each returned
    (model, trace) is bit-identical to that config trained alone.

    The adversarial regime perturbs every batch example with the
    current-weight closed form (linear) or projected gradient ascent (MLP),
    one pgd_perturb_batch call per PGD fit on its row of the stack, before
    the gradient step; the stable-ig regime is the same arithmetic by the
    worst-case-attribution equivalence and is limited to linear models; l1
    applies proximal soft-thresholding to the weights (never the bias) after
    every optimizer step. Returns [(model, trace)] in config order;
    trace=False skips the per-epoch trace and returns (model, None). Each
    step's result is checked before anything reads it: by the batch
    objective before the next step, and after an epoch's last step by the
    training split's objective (an MLP's natural loss), on every epoch when
    tracing and on the last one otherwise. A divergence is raised at the
    first check any model fails, naming the first such model in config order.
    """
    cfgs = list(cfgs)
    _check_stack(cfgs)
    cfg, k = cfgs[0], len(cfgs)
    X, y = ds.features[ds.train_indices], ds.labels[ds.train_indices]
    n, d = X.shape
    rng = np.random.default_rng(cfg.seed)
    epsilon = np.asarray([c.epsilon if c.regime in ("adversarial", "stable-ig") else 0.0
                          for c in cfgs])
    is_l1 = np.asarray([c.regime == "l1" for c in cfgs])
    lam = np.asarray([c.l1_strength for c in cfgs])
    prox = is_l1 & (lam > 0.0)
    threshold = cfg.learning_rate * lam[prox][:, None]
    any_l1, any_prox = bool(is_l1.any()), bool(prox.any())

    # Every parameter of model i lives in row i of flat, weights first in
    # layer order; the stack's parameter arrays are views into it.
    if cfg.model_kind == "linear":
        flat = np.zeros((k, d + cfg.use_bias))
        params = [flat[:, :d]] + ([flat[:, d]] if cfg.use_bias else [])
        bias = params[1] if cfg.use_bias else None
        n_weights = d
        stack = None
    else:
        one = init_mlp([d, *cfg.hidden_sizes, 1], rng, cfg.hidden_activation)
        parts = one.weights + one.biases
        flat = np.repeat(np.concatenate([p.ravel() for p in parts])[None], k, axis=0)
        ends = np.cumsum([p.size for p in parts])
        params = [flat[:, end - p.size:end].reshape((k,) + p.shape) for p, end in zip(parts, ends)]
        n_weights = int(ends[len(one.weights) - 1])
        stack = MlpModel(weights=params[:len(one.weights)], biases=params[len(one.weights):],
                         hidden_activation=cfg.hidden_activation)
    # Each PGD fit views its row of the stack and owns a copy of the stream
    # in the state the init left, for its permutations and PGD starts.
    pgd = {i: (_unstack(c, params, i), default_pgd_config(c.epsilon), copy.deepcopy(rng))
           for i, c in enumerate(cfgs) if _uses_pgd(c)}

    optimizer = (_Adam if cfg.optimizer == "adam" else _Sgd)(flat, cfg.learning_rate)
    split_eps = epsilon if stack is None else np.zeros(k)  # an MLP's split loss is natural
    traces = [TrainTrace() if trace else None for _ in cfgs]
    step = 0
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n) if len(pgd) < k else None  # the shared stream's order
        if pgd:  # one row of batch indices per model
            perm = np.stack([pgd[i][2].permutation(n) if i in pgd else perm for i in range(k)])
        for lo in range(0, n, cfg.batch_size):
            rows = perm[..., lo:lo + cfg.batch_size]
            Xb, yb = X[rows], y[rows]
            if stack is None:
                losses, grads = linear_loss_and_grads(spec, params[0], bias, Xb, yb, epsilon)
            else:
                for i, (model, pgd_cfg, stream) in pgd.items():
                    Xb[i] += pgd_perturb_batch(model, Xb[i], yb[i], cfgs[i].epsilon, pgd_cfg,
                                               spec, stream)
                losses, grads = stack.loss_and_grads(spec, Xb, yb)
            grad = grads[0] if len(grads) == 1 else np.concatenate(
                [g.reshape(k, -1) for g in grads], axis=1)
            grad /= rows.shape[-1]
            batch_loss = losses.mean(axis=-1)
            if any_l1:
                batch_loss[is_l1] += lam[is_l1] * np.abs(flat[is_l1, :n_weights]).sum(axis=1)
            _check_objective(batch_loss, cfgs, step)
            optimizer.step(grad)
            if any_prox:
                flat[prox, :n_weights] = soft_threshold(flat[prox, :n_weights], threshold)
            step += 1
        if not (trace or epoch == cfg.epochs - 1):
            continue  # the next step's check covers this epoch's last one
        if stack is None:
            margins = np.matmul(X, params[0][..., None])[..., 0]
            if bias is not None:
                margins = margins + bias[:, None]
        else:
            margins = stack.margin(X)
        # the training split's objective: g(eps*||w||_1 - y*margin), eps non-zero
        # only for a linear model's worst case, plus lam*||w||_1 for l1 models
        weights = flat[:, :n_weights]
        l1 = np.abs(weights).sum(axis=1)
        mean_loss = spec.g(split_eps[:, None] * l1[:, None] - y * margins).mean(axis=1)
        mean_loss[is_l1] += lam[is_l1] * l1[is_l1]
        _check_objective(mean_loss, cfgs, step)
        if not trace:
            continue
        acc, wg = _trace_points(margins, weights, y)
        for tr, point in zip(traces, zip(*(p.tolist() for p in (mean_loss, acc, l1, wg)))):
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
    """Accuracy (+1 where sigmoid(margin) >= 0.5, so a zero margin counts as
    +1) and mean natural loss on a split, both from one margin pass."""
    idx = ds.split(split)
    if idx.size == 0:
        raise ValueError(f"{split} split is empty")
    X = ds.features[idx]
    y = ds.labels[idx]
    margin = model.margin(X)
    preds = np.where(sigmoid(margin) >= 0.5, 1.0, -1.0)
    acc = float((preds == y).mean())
    mean_loss = float(spec.g(-y * margin).mean())
    return EvalResult(acc, mean_loss)
