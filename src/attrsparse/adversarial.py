"""Worst-case l-infinity perturbations: exact closed form for linear margin
models, projected gradient ascent for MLPs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .losses import LossSpec
from .models import LinearModel, MlpModel

__all__ = [
    "PgdConfig",
    "default_pgd_config",
    "closed_form_perturbation",
    "adversarial_loss",
    "pgd_perturb_batch",
]


@dataclass(frozen=True)
class PgdConfig:
    steps: int
    step_size: float = 0.01
    random_start: bool = True

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")


def default_pgd_config(epsilon: float) -> PgdConfig:
    """Step count floor(eps*100) + 10 at step size 0.01, with random start."""
    return PgdConfig(steps=int(math.floor(epsilon * 100)) + 10, step_size=0.01,
                     random_start=True)


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


def _input_grad(spec, model, X, negy):
    """(z, input gradient of the natural loss g(z)) per row of X, where
    z = -y * margin and negy = -y: an MLP runs one forward and one input-only
    reverse pass; a linear model's gradient is g'(z) * -y * w."""
    if isinstance(model, MlpModel):
        cache = model._forward(X)
        z = negy * cache[0]
        return z, model.backprop(cache, negy * spec.gprime(z), params=False)[2]
    z = negy * model.margin(X)
    return z, (negy * spec.gprime(z))[:, None] * model.w


def pgd_perturb_batch(model, X, y, eps: float, cfg: PgdConfig, spec: LossSpec, rng):
    """Projected signed-gradient ascent on a batch within the eps-box; rows
    perturbed independently.

    The random start is drawn from rng, so the result is deterministic given
    the generator's state. If the final iterate somehow scores below the
    start (possible on non-concave losses), the start is returned, so
    loss(x + delta) >= loss(x + delta0) always holds.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if cfg.random_start:
        delta = rng.uniform(-eps, eps, size=X.shape)
    else:
        delta = np.zeros_like(X)
    start = delta.copy()
    moved = np.add(X, delta)  # X + delta, refilled in place each step
    negy = -y
    for k in range(cfg.steps):
        z, grad = _input_grad(spec, model, moved, negy)
        if k == 0:
            start_loss = spec.g(z)  # the first step's forward pass
        step = np.sign(grad, out=grad)
        step *= cfg.step_size
        delta += step
        # np.clip(delta, -eps, eps) in place. Operand order keeps np.clip's
        # signed-zero ties: on a tie np.maximum and np.minimum return their
        # second operand, and np.clip keeps delta against scalar bounds.
        np.maximum(-eps, delta, out=delta)
        np.minimum(eps, delta, out=delta)
        np.add(X, delta, out=moved)
    final_loss = spec.g(negy * model.margin(moved))
    worse = final_loss < start_loss
    if np.any(worse):
        delta[worse] = start[worse]
    return delta
