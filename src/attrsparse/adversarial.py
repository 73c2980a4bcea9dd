"""Worst-case l-infinity perturbations of MLP inputs by projected gradient
ascent; a linear model's worst case is closed-form (losses.worst_case_slope).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import LossSpec
from .models import MlpModel

__all__ = [
    "PgdConfig",
    "default_pgd_config",
    "pgd_perturb_batch",
]


@dataclass(frozen=True)
class PgdConfig:
    steps: int
    step_size: float = 0.01

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")


def default_pgd_config(epsilon: float) -> PgdConfig:
    """5 steps of eps / 2 (eps itself where that rounds to 0), Madry et al.'s
    (2018) 2.5 * eps / steps. A uniform start reaches either face of the box
    only if the travel, steps * step_size, is at least 2 * eps; past that the
    step count barely matters, so PGD's work per batch is the same for any eps."""
    return PgdConfig(steps=5, step_size=epsilon / 2 or epsilon)


def pgd_perturb_batch(model, X, y, eps: float, cfg: PgdConfig, spec: LossSpec, rng):
    """Projected signed-gradient ascent on a batch within the eps-box; rows
    perturbed independently.

    The start is drawn uniformly from the box with rng, so the result is
    deterministic given the generator's state. If the final iterate somehow
    scores below the start (possible on non-concave losses), the start is
    returned, so loss(x + delta) >= loss(x + delta0) always holds. The model
    must be an MlpModel: a linear model's worst case is closed-form.

    Every loss steps on the sign of its input gradient through
    MlpModel.ascent_slope, from the output-layer product top = -y * W_last
    formed once per call. A loss with spec.positive_slope steps on top
    itself: g'(z) > 0 leaves the gradient's sign alone, so no step forms a
    logit, and a row whose g'(z) underflows to 0 (logistic at z below about
    -745, a huge correct margin) still ascends. Hinge's g'(z) in {0, 1}
    masks rows, so each of its steps scales top row by row by g'(z), with
    z = -y * margin. Steps write into buffers made once per call.
    """
    if not isinstance(model, MlpModel):
        raise TypeError(f"PGD runs on an MlpModel, got {type(model).__name__}; "
                        "a linear model's worst case is closed-form")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    delta = rng.uniform(-eps, eps, size=X.shape)
    start = delta.copy()
    moved = np.add(X, delta)  # X + delta, refilled in place each step
    lo, hi = np.full(X.shape, -eps), np.full(X.shape, eps)  # full bounds clip faster than scalars
    negy = -y
    start_loss = spec.g(negy * model.margin(moved))
    # dlogit = -y * g'(z) at the output unit, -y alone when g' > 0
    top = negy[..., None] @ model.weights[-1].swapaxes(-1, -2)
    slope = top if spec.positive_slope else np.empty(top.shape)
    for _ in range(cfg.steps):
        if not spec.positive_slope:
            np.multiply(top, spec.gprime(negy * model.margin(moved))[..., None], out=slope)
        grad = model.ascent_slope(moved, slope)
        step = np.sign(grad, out=grad)
        step *= cfg.step_size
        delta += step
        # np.clip(delta, -eps, eps) in place. Operand order keeps np.clip's
        # signed-zero ties: on a tie np.maximum and np.minimum return their
        # second operand, and np.clip keeps delta against scalar bounds.
        np.maximum(lo, delta, out=delta)
        np.minimum(hi, delta, out=delta)
        np.add(X, delta, out=moved)
    final_loss = spec.g(negy * model.margin(moved))
    worse = final_loss < start_loss
    if np.any(worse):
        delta[worse] = start[worse]
    return delta
