"""Margin losses for binary classifiers.

Each catalogued loss is a scalar function g that is non-decreasing, convex and
differentiable almost everywhere; the per-example loss of a linear model on
(x, y) with y in {-1, +1} is g(-y * <w, x>).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["LossSpec", "make_loss", "LOSS_KINDS", "LOSS_NAMES", "DEFAULT_LOSS",
           "worst_case_slope", "linear_loss_and_grads", "sigmoid"]


def sigmoid(z):
    """Numerically stable logistic function, elementwise: exp(min(z, 0)) /
    (1 + exp(-|z|)). np.fmin, not np.minimum: at a NaN the quotient then
    takes its sign bit from exp(-|z|), as the two-branch form does."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    return np.exp(np.fmin(z, 0.0)) / (1.0 + e)


def _softplus(z):
    # log(1 + e^z) without overflow for large z
    return np.logaddexp(0.0, z)


def _hinge_g(z):
    return np.maximum(0.0, 1.0 + np.asarray(z, dtype=float))


def _hinge_gprime(z):
    # subgradient: 1 where z > -1, 0 elsewhere (0 at the kink itself)
    z = np.asarray(z, dtype=float)
    return np.where(z > -1.0, 1.0, 0.0)


def _softplus_hinge_g(z):
    return _softplus(1.0 + np.asarray(z, dtype=float))


def _softplus_hinge_gprime(z):
    return sigmoid(1.0 + np.asarray(z, dtype=float))


@dataclass(frozen=True)
class LossSpec:
    """A margin loss: non-decreasing convex g with derivative gprime, which
    is > 0 everywhere when positive_slope is set."""

    kind: str
    g: Callable = field(repr=False)
    gprime: Callable = field(repr=False)
    positive_slope: bool = False


_CATALOG = {
    "logistic-nll": LossSpec("logistic-nll", _softplus, sigmoid, positive_slope=True),
    "hinge": LossSpec("hinge", _hinge_g, _hinge_gprime),
    "softplus-hinge": LossSpec("softplus-hinge", _softplus_hinge_g, _softplus_hinge_gprime,
                               positive_slope=True),
}
_ALIASES = {"logistic": "logistic-nll"}

LOSS_KINDS = tuple(_CATALOG)
LOSS_NAMES = LOSS_KINDS + tuple(_ALIASES)  # every name make_loss accepts
DEFAULT_LOSS = "logistic-nll"


def make_loss(kind: str) -> LossSpec:
    """Look up a catalogued loss by name ("logistic-nll", "hinge", "softplus-hinge")."""
    key = _ALIASES.get(kind, kind)
    try:
        return _CATALOG[key]
    except KeyError:
        raise ValueError(f"unknown loss kind {kind!r}; choose one of {sorted(_CATALOG)}") from None


def worst_case_slope(spec: LossSpec, w, bias, X, y, epsilon=0.0):
    """(z, g'(z), ||w||_1) for k stacked linear models on one batch: z =
    eps*||w||_1 - y*(<w, x> + bias), each (k, n), is the margin's worst case
    over each model's eps-box, formed from each model's l1 norm (k,).
    Training's engine and the theorem checks share it. w is (k, d), bias (k,)
    or None, epsilon a scalar, (k,) or (k, 1), and X (n, d) or (k, n, d), a
    batch of its own for each model.
    """
    epsilon = np.asarray(epsilon, dtype=float).reshape(-1, 1)
    margin = np.matmul(X, w[..., None])[..., 0]
    if bias is not None:
        margin = margin + bias[:, None]
    l1 = np.abs(w).sum(axis=1)
    z = epsilon * l1[:, None] - y * margin
    return z, spec.gprime(z), l1


def linear_loss_and_grads(spec: LossSpec, w, bias, X, y, epsilon=0.0):
    """The linear family's one gradient engine: k stacked models on one batch.

    Per-example loss is the worst case g(z) of worst_case_slope; epsilon=0 is
    the natural loss bit for bit, and every row is bit-identical to the same
    model trained alone. Returns (per-example loss (k, n), parameter
    gradients summed over the batch [weights (k, d), then the bias (k,) when
    it is not None], each model's ||w||_1 (k,)). The weight gradient is one
    (1, n) @ (n, d) product per model, coeff @ X with coeff = -g'(z) * y,
    plus the eps-box term sum(g') * eps * sign(w); no (k, n, d) per-example
    array is formed.
    """
    z, gp, l1 = worst_case_slope(spec, w, bias, X, y, epsilon)
    coeff = -(gp * y)
    shift = np.sign(w) * np.asarray(epsilon, dtype=float).reshape(-1, 1)
    grads = [(coeff[:, None, :] @ X)[:, 0] + gp.sum(axis=1, keepdims=True) * shift]
    if bias is not None:
        grads.append(coeff.sum(axis=1))
    return spec.g(z), grads, l1
