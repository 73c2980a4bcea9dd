"""Margin losses for binary classifiers.

Each catalogued loss is a scalar function g that is non-decreasing, convex and
differentiable almost everywhere; the per-example loss of a linear model on
(x, y) with y in {-1, +1} is g(-y * <w, x>).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["LossSpec", "make_loss", "LOSS_KINDS", "loss", "worst_case_slope",
           "linear_loss_and_grads", "sigmoid"]


def sigmoid(z):
    """Numerically stable logistic function, elementwise."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


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
    """A margin loss: non-decreasing convex g with derivative gprime."""

    kind: str
    g: Callable = field(repr=False)
    gprime: Callable = field(repr=False)


_CATALOG = {
    "logistic-nll": LossSpec("logistic-nll", _softplus, sigmoid),
    "hinge": LossSpec("hinge", _hinge_g, _hinge_gprime),
    "softplus-hinge": LossSpec("softplus-hinge", _softplus_hinge_g, _softplus_hinge_gprime),
}
_ALIASES = {"logistic": "logistic-nll"}

LOSS_KINDS = tuple(_CATALOG)


def make_loss(kind: str) -> LossSpec:
    """Look up a catalogued loss by name ("logistic-nll", "hinge", "softplus-hinge")."""
    key = _ALIASES.get(kind, kind)
    try:
        return _CATALOG[key]
    except KeyError:
        raise ValueError(f"unknown loss kind {kind!r}; choose one of {sorted(_CATALOG)}") from None


def loss(spec: LossSpec, model, x, y):
    """Natural loss g(-y * margin) of a model on one example (or a batch)."""
    margin = model.margin(x)
    return spec.g(-np.asarray(y, dtype=float) * margin)


def worst_case_slope(spec: LossSpec, w, bias, X, y, epsilon=0.0):
    """(z, g'(z)), each (k, n), for k stacked linear models on one batch:
    z = eps*||w||_1 - y*(<w, x> + bias) is the margin's worst case over each
    model's eps-box. Training's engine and the theorem-1 checks share it.
    w is (k, d), bias (k,) or None, epsilon a scalar or (k,).
    """
    epsilon = np.asarray(epsilon, dtype=float).reshape(-1, 1)
    margin = np.matmul(X, w[..., None])[..., 0]
    if bias is not None:
        margin = margin + bias[:, None]
    z = epsilon * np.abs(w).sum(axis=1, keepdims=True) - y * margin
    return z, spec.gprime(z)


def linear_loss_and_grads(spec: LossSpec, w, bias, X, y, epsilon=0.0):
    """The linear family's one gradient engine: k stacked models on one batch.

    Per-example loss is the worst case g(z) of worst_case_slope; epsilon=0 is
    the natural loss bit for bit, and every row is bit-identical to the same
    model trained alone. Returns (per-example loss (k, n), parameter
    gradients summed over the batch [weights (k, d), then the bias (k,) when
    it is not None]). The weight gradient is one (1, n) @ (n, d) product per
    model, coeff @ X with coeff = -g'(z) * y, plus the eps-box term
    sum(g') * eps * sign(w); no (k, n, d) per-example array is formed.
    """
    z, gp = worst_case_slope(spec, w, bias, X, y, epsilon)
    coeff = -(gp * y)
    shift = np.sign(w) * np.asarray(epsilon, dtype=float).reshape(-1, 1)
    grads = [(coeff[:, None, :] @ X)[:, 0] + gp.sum(axis=1, keepdims=True) * shift]
    if bias is not None:
        grads.append(coeff.sum(axis=1))
    return spec.g(z), grads
