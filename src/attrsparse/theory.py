"""Monte-Carlo and algebraic checks of the library's guarantees: the
expected single-step update of worst-case training, the conditional
expectation bound behind it, and the exact worst-case-attribution identity.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._util import chunk_bounds, worker_count
from .losses import LossSpec

__all__ = [
    "SyntheticConditionalSampler",
    "WeightedAverageSpec",
    "TheoremCheckResult",
    "weighted_average",
    "expected_update",
    "verify_zero_weight_update",
    "check_theorem1_bound",
    "check_theorem1_limit",
    "check_lemma_exp_bound",
    "check_theorem3_identity",
    "attribution_shift_norm",
]

_CHUNK = 1 << 16
MIN_REPORT_SAMPLES = 10_000


@dataclass(frozen=True)
class SyntheticConditionalSampler:
    """Features conditionally independent given the label: x_i = a_i*y + noise.

    noise_kind "gaussian" draws sd * N(0,1); "uniform" draws sd * U(-1,1)
    (bounded support, used for losses with a kink that must stay clear of it).
    A complement block sharing one latent factor can be switched on to keep a
    strict subset S conditionally independent of correlated leftovers.
    """

    strengths: tuple
    noise_sd: float = 1.0
    class_balance: float = 0.5
    noise_kind: str = "gaussian"
    shared_factor_indices: tuple | None = None
    shared_factor_weight: float = 0.0

    def __post_init__(self):
        if self.noise_kind not in ("gaussian", "uniform"):
            raise ValueError(f"unknown noise kind {self.noise_kind!r}")
        if not 0.0 < self.class_balance < 1.0:
            raise ValueError("class_balance must be in (0, 1)")
        object.__setattr__(self, "strengths", tuple(float(v) for v in self.strengths))

    @property
    def dim(self) -> int:
        return len(self.strengths)

    def sample(self, m: int, rng):
        a = np.asarray(self.strengths)
        y = np.where(rng.uniform(size=m) < self.class_balance, 1.0, -1.0)
        if self.noise_kind == "gaussian":
            noise = rng.normal(0.0, self.noise_sd, size=(m, a.size))
        else:
            noise = rng.uniform(-self.noise_sd, self.noise_sd, size=(m, a.size))
        X = a * y[:, None] + noise
        if self.shared_factor_indices and self.shared_factor_weight != 0.0:
            t = rng.normal(0.0, 1.0, size=m)
            idx = np.asarray(self.shared_factor_indices, dtype=int)
            X[:, idx] += self.shared_factor_weight * t[:, None]
        return X, y


@dataclass(frozen=True)
class WeightedAverageSpec:
    """A feature subset S and weights for the weighted average
    sum_S w_i q_i / sum_S |w_i|."""

    indices: tuple
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        if len(self.indices) == 0:
            raise ValueError("S must be non-empty")
        if np.abs(self.w[list(self.indices)]).sum() == 0.0:
            raise ValueError("weights must not vanish on S")


def weighted_average(q, wspec: WeightedAverageSpec) -> float:
    idx = list(wspec.indices)
    w = wspec.w[idx]
    return float((w * np.asarray(q, dtype=float)[idx]).sum() / np.abs(w).sum())


@dataclass
class TheoremCheckResult:
    check_id: str
    estimate: float
    reference: float
    se: float
    n_samples: int
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "check": self.check_id,
            "estimate": self.estimate,
            "reference": self.reference,
            "se": self.se,
            "n_samples": self.n_samples,
            "passed": self.passed,
            "detail": self.detail,
        }


def _mc_stats(per_sample_fn, n: int, seed: int, width: int):
    """Accumulate mean and standard error of a per-sample statistic vector.

    Sampling runs in fixed-size chunks seeded as (seed, chunk_index); chunks
    may execute on worker threads (ATTRSPARSE_THREADS) but are always reduced
    in index order, so results do not depend on the thread count.
    """
    bounds = list(chunk_bounds(n, _CHUNK))

    def run(task):
        ci, (lo, hi) = task
        rng = np.random.default_rng([seed, ci])
        stats = per_sample_fn(rng, hi - lo)
        return stats.sum(axis=0), (stats * stats).sum(axis=0)

    tasks = list(enumerate(bounds))
    workers = worker_count()
    if workers > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(run, tasks))
    else:
        partials = [run(t) for t in tasks]
    total = np.zeros(width)
    total_sq = np.zeros(width)
    for s, s2 in partials:
        total += s
        total_sq += s2
    mean = total / n
    var = np.maximum(total_sq / n - mean * mean, 0.0)
    se = np.sqrt(var / n)
    return mean, se


def _margin_arg(spec, w, epsilon, X, y):
    return epsilon * np.abs(w).sum() - y * (X @ w)


def expected_update(spec: LossSpec, w, epsilon: float, sampler, n: int,
                    seed: int = 0):
    """Expected unit-learning-rate weight update under worst-case training:
    per-coordinate mean of g'(margin) * (y*x_i - sign(w_i)*eps), with SEs.
    """
    if n < MIN_REPORT_SAMPLES:
        raise ValueError(f"n must be >= {MIN_REPORT_SAMPLES} for reported estimates")
    w = np.asarray(w, dtype=float)
    shift = np.sign(w) * epsilon

    def stat(rng, m):
        X, y = sampler.sample(m, rng)
        gp = spec.gprime(_margin_arg(spec, w, epsilon, X, y))
        return gp[:, None] * (y[:, None] * X - shift[None, :])

    return _mc_stats(stat, n, seed, w.size)


def verify_zero_weight_update(spec: LossSpec, sampler, n: int, seed: int = 0):
    """At w = 0 the expected update is g'(0) * a exactly; check each coordinate
    against the sampler's true strengths at the 3-SE criterion."""
    d = sampler.dim
    zeros = np.zeros(d)
    mean, se = expected_update(spec, zeros, 0.0, sampler, n, seed=seed)
    gp0 = float(spec.gprime(np.asarray(0.0)))
    targets = gp0 * np.asarray(sampler.strengths)
    out = []
    for i in range(d):
        gap = abs(mean[i] - targets[i])
        # a constant statistic has zero SE; give the comparison a tiny floor
        tol = 3.0 * se[i] + 1e-15
        out.append(TheoremCheckResult(
            check_id=f"zero-weight-update[{i}]",
            estimate=float(mean[i]),
            reference=float(targets[i]),
            se=float(se[i]),
            n_samples=n,
            passed=bool(gap <= tol),
            detail=f"loss={spec.kind}",
        ))
    return out


def _weighted_update_stats(spec, wspec, epsilon, sampler, n, seed):
    """Per-sample weighted update s, its bound b, and their difference."""
    w = wspec.w
    idx = list(wspec.indices)
    w_s = w[idx]
    denom = np.abs(w_s).sum()
    a = np.asarray(sampler.strengths)
    abar = float((w_s * a[idx]).sum() / denom)
    shift = np.sign(w) * epsilon

    def stat(rng, m):
        X, y = sampler.sample(m, rng)
        gp = spec.gprime(_margin_arg(spec, w, epsilon, X, y))
        upd = gp[:, None] * (y[:, None] * X[:, idx] - shift[idx][None, :])
        s = (upd * w_s[None, :]).sum(axis=1) / denom
        b = gp * (abar - epsilon)
        return np.stack([s, b, s - b], axis=1)

    mean, se = _mc_stats(stat, n, seed, 3)
    return mean, se, abar


def check_theorem1_bound(spec: LossSpec, wspec: WeightedAverageSpec, epsilon: float,
                         sampler, n: int, seed: int = 0) -> TheoremCheckResult:
    """Weighted expected update must not exceed gbar' * (abar - eps), within 3 SE
    of the paired difference."""
    mean, se, abar = _weighted_update_stats(spec, wspec, epsilon, sampler, n, seed)
    estimate, reference = float(mean[0]), float(mean[1])
    diff_se = float(se[2])
    return TheoremCheckResult(
        check_id="weighted-update-bound",
        estimate=estimate,
        reference=reference,
        se=diff_se,
        n_samples=n,
        passed=bool(estimate <= reference + 3.0 * diff_se),
        detail=f"loss={spec.kind} eps={epsilon} abar={abar:.6g}",
    )


def check_theorem1_limit(spec: LossSpec, wspec: WeightedAverageSpec, epsilon: float,
                         sampler, n: int, scales=(1.0, 0.1, 0.01, 0.001),
                         seed: int = 0):
    """Shrinking the weights toward 0 must shrink the bound-vs-update residual
    (common random numbers across scales; monotone within the paired SEs)."""
    results = []
    prev_residual, prev_se = None, None
    for scale in scales:
        scaled = WeightedAverageSpec(indices=wspec.indices, w=scale * wspec.w)
        mean, se, _ = _weighted_update_stats(spec, scaled, epsilon, sampler, n, seed)
        residual = abs(float(mean[0]) - float(mean[1]))
        diff_se = float(se[2])
        if prev_residual is None:
            passed = True
        else:
            passed = residual <= prev_residual + 3.0 * (diff_se + prev_se)
        results.append(TheoremCheckResult(
            check_id=f"limit-equality[scale={scale:g}]",
            estimate=residual,
            reference=0.0,
            se=diff_se,
            n_samples=n,
            passed=bool(passed),
            detail=f"loss={spec.kind} eps={epsilon}",
        ))
        prev_residual, prev_se = residual, diff_se
    return results


def check_lemma_exp_bound(f, sampler, n: int, seed: int = 0) -> TheoremCheckResult:
    """E[Z * f(Z, V)] <= E[Z] * E[f(Z, V)] for f non-increasing in Z when
    (Z independent of V given Y) and E(Z|Y) = E(Z); checked at 3 SE using the
    covariance estimator's sampling error."""
    rng = np.random.default_rng(seed)
    z, v, _y = sampler(n, rng)
    fv = f(z, v)
    estimate = float((z * fv).mean())
    reference = float(z.mean() * fv.mean())
    # the gap estimate - reference equals the mean centered cross product,
    # which is exactly 0 (not just tiny) for constant f or constant Z
    centered = (z - z.mean()) * (fv - fv.mean())
    gap = float(centered.mean())
    se = float(centered.std(ddof=1) / np.sqrt(n))
    return TheoremCheckResult(
        check_id="conditional-expectation-bound",
        estimate=estimate,
        reference=reference,
        se=se,
        n_samples=n,
        passed=bool(gap <= 3.0 * se + 1e-15),
    )


def attribution_shift_norm(spec: LossSpec, w, x, y, delta) -> float:
    """l1 norm of the attribution of the per-label loss map v -> g(-y<w,v>)
    taken from baseline x to input x + delta (exact closed form)."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    delta = np.asarray(delta, dtype=float)
    y = float(y)
    wl = -y * w  # the loss map is g(<wl, v>)
    denom = float(delta @ wl)
    f0 = float(spec.g(np.asarray(x @ wl)))
    f1 = float(spec.g(np.asarray((x + delta) @ wl)))
    if denom == 0.0:
        if f0 == f1:
            return 0.0
        raise ValueError("zero score change with differing loss values")
    values = (f1 - f0) * (delta * wl) / denom
    return float(np.abs(values).sum())


def check_theorem3_identity(spec: LossSpec, w, x, y, epsilon: float) -> float:
    """|[natural loss + worst-case attribution shift] - worst-case loss| at the
    closed-form maximizer delta_i = -y * sign(w_i) * eps."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    y = float(y)
    delta = -y * np.sign(w) * epsilon
    natural = float(spec.g(np.asarray(-y * (x @ w))))
    lhs = natural + attribution_shift_norm(spec, w, x, y, delta)
    rhs = float(spec.g(np.asarray(epsilon * np.abs(w).sum() - y * (x @ w))))
    return abs(lhs - rhs)
