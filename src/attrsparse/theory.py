"""Monte-Carlo and algebraic checks of the library's guarantees: the
expected single-step update of worst-case training, the conditional
expectation bound behind it, and the exact worst-case-attribution identity.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from ._util import chunk_bounds, worker_count
from .losses import LossSpec, worst_case_slope

__all__ = [
    "WeightedAverageSpec",
    "TheoremCheckResult",
    "check_sample_count",
    "expected_update",
    "verify_zero_weight_update",
    "check_theorem1_bound",
    "check_theorem1_limit",
    "check_lemma_exp_bound",
    "check_theorem3_identity",
    "attribution_shift_norm",
    "theorem1_bound_instances",
    "lemma_d1_instance",
    "theorem3_instances",
]

_CHUNK = 1 << 16
MIN_REPORT_SAMPLES = 10_000


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
        doc = asdict(self)
        doc["check"] = doc.pop("check_id")
        return doc


def check_sample_count(n: int):
    """Reject a Monte-Carlo size below the floor for reported estimates."""
    if n < MIN_REPORT_SAMPLES:
        raise ValueError(f"n must be >= {MIN_REPORT_SAMPLES} for reported estimates, got {n}")


def _mc_moments(per_sample_fn, n: int, seed: int):
    """Means of a per-sample statistic vector and of its elementwise square.

    Sampling runs in fixed-size chunks seeded as (seed, chunk_index); chunks
    may execute on worker threads (ATTRSPARSE_THREADS) but are always reduced
    in index order, so results do not depend on the thread count, and memory
    is bounded by the chunk size. A chunk's statistic is an (m, width) array
    that sum(axis=0) adds up in its own layout: row by row when C-ordered,
    pairwise down each column when column-major (the layouts round
    differently); it is squared in place.
    """
    check_sample_count(n)

    def run(task):
        ci, (lo, hi) = task
        stats = per_sample_fn(np.random.default_rng([seed, ci]), hi - lo)
        total = stats.sum(axis=0)
        stats *= stats
        return total, stats.sum(axis=0)

    tasks = list(enumerate(chunk_bounds(n, _CHUNK)))
    workers = worker_count()
    if workers > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(run, tasks))
    else:
        partials = [run(t) for t in tasks]
    total, total_sq = np.zeros((2, *partials[0][0].shape))
    for s, s2 in partials:
        total += s
        total_sq += s2
    return total / n, total_sq / n


def _mc_stats(per_sample_fn, n: int, seed: int):
    """Mean and standard error of a per-sample statistic vector (_mc_moments)."""
    mean, mean_sq = _mc_moments(per_sample_fn, n, seed)
    return mean, np.sqrt(np.maximum(mean_sq - mean * mean, 0.0) / n)


def _update_rows(spec, w, epsilon, X, y, cols=slice(None)):
    """Per-sample worst-case update g'(z) * (y*x_i - sign(w_i)*eps) on the
    columns cols of X (in place when cols is a slice), with the slope g'(z)
    per row; z is training's worst-case margin (losses.worst_case_slope)."""
    gp = worst_case_slope(spec, w[None], None, X, y, epsilon)[1][0]  # a stack of one
    rows = X[:, cols]
    rows *= y[:, None]
    rows -= (np.sign(w) * epsilon)[cols]
    rows *= gp[:, None]
    return rows, gp


def expected_update(spec: LossSpec, w, epsilon: float, sampler, n: int,
                    seed: int = 0):
    """Expected unit-learning-rate weight update under worst-case training:
    per-coordinate mean of g'(margin) * (y*x_i - sign(w_i)*eps), with SEs.
    """
    w = np.asarray(w, dtype=float)
    return _mc_stats(lambda rng, m: _update_rows(spec, w, epsilon, *sampler.sample(m, rng))[0],
                     n, seed)


def verify_zero_weight_update(spec: LossSpec, sampler, n: int, seed: int = 0):
    """At w = 0 the expected update is g'(0) * a exactly; check each coordinate
    against the sampler's true strengths at the 3-SE criterion."""
    d = sampler.dim
    mean, se = expected_update(spec, np.zeros(d), 0.0, sampler, n, seed=seed)
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

    def stat(rng, m):
        X, y = sampler.sample(m, rng)
        upd, gp = _update_rows(spec, w, epsilon, X, y, idx)
        upd *= w_s
        out = np.empty((m, 3))
        s, b, gap = out.T
        np.divide(upd.sum(axis=1), denom, out=s)
        np.multiply(gp, abar - epsilon, out=b)
        np.subtract(s, b, out=gap)
        return out

    mean, se = _mc_stats(stat, n, seed)
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
    (Z independent of V given Y) and E(Z|Y) = E(Z); checked at 3 SE of the
    centred cross product c = (Z - E[Z]) * (f - E[f]), whose mean is the gap.

    sampler(m, rng) -> (z, v, y) is drawn on the Monte-Carlo engine in
    chunks of at most _CHUNK rows seeded (seed, chunk), so memory is bounded
    by the chunk size and the result does not depend on ATTRSPARSE_THREADS.
    Each sample gives z, f, zf, z^2 f and z f^2; with their squares these
    are every moment the gap and the ddof=1 standard error of c need.
    """
    def stat(rng, m):
        z, v, _y = sampler(m, rng)
        cols = np.empty((5, m))  # returned transposed: each column sums contiguously
        cols[0], cols[1] = z, f(z, v)
        np.multiply(cols[0], cols[1], out=cols[2])
        np.multiply(cols[2], cols[:2], out=cols[3:])  # z^2 f and z f^2
        return cols.T

    mean, mean_sq = _mc_moments(stat, n, seed)
    ez, ef, ezf, ez2f, ezf2 = mean.tolist()
    ez2, ef2, ez2f2 = mean_sq[:3].tolist()
    estimate, reference = ezf, ez * ef
    gap = estimate - reference  # exactly 0 when f is a constant power of two
    c2 = (ez2f2 - 2.0 * ef * ez2f - 2.0 * ez * ezf2 + ef * ef * ez2 + ez * ez * ef2
          + 4.0 * ez * ef * ezf - 3.0 * reference * reference)  # E[c^2]
    se = math.sqrt(max(c2 - gap * gap, 0.0) / (n - 1))
    return TheoremCheckResult(
        check_id="conditional-expectation-bound",
        estimate=estimate,
        reference=reference,
        se=se,
        n_samples=n,
        passed=bool(gap <= 3.0 * se + 1e-15),
    )


def _row_dot(A, B):
    """Per-row <a, b> of two (m, d) blocks. A (1, d) @ (d, 1) product runs one
    dot product per row, the kernel of a 1-d a @ b, so each row rounds as
    the one-row call would; a 2-d A @ b is a matrix-vector product, which
    rounds differently."""
    return (A[:, None, :] @ B[:, :, None])[:, 0, 0]


def attribution_shift_norm(spec: LossSpec, w, x, y, delta):
    """l1 norm of the attribution of the per-label loss map v -> g(-y<w,v>)
    taken from baseline x to input x + delta (exact closed form).

    w, x and delta are (m, d) blocks and y is (m,), one instance per row, and
    the result is one norm per row.
    """
    w, x, y, delta = (np.asarray(t, dtype=float) for t in (w, x, y, delta))
    wl = -y[:, None] * w  # the loss map is g(<wl, v>)
    denom = _row_dot(delta, wl)
    f0 = spec.g(_row_dot(x, wl))
    f1 = spec.g(_row_dot(x + delta, wl))
    flat = denom == 0.0
    if np.any(f0[flat] != f1[flat]):
        raise ValueError("zero score change with differing loss values")
    values = delta * wl
    values *= (f1 - f0)[:, None]
    # a flat row keeps (f1 - f0) * delta * wl = +-0, so its norm is 0
    np.divide(values, denom[:, None], out=values, where=~flat[:, None])
    return np.abs(values, out=values).sum(axis=1)


def check_theorem3_identity(spec: LossSpec, w, x, y, epsilon):
    """|[natural loss + worst-case attribution shift] - worst-case loss| at the
    closed-form maximizer delta_i = -y * sign(w_i) * eps.

    w and x are (m, d) blocks, y and epsilon are (m,), one instance per row,
    and the result is one residual per row.
    """
    w, x, y, epsilon = (np.asarray(t, dtype=float) for t in (w, x, y, epsilon))
    delta = -y[:, None] * np.sign(w) * epsilon[:, None]
    score = _row_dot(x, w)
    lhs = spec.g(-y * score) + attribution_shift_norm(spec, w, x, y, delta)
    rhs = spec.g(epsilon * np.abs(w).sum(axis=1) - y * score)
    return np.abs(lhs - rhs)


def theorem1_bound_instances(configs: int, seed: int):
    """Random configurations for the weighted-update bound: yields one
    (strengths, WeightedAverageSpec, check seed) per k < configs. Each draws
    d = 6 strengths uniform in [-0.8, 0.8), w standard normal and a non-empty
    subset S from its own default_rng([seed, k]); its check samples with
    seed * 100_003 + k."""
    d = 6
    for k in range(configs):
        rng = np.random.default_rng([seed, k])
        strengths = tuple(rng.uniform(-0.8, 0.8, size=d).tolist())
        w = rng.normal(0.0, 1.0, size=d)
        size = int(rng.integers(1, d + 1))
        subset = tuple(sorted(rng.choice(d, size=size, replace=False).tolist()))
        yield strengths, WeightedAverageSpec(indices=subset, w=w), seed * 100_003 + k


def lemma_d1_instance(spec: LossSpec, sampler, epsilon: float, seed: int):
    """Lemma D1 at worst-case training's loss slope, as (f, draw) for
    check_lemma_exp_bound: Z = y*x_0, V = y*x_rest and
    f(z, v) = g'(eps*|w|_1 - |w_0| z - <w_rest, v>), non-increasing in z, with
    w standard normal from default_rng(seed)."""
    w = np.random.default_rng(seed).normal(0.0, 1.0, size=sampler.dim)
    margin_const = epsilon * np.abs(w).sum()

    def draw(m, rng):
        X, y = sampler.sample(m, rng)
        X *= y[:, None]
        return X[:, 0], X[:, 1:], y

    def f(z, v):
        return spec.gprime(margin_const - abs(w[0]) * z - v @ w[1:])

    return f, draw


def theorem3_instances(trials: int, seed: int) -> dict:
    """Random instances (w, x, y, eps) for the identity check, grouped by
    dimension: d -> (W (m, d), X (m, d), y (m,), eps (m,)). Each trial draws
    d in 2..11, w and x standard normal, a fair y and eps uniform in [0, 1)
    from one default_rng(seed) stream, in trial order."""
    rng = np.random.default_rng(seed)
    groups = {}
    for _ in range(trials):
        d = int(rng.integers(2, 12))
        w = rng.normal(0.0, 1.0, size=d)
        x = rng.normal(0.0, 1.0, size=d)
        y = 1.0 if rng.uniform() < 0.5 else -1.0
        eps = float(rng.uniform(0.0, 1.0))
        groups.setdefault(d, []).append((w, x, y, eps))
    return {d: tuple(np.asarray(column) for column in zip(*rows))
            for d, rows in sorted(groups.items())}
