"""Monte-Carlo and algebraic checks of the library's guarantees: the
expected single-step update of worst-case training, the conditional
expectation bound behind it, and the exact worst-case-attribution identity;
CHECKS is the table of the checks `attrsparse verify` runs.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from ._util import chunk_bounds, worker_count
from .data import SyntheticConditionalSampler
from .losses import DEFAULT_LOSS, LOSS_KINDS, LossSpec, make_loss, worst_case_slope

__all__ = [
    "TheoremCheckResult",
    "CHECKS",
    "expected_update",
    "verify_zero_weight_update",
    "check_theorem1_bound",
    "check_lemma_exp_bound",
    "check_theorem3_identity",
    "attribution_shift_norm",
    "theorem1_bound_instances",
    "lemma_d1_instance",
    "theorem3_instances",
]

_CHUNK = 1 << 16
MIN_REPORT_SAMPLES = 10_000
# 65,536 chunks: the chunk list and the pool's futures exist before any draw
MAX_REPORT_SAMPLES = 1 << 32


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


def _mc_moments(per_sample_fn, n: int, seed: int):
    """Means of a per-sample statistic vector and of its elementwise square.

    Sampling runs in fixed-size chunks seeded as (seed, chunk_index); chunks
    run on ATTRSPARSE_THREADS worker threads but are always reduced in index
    order, so results do not depend on the thread count. Each chunk draws
    into arrays of its own, freed when it ends, so memory is bounded by the
    chunks running at once, about 7 MB each at d = 6. A chunk's statistic
    is an (m, width) array in column-major order, each statistic one
    contiguous column, as the sampler hands its features over; each column is
    summed pairwise down its m entries, then squared in place and summed
    again. A size below MIN_REPORT_SAMPLES or above MAX_REPORT_SAMPLES is an
    error, raised before any draw.
    """
    if n < MIN_REPORT_SAMPLES:
        raise ValueError(f"n must be >= {MIN_REPORT_SAMPLES} for reported estimates, got {n}")
    if n > MAX_REPORT_SAMPLES:
        raise ValueError(f"n must be <= {MAX_REPORT_SAMPLES} for one run, got {n}")

    def run(task):
        ci, (lo, hi) = task
        stats = per_sample_fn(np.random.default_rng([seed, ci]), hi - lo)
        total = stats.sum(axis=0)
        stats *= stats
        return total, stats.sum(axis=0)

    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        partials = list(pool.map(run, enumerate(chunk_bounds(n, _CHUNK))))
    total, total_sq = (sum(parts) for parts in zip(*partials))  # in chunk order
    return total / n, total_sq / n


def _mc_stats(per_sample_fn, n: int, seed: int):
    """Mean and standard error of a per-sample statistic vector (_mc_moments)."""
    mean, mean_sq = _mc_moments(per_sample_fn, n, seed)
    return mean, np.sqrt(np.maximum(mean_sq - mean * mean, 0.0) / n)


def expected_update(spec: LossSpec, w, epsilon: float, sampler, n: int,
                    seed: int = 0):
    """Expected unit-learning-rate weight update under worst-case training:
    per-coordinate mean of g'(margin) * (y*x_i - sign(w_i)*eps), with SEs;
    the margin is training's worst case (losses.worst_case_slope).
    """
    w = np.asarray(w, dtype=float)

    def stat(rng, m):  # each sample's update, written over its X
        X, y = sampler.sample(m, rng)
        gp = worst_case_slope(spec, w[None], None, X, y, epsilon)[1][0]  # a stack of one
        X *= y[:, None]
        X -= np.sign(w) * epsilon
        X *= gp[:, None]
        return X

    return _mc_stats(stat, n, seed)


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


def check_theorem1_bound(spec: LossSpec, w, subset, epsilon: float,
                         sampler, n: int, seed: int = 0) -> TheoremCheckResult:
    """Weighted expected update sum_S w_i E[update_i] / sum_S |w_i| must not
    exceed gbar' * (abar - eps), within 3 SE of the paired difference: per
    sample, the weighted update s, its bound b and their difference. The
    feature subset S must be non-empty and w must not vanish on it."""
    w = np.asarray(w, dtype=float)
    idx = [int(i) for i in subset]
    if not idx:
        raise ValueError("S must be non-empty")
    w_s = w[idx]
    denom = np.abs(w_s).sum()
    if denom == 0.0:
        raise ValueError("weights must not vanish on S")
    a = np.asarray(sampler.strengths)
    abar = float((w_s * a[idx]).sum() / denom)

    def stat(rng, m):
        X, y = sampler.sample(m, rng)
        gp = worst_case_slope(spec, w[None], None, X, y, epsilon)[1][0]  # a stack of one
        cols = np.empty((3, m))  # returned transposed: each column sums contiguously
        s, b, gap = cols
        for k, i in enumerate(idx):  # w_i g'(z) (y*x_i - sign(w_i)*eps), summed in S's order
            term = np.multiply(X[:, i], y, out=gap if k else s)
            term -= np.sign(w[i]) * epsilon
            term *= gp
            term *= w[i]
            if k:
                s += term
        s /= denom
        np.multiply(gp, abar - epsilon, out=b)
        np.subtract(s, b, out=gap)
        return cols.T

    mean, se = _mc_stats(stat, n, seed)
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
    (strengths, w, subset, check seed) per k < configs. Each draws
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
        yield strengths, w, subset, seed * 100_003 + k


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


def _reject_vacuous_sizes(flags):
    """Reject, before any draw, each size a check reads that would let it
    pass on no evidence: no instances, or an infinite tolerance. (A
    Monte-Carlo size below the floor is _mc_moments' own error.)"""
    for flag in ("eps", "tol"):
        value = flags.get(flag, 0.0)
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"--{flag} must be a finite number >= 0, got {value}")
    for flag in ("trials", "configs"):
        if flags.get(flag, 1) < 1:
            raise ValueError(f"--{flag} must be >= 1, got {flags[flag]}")


def _run_thm1_zero(flags, sampler_kw, seed):
    spec = make_loss(flags["loss"])
    sampler = SyntheticConditionalSampler(flags["strengths"], **sampler_kw)
    return verify_zero_weight_update(spec, sampler, flags["n"], seed=seed)


def _run_thm1_bound(flags, sampler_kw, seed):
    spec = make_loss(flags["loss"])
    _reject_vacuous_sizes(flags)
    return [replace(check_theorem1_bound(spec, w, subset, flags["eps"],
                                         SyntheticConditionalSampler(strengths, **sampler_kw),
                                         flags["n"], seed=check_seed),
                    check_id=f"weighted-update-bound[{k}]")
            for k, (strengths, w, subset, check_seed)
            in enumerate(theorem1_bound_instances(flags["configs"], seed))]


def _run_thm3(flags, sampler_kw, seed):
    kinds = LOSS_KINDS if flags["loss"] == "all" else (make_loss(flags["loss"]).kind,)
    _reject_vacuous_sizes(flags)
    # one draw of the instances serves every loss, one call per dimension
    groups = theorem3_instances(flags["trials"], seed).values()
    results = []
    for kind in kinds:
        worst = max(float(check_theorem3_identity(make_loss(kind), *g).max()) for g in groups)
        results.append(TheoremCheckResult(
            check_id=f"worst-case-attribution-identity[{kind}]", estimate=worst,
            reference=0.0, se=0.0, n_samples=flags["trials"],
            passed=bool(worst <= flags["tol"]), detail=f"tol={flags['tol']:g}"))
    return results


def _run_lemma_d1(flags, sampler_kw, seed):
    spec = make_loss(flags["loss"])
    _reject_vacuous_sizes(flags)
    sampler = SyntheticConditionalSampler(flags["strengths"], **sampler_kw)
    f, draw = lemma_d1_instance(spec, sampler, flags["eps"], seed)
    ranges = []  # f's (min, max) on each chunk

    def f_seen(z, v):
        values = f(z, v)
        ranges.append((values.min(), values.max()))
        return values

    result = check_lemma_exp_bound(f_seen, draw, flags["n"], seed=seed)
    if min(lo for lo, _ in ranges) == max(hi for _, hi in ranges):  # as when g' saturates
        raise ValueError(f"--eps {flags['eps']:g}: f is the same on every sample, so "
                         "lemmaD1's check has no evidence")
    return [result]


# Each check verify runs: the flags it reads besides --seed and --out, with
# their defaults (None keeps the sampler's own), and run(flags, sampler_kw,
# seed) -> its results, sampler_kw holding the given None-default flags.
_MC = {"loss": DEFAULT_LOSS, "n": 100_000, "noise_sd": None, "noise_kind": None, "balance": None}
_MC_EPS = {**_MC, "eps": 0.1}
CHECKS = {
    "thm1-zero": ({**_MC, "strengths": (0.8, -0.5, 0.3, 0.0, 0.1)}, _run_thm1_zero),
    "thm1-bound": ({**_MC_EPS, "configs": 5}, _run_thm1_bound),
    "thm3": ({"loss": "all", "trials": 1000, "tol": 1e-9}, _run_thm3),
    "lemmaD1": ({**_MC_EPS, "strengths": (0.6, 0.3, -0.2, 0.1, 0.05)}, _run_lemma_d1),
}
