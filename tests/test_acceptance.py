"""Acceptance gate: one test per shipped criterion, each at its stated
tolerance, each recording a single PASS/FAIL/SKIP verdict line printed in the
terminal summary (see conftest).

The two tabular benchmark reproductions run only when the benchmark CSVs have
been staged under data/ (they are not redistributable with the repo); see
data/README.md for how to fetch them. Everything else is hermetic.
"""
from __future__ import annotations

import itertools
import os
import time
import warnings

import numpy as np

from conftest import ACCEPTANCE_CRITERIA
from helpers import (
    MUSHROOM_PATH,
    SPAMBASE_PATH,
    load_mushroom_file,
    adversarial_loss,
    gini_row,
    ig_row,
    load_spambase_file,
    one_row,
    theorem1_limit,
)

from attrsparse.data import SyntheticConditionalSampler, blob_sampler, generate_synthetic
from attrsparse.losses import make_loss
from attrsparse.models import LinearModel
from attrsparse.pipeline import run_compare
from attrsparse.theory import (
    check_theorem1_bound,
    check_theorem3_identity,
    verify_zero_weight_update,
)
from attrsparse.training import TrainConfig, train

C1, C2, C3, C4, C5, C6, C7, C8 = ACCEPTANCE_CRITERIA

LOGISTIC = make_loss("logistic-nll")
ALL_LOSSES = tuple(make_loss(k) for k in ("logistic-nll", "hinge", "softplus-hinge"))


# --- criteria 1 and 2: tabular benchmark reproductions ----------------------------


def _benchmark_reproduction(rec, criterion, path, loader, tmp_path, dataset_id,
                            adv_center, adv_tol, drop_limit_pp, l1_center, l1_tol,
                            min_natural_acc=None):
    if not os.path.exists(path):
        rec.skip(criterion, f"benchmark file {path} not staged; see data/README.md")
    t0 = time.perf_counter()
    ds = loader(path, str(tmp_path))
    out = run_compare(ds, LOGISTIC, [0.1], [0.02], TrainConfig(),
                      dataset_id=dataset_id)
    elapsed = time.perf_counter() - t0
    adv = out.report["gaps"]["adversarial(eps=0.1)"]
    l1 = out.report["gaps"]["l1(lam=0.02)"]
    nat_acc = out.report["regimes"]["natural"]["accuracy"]
    ok = (
        abs(adv["gini_gap"] - adv_center) <= adv_tol
        and adv["accuracy_drop_pct"] <= drop_limit_pp
        and abs(l1["gini_gap"] - l1_center) <= l1_tol
        and (min_natural_acc is None or nat_acc >= min_natural_acc)
        and elapsed <= 120.0
    )
    rec.check(criterion, ok, (
        f"dG_adv={adv['gini_gap']:.4f} (target {adv_center}±{adv_tol}), "
        f"drop={adv['accuracy_drop_pct']:.2f}pp (≤{drop_limit_pp}), "
        f"dG_l1={l1['gini_gap']:.4f} (target {l1_center}±{l1_tol}), "
        f"natural_acc={nat_acc:.4f}, {elapsed:.0f}s"
    ))


def test_first_tabular_benchmark_reproduction(acceptance, tmp_path, monkeypatch):
    monkeypatch.setenv("ATTRSPARSE_THREADS", "1")
    _benchmark_reproduction(
        acceptance, C1, MUSHROOM_PATH, load_mushroom_file, tmp_path, "mushroom",
        adv_center=0.06, adv_tol=0.03, drop_limit_pp=5.0,
        l1_center=0.06, l1_tol=0.03, min_natural_acc=0.99)


def test_second_tabular_benchmark_reproduction(acceptance, tmp_path, monkeypatch):
    monkeypatch.setenv("ATTRSPARSE_THREADS", "1")
    _benchmark_reproduction(
        acceptance, C2, SPAMBASE_PATH, load_spambase_file, tmp_path, "spambase",
        adv_center=0.17, adv_tol=0.05, drop_limit_pp=3.0,
        l1_center=0.15, l1_tol=0.05)


# --- criterion 3: worst-case-attribution equivalence -------------------------------


def test_worst_case_attribution_equivalence(acceptance):
    # (a) the decomposition identity, 1000 random instances per loss
    worst = 0.0
    for spec in ALL_LOSSES:
        rng = np.random.default_rng(33)
        for _ in range(1000):
            d = int(rng.integers(1, 13))
            w = rng.normal(size=d)
            x = rng.normal(size=d)
            y = 1.0 if rng.uniform() < 0.5 else -1.0
            eps = float(rng.uniform(0.01, 0.5))
            worst = max(worst, one_row(check_theorem3_identity, spec, w, x, y, eps))
    identity_ok = worst <= 1e-9

    # (b) the stability-penalty regime must replay the adversarial regime
    # bit for bit when seed and budget agree
    sampler = SyntheticConditionalSampler(strengths=(1.2, -0.7, 0.4, 0.1), noise_sd=0.6)
    ds = generate_synthetic(sampler, 500, seed=5)
    kw = dict(epsilon=0.1, epochs=8, seed=3)
    m_adv, t_adv = train(ds, LOGISTIC, TrainConfig(regime="adversarial", **kw))
    m_stb, t_stb = train(ds, LOGISTIC, TrainConfig(regime="stable-ig", **kw))
    bitwise_ok = (np.array_equal(m_adv.w, m_stb.w)
                  and t_adv.loss == t_stb.loss
                  and t_adv.weight_gini == t_stb.weight_gini
                  and t_adv.weight_l1 == t_stb.weight_l1)

    acceptance.check(C3, identity_ok and bitwise_ok, (
        f"max identity residual {worst:.3e} (≤1e-9) over 1000 draws x "
        f"{len(ALL_LOSSES)} losses; trajectories bit-identical: {bitwise_ok}"
    ))


# --- criterion 4: expected-update Monte Carlo --------------------------------------


def test_expected_update_monte_carlo(acceptance):
    t0 = time.perf_counter()
    n = 100_000

    # zero-weight exactness across all losses (bounded noise for the kinked one)
    zero_fail = []
    for spec, noise_kind in (
        (make_loss("logistic-nll"), "gaussian"),
        (make_loss("hinge"), "uniform"),
        (make_loss("softplus-hinge"), "gaussian"),
    ):
        sampler = SyntheticConditionalSampler(
            strengths=(0.8, -0.5, 0.0, 0.3), noise_kind=noise_kind)
        for res in verify_zero_weight_update(spec, sampler, n, seed=11):
            if not res.passed:
                zero_fail.append(res.check_id + ":" + spec.kind)

    # the weighted-average bound on 50 random nonzero-weight configurations
    bound_fail = 0
    min_slack_se = np.inf
    for k in range(50):
        rng = np.random.default_rng([1000, k])
        d = 6
        strengths = tuple(rng.uniform(-0.8, 0.8, size=d).tolist())
        w = rng.normal(size=d)
        size = int(rng.integers(1, d + 1))
        idx = tuple(sorted(rng.choice(d, size=size, replace=False).tolist()))
        eps = float(rng.uniform(0.02, 0.4))
        res, = check_theorem1_bound(LOGISTIC, [(strengths, w, idx)], eps, n,
                                    seed=2_000_003 + k)
        if not res.passed:
            bound_fail += 1
        elif res.se > 0:
            min_slack_se = min(min_slack_se, (res.reference - res.estimate) / res.se)

    # the bound tightens to equality as the weights shrink
    rng = np.random.default_rng(3)
    w = rng.normal(size=4)
    limit = theorem1_limit(LOGISTIC, w, (0, 1, 2), 0.1, (0.6, 0.3, -0.2, 0.1), n, seed=0)
    limit_ok = (all(r.passed for r in limit)
                and limit[-1].estimate < limit[0].estimate
                and limit[-1].estimate <= 3.0 * limit[-1].se + 1e-12)

    elapsed = time.perf_counter() - t0
    ok = not zero_fail and bound_fail == 0 and limit_ok and elapsed <= 300.0
    acceptance.check(C4, ok, (
        f"zero-weight failures {zero_fail or 'none'}; bound failures {bound_fail}/50 "
        f"(min slack {min_slack_se:.1f} SE); limit residual "
        f"{limit[0].estimate:.2e}→{limit[-1].estimate:.2e}; {elapsed:.0f}s (≤300)"
    ))


# --- criterion 5: attribution oracle equivalence -----------------------------------


def test_attribution_oracle_equivalence(acceptance):
    rng = np.random.default_rng(2024)
    worst_gap = worst_closed_res = worst_numeric_res = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 13))
        model = LinearModel(w=rng.normal(size=d))  # sigmoid activation
        x = rng.normal(size=d)
        u = rng.normal(size=d)
        closed = ig_row(model, x, u)
        fine = ig_row(model, x, u, steps=4096)
        coarse = ig_row(model, x, u, steps=256)
        worst_gap = max(worst_gap, float(np.abs(closed.values - fine.values).max()))
        worst_closed_res = max(worst_closed_res, abs(closed.completeness_residual))
        worst_numeric_res = max(worst_numeric_res, abs(coarse.completeness_residual))
    ok = worst_gap <= 1e-6 and worst_closed_res <= 1e-12 and worst_numeric_res <= 5e-3
    acceptance.check(C5, ok, (
        f"max closed-vs-4096-step gap {worst_gap:.3e} (≤1e-6); completeness "
        f"residual closed {worst_closed_res:.3e} (≤1e-12), 256-step "
        f"{worst_numeric_res:.3e} (≤5e-3) over 1000 instances"
    ))


# --- criterion 6: worst-case loss maximality over the box --------------------------


def test_worst_case_loss_maximality(acceptance):
    rng = np.random.default_rng(77)
    worst_gap = worst_identity = 0.0
    for _ in range(500):
        d = int(rng.integers(1, 11))
        w = rng.normal(size=d)
        x = rng.normal(size=d)
        y = 1.0 if rng.uniform() < 0.5 else -1.0
        eps = float(rng.uniform(0.02, 0.6))
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
        corner_margins = -y * ((x[None, :] + eps * signs) @ w)
        model = LinearModel(w=w)
        for spec in ALL_LOSSES:
            brute = float(np.max(spec.g(corner_margins)))
            closed = adversarial_loss(spec, model, x, y, eps)
            worst_gap = max(worst_gap, abs(closed - brute))
            worst_identity = max(worst_identity,
                                 one_row(check_theorem3_identity, spec, w, x, y, eps))
    ok = worst_gap <= 1e-12 and worst_identity <= 1e-12
    acceptance.check(C6, ok, (
        f"max closed-vs-corner gap {worst_gap:.3e}, max identity residual "
        f"{worst_identity:.3e} (both ≤1e-12) over 500 instances x {len(ALL_LOSSES)} losses"
    ))


# --- criterion 7: Gini exact values and fuzz properties ----------------------------


def test_gini_exact_values_and_fuzz(acceptance):
    exact_ok = (
        gini_row(np.ones(5)) == 0.0
        and gini_row(np.full(17, 3.7)) == 0.0
        and gini_row(np.asarray([0.0, 0.0, 123.0, 0.0])) == 0.75
    )

    rng = np.random.default_rng(99)
    fuzz_fail = 0
    for _ in range(10_000):
        d = int(rng.integers(2, 41))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            v = np.abs(rng.normal(size=d))
        elif kind == 1:
            v = rng.exponential(scale=2.0, size=d)
        else:
            v = rng.exponential(size=d) * (rng.uniform(size=d) < 0.7)
            if not np.any(v):
                v[0] = 1.0
        g = gini_row(v)
        in_range = 0.0 <= g <= 1.0 - 1.0 / d + 1e-15
        c = 10.0 ** rng.uniform(-3, 3)
        scale_inv = abs(gini_row(c * v) - g) <= 1e-12
        perm_inv = gini_row(rng.permutation(v)) == g
        if not (in_range and scale_inv and perm_inv):
            fuzz_fail += 1
    ok = exact_ok and fuzz_fail == 0
    acceptance.check(C7, ok, (
        f"exact values hold: {exact_ok}; fuzz failures {fuzz_fail}/10000 "
        "(range, scale invariance, permutation invariance)"
    ))


# --- criterion 8: blob-image MLP sparseness ordering --------------------------------


def test_blob_image_mlp_sparseness_ordering(acceptance):
    # Image geometry chosen so the accuracy constraint has teeth: four center
    # pixels carry strong signal (above the 0.1 attack budget) while the many
    # weak background pixels sit just below it and are jointly worth several
    # accuracy points. Adversarial training prunes the background regardless;
    # a weight-decay model can only prune it by giving up more than the
    # allowed 2% accuracy.
    t0 = time.perf_counter()
    lams = (0.01, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75)
    g_nat, g_adv, g_best_l1 = [], [], []
    for seed in range(5):
        ds = generate_synthetic(blob_sampler(
            8, 8, strong_amplitude=0.69, weak_amplitude=0.085, blob_sigma=0.55,
            noise_sd=0.50), 5000, seed)
        base = dict(model_kind="mlp", hidden_sizes=(16,), epochs=18, seed=seed)
        # the program's own sweep: natural, adversarial at 0.1 and the l1 fits
        # as one stack, attributed at 256 numeric steps
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # collapsed models attribute to nothing
            regimes = run_compare(ds, LOGISTIC, [0.1], lams, TrainConfig(**base),
                                  method="numeric", steps=256).report["regimes"]
        (acc_nat, gini_nat), (_, gini_adv), *l1 = (
            (r["accuracy"], r["mean_attribution_gini"]) for r in regimes.values())
        qualifying = [g for acc, g in l1 if acc >= acc_nat - 0.02]
        g_nat.append(gini_nat)
        g_adv.append(gini_adv)
        if qualifying:
            g_best_l1.append(max(qualifying))
    elapsed = time.perf_counter() - t0

    mean_nat = float(np.mean(g_nat))
    mean_adv = float(np.mean(g_adv))
    mean_best_l1 = float(np.mean(g_best_l1)) if g_best_l1 else float("-inf")
    ok = mean_adv > mean_nat and mean_adv > mean_best_l1 and elapsed <= 600.0
    acceptance.check(C8, ok, (
        f"mean IG Gini over 5 seeds: adversarial {mean_adv:.4f} > natural "
        f"{mean_nat:.4f} and > best accuracy-matched l1 {mean_best_l1:.4f}; "
        f"{elapsed:.0f}s (≤600)"
    ))
