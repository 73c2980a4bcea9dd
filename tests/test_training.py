"""Training loops: regime equivalences (bitwise), proximal sparsity, divergence
detection, determinism, and evaluation."""
from dataclasses import replace

import numpy as np
import pytest

from helpers import gini_row, gini_row_reference, train_reference

from attrsparse.adversarial import default_pgd_config
from attrsparse.data import Dataset, FeatureGroup, SyntheticConditionalSampler, generate_synthetic
from attrsparse.losses import make_loss
from attrsparse.models import LinearModel, MlpModel
from attrsparse.training import (
    MAX_PGD_EPS,
    MAX_PGD_STEPS,
    REGIMES,
    EvalResult,
    TrainConfig,
    TrainingDivergedError,
    evaluate,
    soft_threshold,
    train,
    train_many,
)

LOGISTIC = make_loss("logistic-nll")


def _easy_dataset(seed=0, n=400):
    sampler = SyntheticConditionalSampler(strengths=(2.0, -1.5, 1.0), noise_sd=0.1)
    return generate_synthetic(sampler, n, seed)


def _noisy_dataset(seed=0, n=600):
    sampler = SyntheticConditionalSampler(strengths=(1.0,) + (0.05,) * 9)
    return generate_synthetic(sampler, n, seed)


def test_soft_threshold():
    np.testing.assert_array_equal(
        soft_threshold(np.asarray([3.0, -2.0, 0.5, -0.5, 0.0]), 1.0),
        [2.0, -1.0, 0.0, -0.0, 0.0])
    v = np.asarray([1.5, -0.25])
    np.testing.assert_array_equal(soft_threshold(v, 0.0), v)
    assert soft_threshold(np.asarray([0.3]), 0.3)[0] == 0.0  # lands exactly on zero


def test_separable_data_reaches_perfect_accuracy():
    ds = _easy_dataset()
    model, trace = train(ds, LOGISTIC, TrainConfig(epochs=10))
    assert isinstance(model, LinearModel)
    res = evaluate(model, ds, LOGISTIC)
    assert isinstance(res, EvalResult)
    assert res.accuracy == 1.0
    assert evaluate(model, ds, LOGISTIC, split="train").accuracy == 1.0
    assert res.mean_loss < 0.2
    # learned signs follow the generating strengths
    assert model.w[0] > 0 and model.w[1] < 0 and model.w[2] > 0
    assert len(trace.loss) == 10


def test_adversarial_epsilon_zero_is_bitwise_natural():
    ds = _easy_dataset()
    m_nat, t_nat = train(ds, LOGISTIC, TrainConfig(regime="natural", epochs=5))
    m_adv, t_adv = train(ds, LOGISTIC, TrainConfig(regime="adversarial", epsilon=0.0, epochs=5))
    np.testing.assert_array_equal(m_nat.w, m_adv.w)
    assert t_nat.loss == t_adv.loss
    assert t_nat.weight_gini == t_adv.weight_gini


def test_stable_ig_is_bitwise_adversarial():
    ds = _easy_dataset()
    cfg_adv = TrainConfig(regime="adversarial", epsilon=0.2, epochs=5)
    cfg_stb = TrainConfig(regime="stable-ig", epsilon=0.2, epochs=5)
    m_adv, t_adv = train(ds, LOGISTIC, cfg_adv)
    m_stb, t_stb = train(ds, LOGISTIC, cfg_stb)
    np.testing.assert_array_equal(m_adv.w, m_stb.w)
    assert t_adv.loss == t_stb.loss


def test_stable_ig_requires_linear():
    ds = _easy_dataset()
    with pytest.raises(ValueError, match="linear"):
        train(ds, LOGISTIC, TrainConfig(regime="stable-ig", epsilon=0.1,
                                        model_kind="mlp", epochs=1))


def test_strong_l1_zeroes_weights_exactly_but_never_bias():
    sampler = SyntheticConditionalSampler(strengths=(0.3, 0.2), class_balance=0.8)
    ds = generate_synthetic(sampler, 500, seed=3)
    model, trace = train(ds, LOGISTIC, TrainConfig(
        regime="l1", l1_strength=10.0, use_bias=True, epochs=5))
    np.testing.assert_array_equal(model.w, [0.0, 0.0])
    assert model.bias != 0.0
    assert trace.weight_l1[-1] == 0.0


def test_moderate_l1_sparser_than_natural():
    # strength 0.3 is enough for the proximal step to pin noise features at
    # exactly 0 while the strong feature keeps most of its weight
    for seed in (0, 1, 2):
        ds = _noisy_dataset(seed=seed)
        m_nat, _ = train(ds, LOGISTIC, TrainConfig(epochs=15, seed=seed))
        m_l1, _ = train(ds, LOGISTIC, TrainConfig(
            regime="l1", l1_strength=0.3, epochs=15, seed=seed))
        assert np.sum(m_l1.w == 0.0) >= 3
        assert np.sum(m_nat.w == 0.0) == 0
        assert m_l1.w[0] > 0.5
        assert gini_row(np.abs(m_l1.w)) > gini_row(np.abs(m_nat.w)) + 0.1


def test_adversarial_training_concentrates_weight():
    # strengths (1.0, 0.05 x 9): the robust regime should lean far harder on
    # the one strong feature than natural training does, every seed
    for seed in range(5):
        ds = _noisy_dataset(seed=seed)
        m_nat, _ = train(ds, LOGISTIC, TrainConfig(seed=seed, epochs=15))
        m_adv, _ = train(ds, LOGISTIC, TrainConfig(
            regime="adversarial", epsilon=0.3, seed=seed, epochs=15))
        g_nat = gini_row(np.abs(m_nat.w))
        g_adv = gini_row(np.abs(m_adv.w))
        assert g_adv > g_nat + 0.1
        share_nat = abs(m_nat.w[0]) / np.abs(m_nat.w).sum()
        share_adv = abs(m_adv.w[0]) / np.abs(m_adv.w).sum()
        assert share_adv > share_nat


def test_divergence_raises_with_step():
    # overlapping classes: a huge step cannot classify every example, so some
    # batch shows an objective beyond the divergence limit
    ds = generate_synthetic(SyntheticConditionalSampler(strengths=(0.1, 0.05)), 400)
    for kind in ("logistic-nll", "hinge"):
        with pytest.raises(TrainingDivergedError) as exc:
            train(ds, make_loss(kind), TrainConfig(
                optimizer="sgd", learning_rate=1e8, epochs=2))
        assert exc.value.step >= 0
        assert "exceeded" in str(exc.value)


def test_training_is_deterministic_and_seed_sensitive():
    ds = _easy_dataset()
    cfg = TrainConfig(epochs=4, seed=11)
    m1, t1 = train(ds, LOGISTIC, cfg)
    m2, t2 = train(ds, LOGISTIC, cfg)
    np.testing.assert_array_equal(m1.w, m2.w)
    assert t1.loss == t2.loss and t1.accuracy == t2.accuracy
    m3, _ = train(ds, LOGISTIC, TrainConfig(epochs=4, seed=12))
    assert not np.array_equal(m1.w, m3.w)


def test_test_split_never_touches_the_fit():
    ds = _easy_dataset()
    m1, _ = train(ds, LOGISTIC, TrainConfig(epochs=3))
    tampered_X = ds.features.copy()
    tampered_X[ds.test_indices] = 1e6
    ds2 = Dataset(tampered_X, ds.labels.copy(), list(ds.feature_names),
                  ds.encoding_map, split_seed=ds.split_seed)
    np.testing.assert_array_equal(ds2.train_indices, ds.train_indices)
    m2, _ = train(ds2, LOGISTIC, TrainConfig(epochs=3))
    np.testing.assert_array_equal(m1.w, m2.w)


def test_trace_csv_format(tmp_path):
    ds = _easy_dataset()
    _, trace = train(ds, LOGISTIC, TrainConfig(epochs=3))
    p = tmp_path / "trace.csv"
    trace.to_csv(p)
    lines = p.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "epoch,loss,acc,l1_norm,weight_gini"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == trace.loss[0]  # repr round-trips
    assert repr(trace.loss[0]) == first[1]


def test_evaluate_threshold_ties_to_positive():
    X = np.ones((10, 2))
    y = np.asarray([1.0] * 6 + [-1.0] * 4)
    groups = tuple(FeatureGroup(f"f{i}", "numeric", i, i + 1) for i in range(2))
    ds = Dataset(X, y, ["f0", "f1"], groups, split_seed=0)
    model = LinearModel(w=np.zeros(2))  # margin 0 everywhere -> predict +1
    res = evaluate(model, ds, LOGISTIC, split="train")
    expected = float((ds.labels[ds.train_indices] == 1.0).mean())
    assert res.accuracy == expected


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_evaluate_counts_zero_margins_as_positive_from_one_pass(kind, monkeypatch):
    X = np.random.default_rng(1).normal(size=(20, 2))
    y = np.asarray([1.0, -1.0] * 10)
    groups = tuple(FeatureGroup(f"f{i}", "numeric", i, i + 1) for i in range(2))
    ds = Dataset(X, y, ["f0", "f1"], groups, split_seed=0)
    model = (LinearModel(w=np.zeros(2)) if kind == "linear"  # a zero output layer:
             else MlpModel(weights=[np.ones((2, 3)), np.zeros((3, 1))],  # margin 0 everywhere
                           biases=[np.zeros(3), np.zeros(1)]))
    passes = []
    margin = model.margin
    monkeypatch.setattr(model, "margin", lambda x: passes.append(len(x)) or margin(x))
    res = evaluate(model, ds, LOGISTIC)
    assert passes == [ds.test_indices.size]  # value() would run a second pass
    assert res.accuracy == float((ds.labels[ds.test_indices] == 1.0).mean())
    assert res.mean_loss == pytest.approx(np.log(2.0), rel=1e-15)


def test_evaluate_empty_split_raises():
    ds = Dataset(np.asarray([[1.0]]), np.asarray([1.0]), ["f0"],
                 (FeatureGroup("f0", "numeric", 0, 1),))
    assert len(ds.test_indices) == 0
    with pytest.raises(ValueError, match="test split is empty"):
        evaluate(LinearModel(w=np.zeros(1)), ds, LOGISTIC)


# --- MLP ---------------------------------------------------------------------

def test_mlp_training_smoke():
    ds = _easy_dataset(n=200)
    cfg = TrainConfig(model_kind="mlp", hidden_sizes=(8,), epochs=5)
    model, trace = train(ds, LOGISTIC, cfg)
    assert isinstance(model, MlpModel)
    assert len(trace.loss) == 5
    assert evaluate(model, ds, LOGISTIC).accuracy >= 0.95
    assert trace.loss[-1] < trace.loss[0]


def test_mlp_adversarial_epsilon_zero_is_bitwise_natural():
    ds = _easy_dataset(n=120)
    cfg_n = TrainConfig(model_kind="mlp", hidden_sizes=(4,), epochs=2)
    cfg_a = TrainConfig(model_kind="mlp", hidden_sizes=(4,), epochs=2,
                        regime="adversarial", epsilon=0.0)
    m_n, _ = train(ds, LOGISTIC, cfg_n)
    m_a, _ = train(ds, LOGISTIC, cfg_a)
    for a, b in zip(m_n.weights, m_a.weights):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(m_n.biases, m_a.biases):
        np.testing.assert_array_equal(a, b)


def test_mlp_adversarial_pgd_path_runs():
    ds = _easy_dataset(n=120)
    cfg = TrainConfig(model_kind="mlp", hidden_sizes=(4,), epochs=2,
                      regime="adversarial", epsilon=0.1, batch_size=64)
    model, trace = train(ds, LOGISTIC, cfg)
    assert isinstance(model, MlpModel)
    assert np.all(np.isfinite(trace.loss))
    # robust objective differs from the natural one
    m_nat, t_nat = train(ds, LOGISTIC, TrainConfig(
        model_kind="mlp", hidden_sizes=(4,), epochs=2, batch_size=64))
    assert trace.loss != t_nat.loss


def test_config_validation():
    assert REGIMES == ("natural", "adversarial", "l1", "stable-ig")
    with pytest.raises(ValueError, match="unknown regime 'robust'"):
        TrainConfig(regime="robust")
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="l1_strength"):
        TrainConfig(l1_strength=-0.1)
    with pytest.raises(ValueError, match="epsilon"):
        TrainConfig(epsilon=-0.1)
    with pytest.raises(ValueError, match="batch_size and epochs"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="batch_size and epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="unknown optimizer"):
        TrainConfig(optimizer="lbfgs")
    with pytest.raises(ValueError, match="unknown model kind"):
        TrainConfig(model_kind="tree")
    with pytest.raises(ValueError, match="use_bias applies to linear models only"):
        TrainConfig(model_kind="mlp", use_bias=True)
    # -0.0 is stored as +0.0, so that it names its model as 0.0 does
    cfg = TrainConfig(regime="adversarial", epsilon=-0.0, l1_strength=-0.0)
    assert repr((cfg.epsilon, cfg.l1_strength)) == "(0.0, 0.0)"
    assert repr(replace(cfg, regime="l1", l1_strength=-0.0).l1_strength) == "0.0"
    for field in ("learning_rate", "l1_strength", "epsilon"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                TrainConfig(**{field: bad})


# --- stacked training ---------------------------------------------------------

def _assert_same_fit(stacked, alone):
    (m_s, t_s), (m_a, t_a) = stacked, alone
    assert type(m_s) is type(m_a)
    if isinstance(m_a, LinearModel):
        np.testing.assert_array_equal(m_s.w, m_a.w)
        assert m_s.bias == m_a.bias
    else:
        for a, b in zip(m_s.weights + m_s.biases, m_a.weights + m_a.biases):
            np.testing.assert_array_equal(a, b)
    for series in ("loss", "accuracy", "weight_l1", "weight_gini"):
        np.testing.assert_array_equal(getattr(t_s, series), getattr(t_a, series))


def _sweep(base, eps_list, lam_list):
    return ([replace(base, regime="natural")]
            + [replace(base, regime="adversarial", epsilon=e) for e in eps_list]
            + [replace(base, regime="l1", l1_strength=lam) for lam in lam_list])


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("use_bias", [False, True])
def test_linear_stack_matches_each_model_alone(optimizer, use_bias):
    ds = _noisy_dataset(seed=4, n=300)
    base = TrainConfig(epochs=3, seed=4, optimizer=optimizer, learning_rate=0.05,
                       use_bias=use_bias)
    cfgs = _sweep(base, (0.0, 0.1, 0.3), (0.0, 0.03, 0.3))
    # an l1 strength outside the l1 regime neither penalises nor shrinks
    cfgs.append(replace(base, regime="adversarial", epsilon=0.1, l1_strength=0.3))
    cfgs.append(replace(base, regime="stable-ig", epsilon=0.2))
    stacked = train_many(ds, LOGISTIC, cfgs)
    assert len(stacked) == len(cfgs)
    for cfg, fit in zip(cfgs, stacked):
        _assert_same_fit(fit, train(ds, LOGISTIC, cfg))
    # the l1 sweep zeroes some weights exactly, so the masks did act, and
    # only on l1 rows
    assert np.sum(stacked[-3][0].w == 0.0) > 0
    _assert_same_fit(stacked[-2], stacked[2])


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_mlp_stack_matches_each_model_alone(optimizer):
    ds = _noisy_dataset(seed=5, n=200)
    base = TrainConfig(model_kind="mlp", hidden_sizes=(6, 3), epochs=2, seed=5,
                       optimizer=optimizer, learning_rate=0.05)
    cfgs = _sweep(base, (0.0,), (0.01, 0.1))
    stacked = train_many(ds, LOGISTIC, cfgs)
    for cfg, fit in zip(cfgs, stacked):
        _assert_same_fit(fit, train(ds, LOGISTIC, cfg))
    assert not np.array_equal(stacked[0][0].weights[0], stacked[-1][0].weights[0])


def _parameters(model):
    return [model.w] if isinstance(model, LinearModel) else model.weights + model.biases


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("kind, regime, use_bias", [
    ("linear", "natural", False), ("linear", "l1", True), ("linear", "adversarial", True),
    ("mlp", "natural", False), ("mlp", "l1", False)])
def test_one_parameter_buffer_matches_per_array_updates(optimizer, kind, regime, use_bias):
    # train keeps all of a model's parameters in one row, updated by one
    # optimizer call and one prox; the per-array loop gives the same bits
    ds = _noisy_dataset(seed=6, n=200)
    cfg = TrainConfig(regime=regime, epsilon=0.2 if regime == "adversarial" else 0.0,
                      l1_strength=0.2 if regime == "l1" else 0.0, epochs=3, seed=6,
                      optimizer=optimizer, learning_rate=0.05, use_bias=use_bias,
                      model_kind=kind, hidden_sizes=(6, 3))
    model, _ = train(ds, LOGISTIC, cfg)
    want = train_reference(ds, LOGISTIC, cfg)
    for a, b in zip(_parameters(model), _parameters(want), strict=True):
        np.testing.assert_array_equal(a, b)
    if kind == "linear":
        assert model.bias == want.bias and (model.bias is None) != use_bias
    if regime == "l1":  # the prox acted, on weights only
        weights = _parameters(model)[:1 if kind == "linear" else 2]
        assert sum(np.sum(W == 0.0) for W in weights) > 0


def test_l1_objective_counts_the_weights_only(monkeypatch):
    # the divergence check's objective adds lam * ||w||_1 of the buffer's
    # weight columns, never the bias; one full batch per epoch, so step 1
    # sees the model after one update
    monkeypatch.setattr("attrsparse.training.DIVERGENCE_LIMIT", 0.75)
    ds = _easy_dataset(n=200)
    cfg = TrainConfig(regime="l1", l1_strength=0.5, optimizer="sgd", learning_rate=5.0,
                      epochs=2, batch_size=1000, use_bias=True)
    with pytest.raises(TrainingDivergedError) as exc:
        train(ds, LOGISTIC, cfg)
    assert exc.value.step == 1
    one = train_reference(ds, LOGISTIC, replace(cfg, epochs=1))
    X, y = ds.features[ds.train_indices], ds.labels[ds.train_indices]
    want = float(LOGISTIC.g(-y * one.margin(X)).mean() + 0.5 * np.abs(one.w).sum())
    got = float(str(exc.value).split("objective ")[1].split(" exceeded")[0])
    assert one.bias != 0.0 and got == pytest.approx(want, rel=1e-12)


def test_returned_models_own_their_parameters():
    # each returned model is a copy, not a view of the training buffer
    ds = _noisy_dataset(seed=7, n=120)
    for base in (TrainConfig(epochs=1, seed=7, use_bias=True),
                 TrainConfig(epochs=1, seed=7, model_kind="mlp", hidden_sizes=(6, 3))):
        (first, _), (second, _) = train_many(
            ds, LOGISTIC, [base, replace(base, regime="l1", l1_strength=0.1)])
        kept = [a.copy() for a in _parameters(second)]
        for a in _parameters(first) + _parameters(second):
            assert a.flags.owndata and a.flags.c_contiguous
        for a in _parameters(first):
            a += 1.0
        for a, b in zip(_parameters(second), kept):
            np.testing.assert_array_equal(a, b)


def _trace_point_reference(spec, cfg, model, X, y):
    """One model's trace point, computed from that model alone."""
    weights = [model.w] if isinstance(model, LinearModel) else model.weights
    wv = np.concatenate([W.ravel() for W in weights])
    margin = model.margin(X)
    l1 = float(np.abs(wv).sum())
    if cfg.regime in ("adversarial", "stable-ig") and isinstance(model, LinearModel):
        z = cfg.epsilon * l1 - y * margin
    else:
        z = -y * margin
    mean_loss = float(spec.g(z).mean())
    if cfg.regime == "l1":
        mean_loss += cfg.l1_strength * l1
    acc = float((np.where(margin >= 0.0, 1.0, -1.0) == y).mean())
    return mean_loss, acc, l1, gini_row_reference(np.abs(wv))


@pytest.mark.parametrize("kind", ["linear", "linear-bias", "linear-hinge", "mlp"])
def test_stacked_trace_matches_each_model_formula_bitwise(kind):
    ds = _noisy_dataset(seed=6, n=300)
    spec = make_loss("hinge") if kind == "linear-hinge" else LOGISTIC
    if kind == "mlp":
        base = TrainConfig(model_kind="mlp", hidden_sizes=(5,), epochs=2, seed=6)
        groups = [_sweep(base, (0.0,), (0.01, 0.3)),
                  [replace(base, regime="adversarial", epsilon=0.1)]]
    else:
        base = TrainConfig(epochs=2, seed=6, learning_rate=0.05, use_bias=kind == "linear-bias")
        cfgs = _sweep(base, (0.0, 0.1, 0.3), (0.01, 5.0))
        groups = [cfgs + [replace(base, regime="stable-ig", epsilon=0.2)]]
    X, y = ds.features[ds.train_indices], ds.labels[ds.train_indices]
    for cfgs in groups:
        for cfg, (model, trace) in zip(cfgs, train_many(ds, spec, cfgs)):
            last = (trace.loss[-1], trace.accuracy[-1], trace.weight_l1[-1],
                    trace.weight_gini[-1])
            assert last == _trace_point_reference(spec, cfg, model, X, y), cfg


def test_stacked_divergence_names_the_model_and_step():
    ds = _noisy_dataset(seed=0, n=300)
    base = TrainConfig(epochs=2, optimizer="sgd", learning_rate=1.0)
    cfgs = _sweep(base, (0.1, 1e7), (0.02,))
    with pytest.raises(TrainingDivergedError) as stacked:
        train_many(ds, LOGISTIC, cfgs)
    with pytest.raises(TrainingDivergedError) as alone:
        train(ds, LOGISTIC, cfgs[2])
    assert str(stacked.value) == str(alone.value)
    assert str(stacked.value).startswith("adversarial(eps=1e+07): objective ")
    assert stacked.value.step == alone.value.step == 1
    for cfg in cfgs[:2] + cfgs[3:]:
        train(ds, LOGISTIC, cfg)  # the other models alone do not diverge
    # two models diverging at one step: the first in config order is named
    with pytest.raises(TrainingDivergedError, match=r"^adversarial\(eps=1e\+07\): .* step 1$"):
        train_many(ds, LOGISTIC, [cfgs[2], replace(cfgs[2], epsilon=2e7)])

    # the l1 penalty counts toward its own model's objective only
    easy = _easy_dataset(n=200)
    big = Dataset(easy.features * 100, easy.labels.copy(), list(easy.feature_names),
                  easy.encoding_map, split_seed=easy.split_seed)
    base = TrainConfig(epochs=2, optimizer="sgd", learning_rate=1000.0)
    cfgs = [base, replace(base, regime="adversarial", epsilon=0.0, l1_strength=10.0),
            replace(base, regime="l1", l1_strength=10.0)]
    with pytest.raises(TrainingDivergedError, match=r"^l1\(lam=10\): objective .* at step 1$"):
        train_many(big, LOGISTIC, cfgs)
    train_many(big, LOGISTIC, cfgs[:2])

    # a mixed MLP sweep is one stack, so the first divergence in step order
    # is raised: the PGD fit's at step 2, before the natural fit's (step 3)
    # and the l1 fit's (step 5), though it comes last in config order
    base = TrainConfig(model_kind="mlp", hidden_sizes=(4,), epochs=3, optimizer="sgd",
                       learning_rate=100.0)
    cfgs = [base, replace(base, regime="l1", l1_strength=1.0),
            replace(base, regime="adversarial", epsilon=2.0)]
    with pytest.raises(TrainingDivergedError) as stacked:
        train_many(ds, LOGISTIC, cfgs)
    steps = []
    for cfg in cfgs:
        with pytest.raises(TrainingDivergedError) as alone:
            train(ds, LOGISTIC, cfg)
        steps.append(alone.value.step)
    assert steps == [3, 5, 2] and stacked.value.step == 2
    assert str(stacked.value) == str(alone.value)
    assert str(stacked.value).startswith("adversarial(eps=2): objective ")


@pytest.mark.parametrize("change", [
    {"seed": 1}, {"epochs": 3}, {"batch_size": 16}, {"optimizer": "sgd"},
    {"learning_rate": 0.02}, {"model_kind": "mlp"}, {"use_bias": True},
])
def test_train_many_rejects_configs_that_cannot_share_a_stream(change):
    ds = _easy_dataset(n=60)
    base = TrainConfig(epochs=2)
    name = next(iter(change))
    with pytest.raises(ValueError, match=f"must share {name}"):
        train_many(ds, LOGISTIC, [base, replace(base, regime="l1", l1_strength=0.1, **change)])


def test_train_many_rejects_mlp_groups_that_cannot_share_a_stream():
    ds = _easy_dataset(n=60)
    base = TrainConfig(model_kind="mlp", hidden_sizes=(4,), epochs=1)
    for change in ({"hidden_sizes": (5,)}, {"hidden_activation": "tanh"}):
        with pytest.raises(ValueError, match="must share hidden_"):
            train_many(ds, LOGISTIC, [base, replace(base, **change)])
    pgd = replace(base, regime="adversarial", epsilon=0.1)
    with pytest.raises(ValueError, match="at least one config"):
        train_many(ds, LOGISTIC, [])
    # alone, with eps = 0 (no PGD), or with other fits, the adversarial MLP
    # is accepted: a PGD fit joins the stack on a stream of its own
    assert len(train_many(ds, LOGISTIC, [pgd])) == 1
    assert len(train_many(ds, LOGISTIC, [base, replace(pgd, epsilon=0.0)])) == 2
    assert len(train_many(ds, LOGISTIC, [base, pgd])) == 2


def test_mixed_mlp_sweep_matches_each_model_alone():
    # one stack: three PGD fits of 20, 15 and 23 steps, each on its own
    # stream, with natural, l1 and eps = 0 fits on the shared one; every fit
    # comes back in config order, bit-identical to its own train(), under
    # each loss and on a two-hidden-layer tanh net
    ds = _noisy_dataset(seed=8, n=160)
    for loss_kind, hidden, act in [("logistic-nll", (5,), "softplus"),
                                   ("hinge", (5,), "softplus"),
                                   ("softplus-hinge", (5,), "softplus"),
                                   ("logistic-nll", (6, 3), "tanh")]:
        spec = make_loss(loss_kind)
        base = TrainConfig(model_kind="mlp", hidden_sizes=hidden, hidden_activation=act,
                           epochs=2, seed=8, learning_rate=0.05)
        cfgs = [base, replace(base, regime="adversarial", epsilon=0.1),
                replace(base, regime="l1", l1_strength=0.05),
                replace(base, regime="adversarial", epsilon=0.05),
                replace(base, regime="adversarial", epsilon=0.0),
                replace(base, regime="adversarial", epsilon=0.13)]
        assert [default_pgd_config(c.epsilon).steps for c in cfgs[1::2]] == [20, 15, 23]
        fits = train_many(ds, spec, cfgs)
        assert len(fits) == len(cfgs)
        for cfg, fit in zip(cfgs, fits):
            _assert_same_fit(fit, train(ds, spec, cfg))


def test_mlp_pgd_bound_is_exact_at_its_edge():
    # eps < MAX_PGD_EPS exactly when default_pgd_config takes at most
    # MAX_PGD_STEPS steps, compared without forming 100 * eps
    below = float(np.nextafter(MAX_PGD_EPS, 0.0))
    TrainConfig(regime="adversarial", epsilon=below, model_kind="mlp")
    assert default_pgd_config(below).steps == MAX_PGD_STEPS
    assert default_pgd_config(MAX_PGD_EPS).steps == MAX_PGD_STEPS + 1
    for eps in (MAX_PGD_EPS, 1e9, 1e308):
        with pytest.raises(ValueError, match=f"more than {MAX_PGD_STEPS} PGD steps"):
            TrainConfig(regime="adversarial", epsilon=eps, model_kind="mlp")
        with pytest.raises(ValueError, match=f"more than {MAX_PGD_STEPS} PGD steps"):
            replace(TrainConfig(model_kind="mlp"), regime="adversarial", epsilon=eps)
    # only an adversarial MLP runs PGD: a linear model's worst case is closed-form
    TrainConfig(regime="adversarial", epsilon=1e308)
    TrainConfig(regime="natural", epsilon=1e308, model_kind="mlp")
