"""Path-integral attributions: exact closed form, midpoint-rule convergence,
completeness, dataset-level aggregation, and graymap export."""
import copy
import itertools
import math

import numpy as np
import pytest

from attrsparse.attribution import (
    _attribute_rows,
    _gauss_legendre,
    attribute_dataset,
    check_baseline,
    check_method,
    impact_report,
    numeric_rule,
    write_pgm,
)
from attrsparse.data import Dataset, FeatureGroup
from attrsparse.losses import sigmoid
from attrsparse.models import LinearModel, init_mlp
from helpers import ig_gauss_legendre_reference, ig_midpoint_reference, ig_row

SIGMOID_3 = 0.9525741268224334
IG_HAND = (0.15085804227414445, 0.3017160845482889)  # (s(3)-0.5)*(1/3, 2/3)


def test_closed_form_hand_value():
    model = LinearModel(w=np.asarray([1.0, 1.0]))
    attr = ig_row(model, np.asarray([1.0, 2.0]), np.zeros(2))
    np.testing.assert_allclose(attr.values, IG_HAND, rtol=0, atol=1e-15)
    assert attr.completeness_residual <= 1e-15
    assert np.all(attr.values > 0.0)
    # components split the output difference in proportion to (x-u)*w
    assert float(attr.values.sum()) == pytest.approx(SIGMOID_3 - 0.5, abs=1e-15)


def test_closed_form_identity_activation():
    # for an identity activation the attribution IS the per-coordinate product
    model = LinearModel(w=np.asarray([2.0, -3.0]), activation="identity")
    attr = ig_row(model, np.asarray([1.0, 1.0]), np.asarray([0.5, 0.0]))
    np.testing.assert_allclose(attr.values, [1.0, -3.0], atol=1e-15)
    assert attr.completeness_residual <= 1e-12


def test_closed_form_zero_weight_coordinate_is_exactly_zero():
    model = LinearModel(w=np.asarray([1.5, 0.0, -0.5]))
    attr = ig_row(model, np.asarray([3.0, 9.0, 1.0]), np.zeros(3))
    assert attr.values[1] == 0.0


def test_closed_form_completeness_random(rng):
    for _ in range(200):
        d = int(rng.integers(1, 12))
        model = LinearModel(w=rng.normal(size=d))
        x, u = rng.normal(size=d), rng.normal(size=d)
        attr = ig_row(model, x, u)
        fx = float(model.value(x))
        fu = float(model.value(u))
        assert attr.completeness_residual <= 1e-12
        assert float(attr.values.sum()) == pytest.approx(fx - fu, abs=1e-12)


def test_closed_form_degenerate_branches():
    model = LinearModel(w=np.asarray([1.0, -1.0]))
    # x == u: zero path, zero attribution, complete
    attr = ig_row(model, np.asarray([0.3, 0.3]), np.asarray([0.3, 0.3]))
    np.testing.assert_array_equal(attr.values, [0.0, 0.0])
    assert attr.completeness_residual == 0.0
    # orthogonal move: margin unchanged, outputs equal, still zero and complete
    attr2 = ig_row(model, np.asarray([1.0, 1.0]), np.zeros(2))
    np.testing.assert_array_equal(attr2.values, [0.0, 0.0])
    assert attr2.completeness_residual == 0.0


@pytest.mark.parametrize("activation", ["identity", "sigmoid"])
@pytest.mark.parametrize("bias", [None, 0.3])
def test_closed_form_rounding_split_is_degenerate_not_an_error(activation, bias):
    # <x - u, w> rounds to exactly 0 while <x, w> and <u, w> round apart
    model = LinearModel(w=np.asarray([1.0, 1.0]), activation=activation, bias=bias)
    x = np.asarray([0.7661528715366753, -0.772527513734584])
    u = np.asarray([0.1257302210933933, -0.1321048632913019])
    assert float((x - u) @ model.w) == 0.0
    assert float(model.margin(x)) != float(model.margin(u))
    gap = float(model.value(x)) - float(model.value(u))
    assert abs(gap) < 1e-15
    attr = ig_row(model, x, u)
    np.testing.assert_array_equal(attr.values, [0.0, 0.0])
    assert attr.completeness_residual == abs(gap)
    if activation == "identity":
        assert gap != 0.0


def test_closed_form_rejects_nonlinear_model(rng):
    mlp = init_mlp([3, 2, 1], rng)
    with pytest.raises(ValueError, match="linear"):
        attribute_dataset(mlp, _toy_dataset(), np.zeros(3))


def test_dimension_validation(rng):
    model = LinearModel(w=np.asarray([1.0, 1.0]))
    with pytest.raises(ValueError, match="does not match dimension 2"):
        check_baseline(np.zeros(3), model.dim)
    for method in ("closed", "numeric"):
        with pytest.raises(ValueError, match="model dimension 2 does not match data dimension 3"):
            attribute_dataset(model, _toy_dataset(), np.zeros(3), method=method)
    with pytest.raises(ValueError, match="steps"):
        check_method("numeric", 0)


# --- midpoint rule ---------------------------------------------------------------

def test_numeric_single_step_is_midpoint_gradient():
    model = LinearModel(w=np.asarray([1.0, -2.0]))
    x, u = np.asarray([0.8, 0.2]), np.asarray([0.0, 0.4])
    attr = ig_row(model, x, u, steps=1)
    p = float(sigmoid(model.margin((x + u) / 2.0)))
    np.testing.assert_allclose(attr.values, (x - u) * p * (1.0 - p) * model.w, rtol=1e-14)


def test_numeric_matches_closed_form_and_converges(rng):
    model = LinearModel(w=rng.normal(size=6))
    x, u = rng.normal(size=6), rng.normal(size=6)
    exact = ig_row(model, x, u).values
    err = {}
    for steps in (16, 256, 4096):
        approx = ig_row(model, x, u, steps=steps)
        err[steps] = float(np.abs(approx.values - exact).max())
    assert err[16] > err[256] > err[4096]
    assert err[4096] <= 1e-6
    # midpoint rule is second order: 16x more steps ~ 256x less error
    assert err[256] <= err[16] / 16
    assert err[4096] <= err[256] / 16


def test_numeric_completeness_residual_tracks_error(rng):
    model = init_mlp([4, 5, 1], rng)
    x, u = rng.normal(size=4), np.zeros(4)
    r256 = ig_row(model, x, u, steps=256).completeness_residual
    r4096 = ig_row(model, x, u, steps=4096).completeness_residual
    assert r256 <= 5e-3
    assert r4096 <= r256 + 1e-15


def test_numeric_zero_weight_coordinate_is_exactly_zero():
    model = LinearModel(w=np.asarray([1.0, 0.0]))
    attr = ig_row(model, np.asarray([2.0, 5.0]), np.zeros(2), steps=8)
    assert attr.values[1] == 0.0


# --- dataset-level attribution ---------------------------------------------------

def _toy_dataset():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(10, 3))
    y = np.asarray([1, -1] * 5, dtype=float)
    groups = tuple(FeatureGroup(f"f{i}", "numeric", i, i + 1) for i in range(3))
    return Dataset(X, y, ["f0", "f1", "f2"], groups, split_seed=0)


def test_attribute_dataset_true_class_flips_negative_examples():
    ds = _toy_dataset()
    model = LinearModel(w=np.asarray([1.0, -0.5, 0.2]))
    u = np.zeros(3)
    flipped = attribute_dataset(model, ds, u, method="closed")
    raw = attribute_dataset(model, ds, u, method="closed", target="model-output")
    assert len(flipped) == len(ds.test_indices)
    for a, b, i in zip(flipped, raw, ds.test_indices):
        sign = 1.0 if ds.labels[i] == 1.0 else -1.0
        np.testing.assert_array_equal(a.values, sign * b.values)
        assert a.completeness_residual == b.completeness_residual
    assert any(ds.labels[i] == -1.0 for i in ds.test_indices)


def test_attribute_dataset_split_and_method(rng):
    ds = _toy_dataset()
    model = LinearModel(w=np.asarray([1.0, -0.5, 0.2]))
    u = np.zeros(3)
    train_attrs = attribute_dataset(model, ds, u, split="train")
    assert len(train_attrs) == len(ds.train_indices)
    closed = attribute_dataset(model, ds, u, method="closed")
    numeric = attribute_dataset(model, ds, u, method="numeric", steps=4096)
    for a, b in zip(closed, numeric):
        np.testing.assert_allclose(a.values, b.values, atol=1e-6)


def test_attribute_dataset_validation():
    ds = _toy_dataset()
    model = LinearModel(w=np.asarray([1.0, -0.5, 0.2]))
    with pytest.raises(ValueError, match="baseline shape"):
        attribute_dataset(model, ds, np.zeros(4))
    for bad, method in itertools.product((np.nan, np.inf, -np.inf), ("closed", "numeric")):
        with pytest.raises(ValueError, match="baseline has non-finite entries"):
            attribute_dataset(model, ds, np.asarray([bad, 0.0, 0.0]), method=method)
    with pytest.raises(ValueError, match="unknown method"):
        attribute_dataset(model, ds, np.zeros(3), method="exact")
    with pytest.raises(ValueError, match="unknown target"):
        attribute_dataset(model, ds, np.zeros(3), target="logit")
    with pytest.raises(ValueError, match="steps must be >= 1"):
        attribute_dataset(model, ds, np.zeros(3), steps=0)
    with pytest.raises(ValueError, match="linear"):
        attribute_dataset(init_mlp([3, 2, 1], np.random.default_rng(0)), ds, np.zeros(3))


def test_impact_report_sums_categorical_spans():
    X = np.asarray([
        [1.0, 0.0, 0.0, 2.0],
        [0.0, 1.0, 0.0, -2.0],
    ])
    groups = (
        FeatureGroup("color", "categorical", 0, 3, categories=("r", "g", "b")),
        FeatureGroup("size", "numeric", 3, 4),
    )
    ds = Dataset(X, np.asarray([1.0, -1.0]),
                 ["color=r", "color=g", "color=b", "size"], groups)
    from attrsparse.attribution import AttributionVector
    a1 = AttributionVector(np.asarray([0.2, -0.4, 0.0, 1.0]), 0.0)
    a2 = AttributionVector(np.asarray([-0.6, 0.0, 0.2, 3.0]), 0.0)
    value_impact, feature_impact = impact_report([a1, a2], ds)
    np.testing.assert_allclose(value_impact, [0.4, 0.2, 0.1, 2.0], atol=1e-15)
    np.testing.assert_allclose(feature_impact, [0.7, 2.0], atol=1e-15)
    with pytest.raises(ValueError, match="no attributions"):
        impact_report([], ds)


def test_write_pgm_exact_bytes(tmp_path):
    p = tmp_path / "img.pgm"
    write_pgm(np.asarray([0.0, 0.5]), (1, 2), p)
    assert p.read_text(encoding="ascii") == "P2\n2 1\n255\n0 255\n"
    write_pgm(np.asarray([0.0, -0.25, 0.5, 1.0]), (2, 2), p)
    assert p.read_text(encoding="ascii") == "P2\n2 2\n255\n0 64\n128 255\n"
    write_pgm(np.zeros(4), (2, 2), p)
    assert p.read_text(encoding="ascii") == "P2\n2 2\n255\n0 0\n0 0\n"


# --- the split-at-once closed form against the per-row formula ---------------------

def _closed_form_row_reference(model, x, u):
    """The per-example closed form, one 1-d row at a time: values, residual,
    degenerate flag."""
    diff = x - u
    denom = float(diff @ model.w)
    fx = float(np.asarray(model.value(x)))
    fu = float(np.asarray(model.value(u)))
    if denom == 0.0:
        assert fx == fu
        return np.zeros_like(diff), 0.0, True
    values = (fx - fu) * (diff * model.w) / denom
    return values, abs(float(values.sum()) - (fx - fu)), False


def _degenerate_rich_dataset(rng, n=240, d=52):
    """Random rows plus rows equal to the baseline and rows orthogonal to w."""
    w = rng.normal(size=d)
    w[:2] = (1.0, -1.0)
    X = rng.normal(size=(n, d))
    u = np.zeros(d)
    X[0:4] = u                               # x == u: zero path
    X[4:12] = 0.0
    X[4:12, :2] = rng.normal(size=(8, 1))    # <x - u, w> == 0 exactly
    y = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
    y[4:12] = (1.0, -1.0) * 4                # degenerate rows of both classes
    groups = tuple(FeatureGroup(f"f{i}", "numeric", i, i + 1) for i in range(d))
    return Dataset(X, y, [g.name for g in groups], groups, split_seed=1), w, u


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("bias", [None, 0.37])
@pytest.mark.parametrize("activation", ["sigmoid", "identity"])
def test_split_closed_form_matches_per_row_formula_bitwise(bias, activation):
    rng = np.random.default_rng(7)
    ds, w, zero = _degenerate_rich_dataset(rng)
    model = LinearModel(w=w, activation=activation, bias=bias)
    negative_zero_rows = 0
    for split, target, u in itertools.product(("train", "test"),
                                              ("true-class-probability", "model-output"),
                                              (zero, rng.normal(size=ds.dim))):
        idx = ds.split(split)
        got = attribute_dataset(model, ds, u, split=split, target=target)
        assert len(got) == idx.size
        for attr, i in zip(got, idx):
            values, residual, degenerate = _closed_form_row_reference(model, ds.features[i], u)
            if target == "true-class-probability" and ds.labels[i] == -1.0:
                values = -values
            assert _same_bits(attr.values, values), (split, target, i)
            assert _same_bits(attr.completeness_residual, residual)
            negative_zero_rows += degenerate and bool(np.signbit(attr.values).all())
        base = got[0].values.base  # the vectors view one matrix
        assert base is not None and all(a.values.base is base for a in got)
    assert negative_zero_rows > 0  # the sign flip of a zero attribution is -0.0
    one = ig_row(model, ds.features[5], zero)
    values, residual, degenerate = _closed_form_row_reference(model, ds.features[5], zero)
    assert degenerate and _same_bits(one.values, values)
    assert one.completeness_residual == residual


# --- the split-level numeric kernel ----------------------------------------------

def _numeric_models(rng, d, steep=False):
    """Linear models and MLPs of hidden widths 16 and (6, 4) in every
    hidden activation, with non-zero biases; steep=True adds softplus and
    tanh MLPs of width (6, 4) whose weights are 5x Glorot's, whose path
    integrands 32 Gauss-Legendre nodes do not resolve for many rows."""
    models = [LinearModel(w=rng.normal(size=d)),
              LinearModel(w=rng.normal(size=d), activation="identity", bias=-0.4)]
    for hidden, act in itertools.product(((16,), (6, 4)), ("softplus", "tanh", "relu")):
        models.append(_mlp(rng, [d, *hidden, 1], act))
    if steep:
        models += [_mlp(rng, [d, 6, 4, 1], act, scale=5.0) for act in ("softplus", "tanh")]
    return models


def _mlp(rng, sizes, act, scale=1.0):
    mlp = init_mlp(sizes, rng, hidden_activation=act)
    mlp.weights = [scale * W for W in mlp.weights]
    mlp.biases = [0.3 * rng.normal(size=b.shape) for b in mlp.biases]
    return mlp


def _numeric_dataset(rng, n, d):
    X = rng.uniform(size=(n, d))
    X[:3] = 0.0                                  # rows at the zero baseline
    y = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
    groups = tuple(FeatureGroup(f"f{i}", "numeric", i, i + 1) for i in range(d))
    return Dataset(X, y, [g.name for g in groups], groups, split_seed=3)


def _on_test_rows(ds, idx):
    view = copy.copy(ds)
    view.test_indices = np.asarray(idx)
    return view


@pytest.mark.parametrize("steps", [1, 24, 64, 1024])
def test_numeric_row_does_not_depend_on_its_block(steps):
    # A block holds about 256 path points a row: at d = 40 that is 26
    # (hidden 16), 71 (hidden 6, 4) or 426 (linear) rows at 24 midpoint
    # steps, 1, 1 or 10 rows at 1024 steps, and 20 or 53 rows at 32
    # Gauss-Legendre nodes, so a row lands at different block offsets when
    # it is attributed alone, among 5 rows, or with its whole split. At 64
    # steps the steep models refine some rows to 64 nodes, so their blocks
    # mix both levels.
    rng = np.random.default_rng(21)
    ds = _numeric_dataset(rng, 80, 40)
    refined = 0
    for model, u in itertools.product(_numeric_models(rng, ds.dim, steep=True),
                                      (np.zeros(ds.dim), rng.uniform(size=ds.dim))):
        singles = {i: ig_row(model, ds.features[i], u, steps=steps)
                   for i in range(ds.features.shape[0])}
        if steps > 32 and not isinstance(model, LinearModel):
            if numeric_rule("mlp", model.hidden_activation) == "gauss-legendre":
                residual = _attribute_rows(model, ds.features, u, "numeric", 32)[1]
                refined += int((residual > 1e-10).sum())
        runs = [(split, ds.split(split)) for split in ("train", "test")]
        runs += [("test", [i]) for i in ds.test_indices[:4]]
        runs += [("test", ds.test_indices[k:k + 5]) for k in (0, 3, 7)]
        for split, idx in runs:
            view = _on_test_rows(ds, idx) if split == "test" else ds
            got = attribute_dataset(model, view, u, method="numeric", steps=steps,
                                    split=split, target="model-output")
            assert len(got) == len(idx)
            for attr, i in zip(got, idx):
                one = singles[i]
                assert _same_bits(attr.values, one.values), (model, split, i)
                assert attr.completeness_residual == one.completeness_residual
            base = got[0].values.base  # the vectors view one matrix
            assert base is not None and all(a.values.base is base for a in got)
    assert refined > 0 if steps > 32 else refined == 0


def test_numeric_kernel_matches_pointwise_midpoint_rule():
    # the midpoint rule for linear and ReLU models, Gauss-Legendre for
    # softplus and tanh MLPs: at 24 steps with 24 nodes, and at 256 steps
    # with the rows that 32 nodes leave above the tolerance refined
    rng = np.random.default_rng(22)
    d = 12
    ds = _numeric_dataset(rng, 40, d)
    refined = 0
    for model, steps in itertools.product(_numeric_models(rng, d, steep=True), (24, 256)):
        kind = "linear" if isinstance(model, LinearModel) else "mlp"
        rule = numeric_rule(kind, getattr(model, "hidden_activation", None))
        for u in (np.zeros(d), rng.uniform(size=d)):
            got = attribute_dataset(model, ds, u, method="numeric", steps=steps,
                                    split="train", target="model-output")
            if rule == "midpoint":
                want = [ig_midpoint_reference(model, ds.features[i], u, steps)
                        for i in ds.train_indices]
            else:
                want = [ig_gauss_legendre_reference(model, ds.features[i], u, steps)
                        for i in ds.train_indices]
                refined += sum(nodes > 32 for *_, nodes in want)
            scale = max(float(np.abs(v[0]).max()) for v in want)
            assert scale > 0.0
            for attr, (values, residual, *_) in zip(got, want):
                np.testing.assert_allclose(attr.values, values, rtol=0, atol=1e-12 * scale)
                assert abs(attr.completeness_residual - residual) <= 1e-12 * scale * d
    assert refined > 0


# --- Gauss-Legendre against a fine midpoint oracle ----------------------------------

# Measured max |GL - oracle| over the cases below, relative to each case's
# largest attribution: 1.1e-7 (2.7e-10 on the Glorot-scale models). Most of
# it is the 16,384-step midpoint oracle's own error: against a Richardson
# step from 8,192 and 16,384 steps the gap is at most 1.7e-8, on a row that
# stopped at 64 nodes with residual 7.6e-11. A refined row's 32-node values
# were up to 0.17 away, so a row that kept them fails.
GL_ORACLE_TOL = 2e-7


def test_gauss_legendre_matches_fine_midpoint_oracle():
    rng = np.random.default_rng(23)
    d, steps = 10, 256
    X = rng.uniform(size=(12, d))
    refined = 0
    for hidden, act, scale in itertools.product(((16,), (6, 4)), ("softplus", "tanh"),
                                                (1.0, 8.0)):
        model = _mlp(rng, [d, *hidden, 1], act, scale)
        for u in (np.zeros(d), rng.uniform(size=d)):
            values, residual = _attribute_rows(model, X, u, "numeric", steps)
            oracle = np.stack([ig_midpoint_reference(model, x, u, 16384)[0] for x in X])
            top = float(np.abs(oracle).max())
            np.testing.assert_allclose(values, oracle, rtol=0, atol=GL_ORACLE_TOL * top)
            nodes = np.asarray([ig_gauss_legendre_reference(model, x, u, steps)[2] for x in X])
            assert np.all(residual[nodes < steps] <= 1e-10), (hidden, act, scale)
            refined += int((nodes > 32).sum())
    assert refined > 0


def test_gauss_legendre_nodes_are_mapped_to_the_unit_interval():
    alphas, weights = _gauss_legendre(5)
    assert np.all((alphas > 0.0) & (alphas < 1.0))
    assert math.fsum(weights.tolist()) == pytest.approx(1.0, abs=1e-15)
    # exact for polynomials up to degree 9: the integral of t^9 over [0, 1]
    assert float(weights @ alphas**9) == pytest.approx(0.1, abs=1e-15)
    with pytest.raises(ValueError):
        alphas[0] = 0.5  # shared by every call at this count


def test_numeric_rule_by_model():
    assert numeric_rule("linear") == "midpoint"
    assert numeric_rule("linear", "softplus") == "midpoint"
    assert numeric_rule("mlp", "relu") == "midpoint"
    assert numeric_rule("mlp", "softplus") == numeric_rule("mlp", "tanh") == "gauss-legendre"
