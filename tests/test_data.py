"""Dataset ingestion, encoding, splitting, synthetic generators, sidecars."""
import csv
import json

import numpy as np
import pytest

from attrsparse import data
from attrsparse.data import (
    Dataset,
    FeatureGroup,
    SyntheticConditionalSampler,
    blob_sampler,
    generate_synthetic,
    load_csv,
    load_dataset,
    read_schema,
    save_dataset,
)

from helpers import categorical_schema, make_categorical_csv


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


@pytest.fixture
def mixed_csv(tmp_path):
    # 10 rows so the 70/30 split is 7 train / 3 test
    header = ["color", "size", "label"]
    rows = [
        ["red", "1.5", "yes"], ["blue", "2.0", "no"], ["red", "0.5", "yes"],
        ["green", "3.0", "no"], ["blue", "1.0", "yes"], ["red", "2.5", "no"],
        ["green", "0.0", "yes"], ["blue", "-1.0", "no"], ["red", "4.0", "yes"],
        ["blue", "2.2", "no"],
    ]
    return _write_csv(tmp_path / "mixed.csv", header, rows)


SCHEMA = [("color", "categorical"), ("size", "numeric")]


def test_load_csv_encoding(mixed_csv):
    ds = load_csv(mixed_csv, SCHEMA, "label")
    assert ds.n_examples == 10
    # categories are first-seen over the training split only
    color = ds.encoding_map[0]
    assert color.kind == "categorical"
    train_rows = set(ds.train_indices.tolist())
    expected_cats = []
    raw = ["red", "blue", "red", "green", "blue", "red", "green", "blue", "red", "blue"]
    for i in range(10):
        if i in train_rows and raw[i] not in expected_cats:
            expected_cats.append(raw[i])
    assert list(color.categories) == expected_cats
    assert ds.dim == len(expected_cats) + 1
    # exactly one 1 per one-hot block
    block = ds.features[:, color.start:color.stop]
    assert np.all(block.sum(axis=1) == 1.0)
    assert set(np.unique(block)) <= {0.0, 1.0}
    # numeric column passes through
    size = ds.encoding_map[1]
    np.testing.assert_array_equal(
        ds.features[:, size.start],
        [1.5, 2.0, 0.5, 3.0, 1.0, 2.5, 0.0, -1.0, 4.0, 2.2])
    # binary labels map sorted: 'no' -> -1, 'yes' -> +1
    np.testing.assert_array_equal(ds.labels, [1.0, -1.0] * 5)
    # feature names carry the category
    assert ds.feature_names[0] == f"color={expected_cats[0]}"


def test_inferred_schema_parses_each_numeric_cell_once(tmp_path, monkeypatch):
    # Inference parses every cell of a numeric column to pick its kind and
    # the encoding reuses those values; a categorical column costs the one
    # failed parse of its first cell. The Dataset is the explicit schema's.
    rows = [["red", f"{0.25 * i - 1.0}", "yes" if i % 2 else "no", str(i)] for i in range(12)]
    path = _write_csv(tmp_path / "m.csv", ["color", "size", "label", "count"], rows)
    calls = []

    class CountingFloat:
        dtype = np.dtype(float)  # so the module's dtype=float still reads float64

        def __new__(cls, v):
            calls.append(v)
            return float(v)

    monkeypatch.setattr(data, "float", CountingFloat, raising=False)
    got = load_csv(path, None, "label")
    monkeypatch.undo()
    assert sorted(calls) == sorted(["red"] + [r[1] for r in rows] + [r[3] for r in rows])
    want = load_csv(path, [("color", "categorical"), ("size", "numeric"),
                           ("count", "numeric")], "label")
    assert got.features.tobytes() == want.features.tobytes()
    assert got.feature_names == want.feature_names == ["color=red", "size", "count"]
    # a short row is still the row-length error, after inference
    short = _write_csv(tmp_path / "s.csv", ["color", "size", "label"],
                       [["red", "1.0", "yes"], ["blue", "2.0"]])
    with pytest.raises(ValueError, match="row 1: expected 3 fields, got 2"):
        load_csv(short, None, "label")


def test_load_csv_positive_label_override(mixed_csv):
    ds = load_csv(mixed_csv, SCHEMA, "label", positive_label="no")
    np.testing.assert_array_equal(ds.labels, [-1.0, 1.0] * 5)
    with pytest.raises(ValueError, match="not among"):
        load_csv(mixed_csv, SCHEMA, "label", positive_label="maybe")


def test_load_csv_errors(tmp_path, mixed_csv):
    with pytest.raises(ValueError, match="label column"):
        load_csv(mixed_csv, SCHEMA, "target")
    with pytest.raises(ValueError, match="does not name"):
        load_csv(mixed_csv, [("color", "categorical")], "label")
    with pytest.raises(ValueError, match="unknown kind"):
        load_csv(mixed_csv, [("color", "ordinal"), ("size", "numeric")], "label")
    # a column the schema names twice would be encoded twice
    with pytest.raises(ValueError, match="'color' appears more than once in the schema"):
        load_csv(mixed_csv, [*SCHEMA, ("color", "categorical")], "label")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="header row required"):
        load_csv(empty, SCHEMA, "label")
    headeronly = _write_csv(tmp_path / "h.csv", ["color", "size", "label"], [])
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(headeronly, SCHEMA, "label")
    ragged = _write_csv(tmp_path / "r.csv", ["color", "size", "label"],
                        [["red", "1.0", "yes"], ["blue", "2.0"]])
    with pytest.raises(ValueError, match="row 1"):
        load_csv(ragged, SCHEMA, "label")
    single = _write_csv(tmp_path / "s.csv", ["color", "size", "label"],
                        [["red", "1.0", "yes"], ["red", "2.0", "yes"]])
    with pytest.raises(ValueError, match="single value"):
        load_csv(single, SCHEMA, "label")


def test_load_csv_non_numeric_cell_names_row(tmp_path):
    # constant categorical column so only the numeric parse can fail
    rows = [["red", "1.0", "yes"], ["red", "oops", "no"], ["red", "2.0", "yes"]]
    path = _write_csv(tmp_path / "bad.csv", ["color", "size", "label"], rows)
    with pytest.raises(ValueError, match=r"row 1, column 'size': non-numeric value 'oops'"):
        load_csv(path, SCHEMA, "label")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_csv_rejects_non_finite_numbers(tmp_path, bad):
    rows = [["red", "1.0", "yes"], ["red", bad, "no"], ["red", "2.0", "yes"]]
    path = _write_csv(tmp_path / "bad.csv", ["color", "size", "label"], rows)
    with pytest.raises(ValueError, match=f"example 1, feature 'size': non-finite value {bad}"):
        load_csv(path, SCHEMA, "label")


def test_load_csv_unseen_test_category_names_row(tmp_path):
    # find a test-split row for n=12, seed 0, and plant a unique category there
    n = 12
    perm = np.random.default_rng(0).permutation(n)
    test_rows = sorted(perm[int(round(0.7 * n)):].tolist())
    target = test_rows[0]
    rows = []
    for i in range(n):
        color = "unique" if i == target else ("red" if i % 2 else "blue")
        rows.append([color, str(float(i)), "yes" if i % 2 else "no"])
    path = _write_csv(tmp_path / "u.csv", ["color", "size", "label"], rows)
    with pytest.raises(ValueError, match=f"row {target}, column 'color': category 'unique'"):
        load_csv(path, SCHEMA, "label")


def test_split_is_seeded_70_30(tmp_path):
    # numeric-only data: the split behavior is independent of column kinds
    rows = [[str(float(i)), "yes" if i % 2 else "no"] for i in range(10)]
    path = _write_csv(tmp_path / "num.csv", ["x", "label"], rows)
    schema = [("x", "numeric")]
    ds = load_csv(path, schema, "label")
    assert len(ds.train_indices) == 7
    assert len(ds.test_indices) == 3
    together = np.concatenate([ds.train_indices, ds.test_indices])
    np.testing.assert_array_equal(np.sort(together), np.arange(10))
    assert np.all(np.diff(ds.train_indices) > 0)
    ds2 = load_csv(path, schema, "label")
    np.testing.assert_array_equal(ds.train_indices, ds2.train_indices)
    ds3 = load_csv(path, schema, "label", split_seed=1)
    assert not np.array_equal(ds.train_indices, ds3.train_indices)
    np.testing.assert_array_equal(ds.split("train"), ds.train_indices)
    np.testing.assert_array_equal(ds.split("test"), ds.test_indices)
    with pytest.raises(ValueError, match="unknown split"):
        ds.split("validation")


# --- synthetic generators -------------------------------------------------------

def test_generate_synthetic_moments():
    sampler = SyntheticConditionalSampler(strengths=(1.0, -0.5, 0.0), noise_sd=1.5)
    n = 40000
    ds = generate_synthetic(sampler, n, seed=3)
    assert ds.features.shape == (n, 3)
    assert set(np.unique(ds.labels)) == {-1.0, 1.0}
    assert ds.split_seed == 3
    assert ds.feature_names == ["f0", "f1", "f2"]
    # E(y x_i) = a_i within 3 SE
    a = np.asarray(sampler.strengths)
    sd = sampler.noise_sd
    prod = ds.labels[:, None] * ds.features
    se = np.sqrt((sd**2 + a**2)) / np.sqrt(n)
    assert np.all(np.abs(prod.mean(axis=0) - a) <= 3 * se + 1e-12)
    # balance
    assert abs((ds.labels == 1.0).mean() - 0.5) <= 3 * 0.5 / np.sqrt(n)
    # determinism
    ds2 = generate_synthetic(sampler, n, seed=3)
    np.testing.assert_array_equal(ds.features, ds2.features)


@pytest.mark.parametrize("kind", ["gaussian", "uniform"])
def test_generate_synthetic_features_are_c_ordered(kind):
    # the sampler hands over column-major draws; a Dataset holds them row by
    # row, the layout training, attribution and save_dataset were pinned on
    sampler = SyntheticConditionalSampler(strengths=(0.5, -0.2, 0.1), noise_kind=kind)
    ds = generate_synthetic(sampler, 1000, seed=4)
    assert ds.features.flags.c_contiguous
    X, y = sampler.sample(1000, np.random.default_rng(4))
    np.testing.assert_array_equal(ds.features, X)
    np.testing.assert_array_equal(ds.labels, y)


def test_generate_synthetic_conditional_independence():
    sampler = SyntheticConditionalSampler(strengths=(0.8, 0.8, -0.4))
    ds = generate_synthetic(sampler, 30000, seed=8)
    for label in (-1.0, 1.0):
        Xc = ds.features[ds.labels == label]
        m = len(Xc)
        corr = np.corrcoef(Xc, rowvar=False)
        off = corr[np.triu_indices(3, k=1)]
        assert np.all(np.abs(off) <= 3.0 / np.sqrt(m)), off


def test_synthetic_spec_validation():
    # zero noise is the noise-free set; a negative spread is rejected
    with pytest.raises(ValueError, match="noise_sd"):
        SyntheticConditionalSampler(strengths=(1.0,), noise_sd=-1.0)
    with pytest.raises(ValueError, match="class_balance"):
        SyntheticConditionalSampler(strengths=(1.0,), class_balance=1.0)
    with pytest.raises(ValueError, match="one or more"):
        SyntheticConditionalSampler(strengths=())
    with pytest.raises(ValueError, match=">= 1"):
        generate_synthetic(SyntheticConditionalSampler(strengths=(1.0,)), 0)


def test_blob_sampler():
    sampler = blob_sampler(height=8, width=8, strong_amplitude=1.0,
                           weak_amplitude=0.05, blob_sigma=1.3)
    assert sampler.noise_sd == 0.5 and sampler.class_balance == 0.5
    a = np.asarray(sampler.strengths).reshape(8, 8)
    assert a.shape == (8, 8)
    assert np.all(a >= 0.05 - 1e-12) and np.all(a <= 1.0 + 1e-12)
    # strongest signal at the four center pixels, weakest at the corners
    center = a[3:5, 3:5]
    assert center.min() > a[0, 0] * 10
    assert a[0, 0] == pytest.approx(0.05, rel=0.2)
    np.testing.assert_allclose(a, a[::-1, :], atol=1e-15)  # symmetric
    np.testing.assert_allclose(a, a[:, ::-1], atol=1e-15)


# --- dataset validation and persistence -----------------------------------------

def test_dataset_validation():
    g = (FeatureGroup("f0", "numeric", 0, 1),)
    with pytest.raises(ValueError, match="labels"):
        Dataset(features=np.ones((3, 1)), labels=np.asarray([0.5, 1.0, -1.0]),
                feature_names=["f0"], encoding_map=g)
    with pytest.raises(ValueError, match="does not match"):
        Dataset(features=np.ones((3, 1)), labels=np.ones(2),
                feature_names=["f0"], encoding_map=g)
    with pytest.raises(ValueError, match="feature_names"):
        Dataset(features=np.ones((3, 1)), labels=np.ones(3),
                feature_names=["a", "b"], encoding_map=g)
    with pytest.raises(ValueError, match="cover"):
        Dataset(features=np.ones((3, 2)), labels=np.ones(3),
                feature_names=["a", "b"], encoding_map=g)
    with pytest.raises(ValueError, match="overlaps"):
        Dataset(features=np.ones((3, 2)), labels=np.ones(3),
                feature_names=["a", "b"],
                encoding_map=(FeatureGroup("f0", "numeric", 0, 1),
                              FeatureGroup("f1", "categorical", 0, 2, ("x", "y"))))
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(features=np.asarray([[1.0], [np.inf], [0.0]]), labels=np.ones(3),
                feature_names=["f0"], encoding_map=g)
    with pytest.raises(ValueError, match="one-hot"):
        Dataset(features=np.asarray([[0.5, 0.5]]), labels=np.ones(1),
                feature_names=["c=x", "c=y"],
                encoding_map=(FeatureGroup("c", "categorical", 0, 2, ("x", "y")),))


def test_feature_group_validation():
    with pytest.raises(ValueError, match="unknown column kind"):
        FeatureGroup("f", "boolean", 0, 1)
    with pytest.raises(ValueError, match="exactly one position"):
        FeatureGroup("f", "numeric", 0, 2)
    with pytest.raises(ValueError, match="category list"):
        FeatureGroup("f", "categorical", 0, 2, ("only-one",))


def test_sidecar_roundtrip(tmp_path, mixed_csv):
    ds = load_csv(mixed_csv, SCHEMA, "label")
    path = tmp_path / "ds.json"
    save_dataset(ds, path)
    back = load_dataset(path)
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.labels, ds.labels)
    assert back.feature_names == ds.feature_names
    assert back.encoding_map == ds.encoding_map
    assert back.split_seed == ds.split_seed
    np.testing.assert_array_equal(back.train_indices, ds.train_indices)


def test_sidecar_version_guard(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 99}')
    with pytest.raises(ValueError, match="version"):
        load_dataset(path)


def test_sidecar_one_hot_check_ignores_old_translated_key(tmp_path):
    # older sidecars carry "translated"; it no longer skips the one-hot check
    path = make_categorical_csv(tmp_path / "cat.csv", n=40, seed=1)
    ds = load_csv(path, categorical_schema(path), "class")
    side = tmp_path / "ds.json"
    save_dataset(ds, side)
    doc = json.loads(side.read_text())
    doc.update(translated=True, label_map=None)
    doc["features"] = (ds.features - ds.features.mean(axis=0)).tolist()  # blocks not 0/1
    side.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="one-hot"):
        load_dataset(side)


def test_schema_column_forms_read_alike(tmp_path):
    # [name, kind] pairs, {"name", "kind"} objects and one {name: kind}
    # object are the same schema
    forms = [
        [["color", "categorical"], ["amount", "numeric"]],
        [{"name": "color", "kind": "categorical"}, {"name": "amount", "kind": "numeric"}],
        {"color": "categorical", "amount": "numeric"},
    ]
    for i, columns in enumerate(forms):
        path = tmp_path / f"s{i}.json"
        path.write_text(json.dumps({"columns": columns, "positive_label": "yes"}),
                        encoding="utf-8")
        assert read_schema(path) == ([("color", "categorical"), ("amount", "numeric")],
                                     None, "yes")
