"""Comparison experiment pipeline: report structure, row bookkeeping, writer
formats, and rerun determinism."""
import json
from dataclasses import replace

import numpy as np
import pytest

from attrsparse._version import __version__
from attrsparse.attribution import attribute_dataset
from attrsparse.data import SyntheticConditionalSampler, generate_synthetic
from attrsparse.losses import make_loss
from attrsparse.pipeline import (
    CompareOutcome,
    run_compare,
    write_distribution_csv,
    write_table_csv,
    write_tradeoff_csv,
)
from attrsparse.sparseness import make_gini_report
from attrsparse.training import TrainConfig, evaluate, train, train_many

LOGISTIC = make_loss("logistic-nll")


@pytest.fixture(scope="module")
def outcome():
    ds = generate_synthetic(SyntheticConditionalSampler((1.0, 0.05, 0.05, 0.05)), 300, seed=0)
    base = TrainConfig(epochs=8)
    return ds, run_compare(ds, LOGISTIC, [0.1, 0.3], [0.02], base, dataset_id="toy")


def test_report_structure(outcome):
    ds, out = outcome
    assert isinstance(out, CompareOutcome)
    rep = out.report
    assert rep["format_version"] == 1
    assert rep["dataset"] == "toy"
    assert rep["toolkit_version"] == __version__
    assert rep["seed"] == 0
    assert rep["loss"] == "logistic-nll"
    assert rep["attribution"] == {
        "method": "closed", "steps": None, "baseline": "zero", "target": "p(true class)"}
    tags = ["natural", "adversarial(eps=0.1)", "adversarial(eps=0.3)", "l1(lam=0.02)"]
    assert list(rep["regimes"]) == tags
    for tag in tags:
        entry = rep["regimes"][tag]
        assert 0.0 <= entry["accuracy"] <= 1.0
        assert entry["mean_loss"] > 0.0
        assert 0.0 <= entry["mean_attribution_gini"] <= 1.0
        assert entry["config"]["regime"] in ("natural", "adversarial", "l1")
    assert set(rep["gaps"]) == set(tags) - {"natural"}
    assert rep["runtime_seconds"] > 0.0
    json.dumps(rep)  # report must be JSON-serializable as built


def test_gap_bookkeeping(outcome):
    ds, out = outcome
    rep = out.report
    nat_gini = rep["regimes"]["natural"]["mean_attribution_gini"]
    for tag, gap in rep["gaps"].items():
        expected_gap = rep["regimes"][tag]["mean_attribution_gini"] - nat_gini
        assert gap["gini_gap"] == pytest.approx(expected_gap, abs=1e-12)
        expected_drop = 100.0 * (rep["regimes"]["natural"]["accuracy"]
                                 - rep["regimes"][tag]["accuracy"])
        assert gap["accuracy_drop_pct"] == pytest.approx(expected_drop, abs=1e-12)
    # stronger box -> sparser attributions on this construction
    assert rep["gaps"]["adversarial(eps=0.3)"]["gini_gap"] > \
        rep["gaps"]["adversarial(eps=0.1)"]["gini_gap"] > 0.0


def test_table_rows(outcome):
    ds, out = outcome
    assert len(out.table_rows) == 4
    nat = out.table_rows[0]
    assert nat["model"] == "natural" and nat["dG"] == 0.0 and nat["AcDrop"] == 0.0
    assert all(r["dataset"] == "toy" and r["attr"] == "ig-closed" for r in out.table_rows)
    for row in out.table_rows[1:]:
        assert row["dG"] == out.report["gaps"][row["model"]]["gini_gap"]


def test_distribution_rows_mean_matches_gap(outcome):
    ds, out = outcome
    n_test = ds.test_indices.size
    assert len(out.distribution_rows) == 3 * n_test
    by_tag = {}
    for example_id, tag, gap in out.distribution_rows:
        by_tag.setdefault(tag, []).append(gap)
        assert example_id in ds.test_indices
    for tag, gaps in by_tag.items():
        assert len(gaps) == n_test
        assert np.mean(gaps) == pytest.approx(
            out.report["gaps"][tag]["gini_gap"], abs=1e-12)


def test_tradeoff_rows(outcome):
    ds, out = outcome
    assert len(out.tradeoff_rows) == 4
    tag, param, acc, mg = out.tradeoff_rows[0]
    assert (tag, param) == ("natural", "")
    assert acc == out.report["regimes"]["natural"]["accuracy"]
    assert out.tradeoff_rows[1][1] == 0.1
    assert out.tradeoff_rows[2][1] == 0.3
    assert out.tradeoff_rows[3][1] == 0.02


def test_report_matches_train_many_and_gini_reports(outcome):
    # each regime's report entry is the stacked fit of its config, scored by
    # make_gini_report over the zero-baseline attributions of the test split
    ds, out = outcome
    base = TrainConfig(epochs=8)
    cfgs = {"natural": base,
            "adversarial(eps=0.1)": replace(base, regime="adversarial", epsilon=0.1),
            "adversarial(eps=0.3)": replace(base, regime="adversarial", epsilon=0.3),
            "l1(lam=0.02)": replace(base, regime="l1", l1_strength=0.02)}
    assert list(out.report["regimes"]) == list(cfgs)
    n_test = ds.test_indices.size
    fits = train_many(ds, LOGISTIC, list(cfgs.values()))
    for (tag, cfg), (model, _) in zip(cfgs.items(), fits):
        entry = out.report["regimes"][tag]
        assert entry["config"]["epsilon"] == cfg.epsilon
        assert entry["accuracy"] == evaluate(model, ds, LOGISTIC).accuracy
        rep = make_gini_report(attribute_dataset(model, ds, np.zeros(ds.dim)), tag,
                               f"toy:test:{n_test}")
        assert rep.per_example.size == n_test
        assert entry["mean_attribution_gini"] == rep.mean


def test_compare_computes_no_training_trace(outcome, monkeypatch):
    # compare keeps no per-epoch trace, so it never builds one: with the
    # trace kernel made to fail, it still writes the report it writes
    # otherwise, while train keeps returning a full trace
    def refuse(*args, **kwargs):
        raise AssertionError("compare computed a training trace")

    ds, out = outcome
    with monkeypatch.context() as patch:
        patch.setattr("attrsparse.training._trace_points", refuse)
        again = run_compare(ds, LOGISTIC, [0.1, 0.3], [0.02], TrainConfig(epochs=8),
                            dataset_id="toy")
        run_compare(ds, LOGISTIC, [], [0.05], TrainConfig(epochs=2, model_kind="mlp"),
                    method="numeric", steps=8)
    drop = {"runtime_seconds"}
    assert ({k: v for k, v in again.report.items() if k not in drop}
            == {k: v for k, v in out.report.items() if k not in drop})
    assert again.table_rows == out.table_rows
    assert again.distribution_rows == out.distribution_rows
    _, trace = train(ds, LOGISTIC, TrainConfig(epochs=8))
    for series in (trace.loss, trace.accuracy, trace.weight_l1, trace.weight_gini):
        assert len(series) == 8 and np.all(np.isfinite(series))


def test_empty_sweeps():
    ds = generate_synthetic(SyntheticConditionalSampler((0.8, 0.1)), 120, seed=1)
    out = run_compare(ds, LOGISTIC, [], [], TrainConfig(epochs=2))
    assert list(out.report["regimes"]) == ["natural"]
    assert out.report["gaps"] == {}
    assert len(out.table_rows) == 1 and out.distribution_rows == []
    assert len(out.tradeoff_rows) == 1


@pytest.mark.parametrize("baseline, message", [
    ([0.0, np.nan], "baseline has non-finite entries"),
    ([np.inf, 0.0], "baseline has non-finite entries"),
    ([0.0, 0.0, 0.0], "baseline shape"),
])
def test_bad_baseline_is_rejected_before_training(monkeypatch, baseline, message):
    def refuse(*args, **kwargs):
        raise AssertionError("trained before rejecting the baseline")

    monkeypatch.setattr("attrsparse.pipeline.train_many", refuse)
    ds = generate_synthetic(SyntheticConditionalSampler((0.8, 0.1)), 120, seed=1)
    with pytest.raises(ValueError, match=message):
        run_compare(ds, LOGISTIC, [0.1], [], TrainConfig(epochs=2), baseline=np.asarray(baseline))


def test_numeric_method_tag_and_steps():
    ds = generate_synthetic(SyntheticConditionalSampler((0.8, 0.1)), 120, seed=1)
    out = run_compare(ds, LOGISTIC, [], [0.05], TrainConfig(epochs=2),
                      method="numeric", steps=32)
    assert out.report["attribution"]["method"] == "numeric"
    assert out.report["attribution"]["steps"] == 32
    assert out.table_rows[0]["attr"] == "ig-numeric[32]"


def test_rerun_is_identical_except_runtime():
    ds = generate_synthetic(SyntheticConditionalSampler((0.9, 0.1, 0.1)), 150, seed=2)
    base = TrainConfig(epochs=3)
    a = run_compare(ds, LOGISTIC, [0.1], [0.02], base, dataset_id="d")
    b = run_compare(ds, LOGISTIC, [0.1], [0.02], base, dataset_id="d")
    ra = {k: v for k, v in a.report.items() if k != "runtime_seconds"}
    rb = {k: v for k, v in b.report.items() if k != "runtime_seconds"}
    assert ra == rb
    assert a.table_rows == b.table_rows
    assert a.distribution_rows == b.distribution_rows
    assert a.tradeoff_rows == b.tradeoff_rows


def test_writers_exact_format(tmp_path, outcome):
    ds, out = outcome
    tp, dp, rp = tmp_path / "t.csv", tmp_path / "d.csv", tmp_path / "r.csv"
    write_table_csv(out.table_rows, tp)
    write_distribution_csv(out.distribution_rows, dp)
    write_tradeoff_csv(out.tradeoff_rows, rp)

    tlines = tp.read_text(encoding="utf-8").splitlines()
    assert tlines[0] == "dataset,attr,model,dG,AcDrop"
    assert tlines[1] == "toy,ig-closed,natural,0.0,0.0"
    assert len(tlines) == 5
    # repr round-trip: parse the dG cell back to the exact float
    cell = tlines[2].split(",")[3]
    assert float(cell) == out.table_rows[1]["dG"]
    assert repr(out.table_rows[1]["dG"]) == cell

    dlines = dp.read_text(encoding="utf-8").splitlines()
    assert dlines[0] == "example_id,model,gini_gap"
    assert len(dlines) == 1 + len(out.distribution_rows)

    rlines = rp.read_text(encoding="utf-8").splitlines()
    assert rlines[0] == "model,param,accuracy,mean_gini"
    assert rlines[1].startswith("natural,,")
    assert rlines[2].split(",")[1] == "0.1"

    # byte determinism of the writers themselves
    tp2 = tmp_path / "t2.csv"
    write_table_csv(out.table_rows, tp2)
    assert tp.read_bytes() == tp2.read_bytes()
