"""Comparison experiment pipeline: report structure, row bookkeeping, writer
formats, and rerun determinism."""
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from attrsparse._util import fmt_float, write_csv
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
from attrsparse.training import TrainConfig, evaluate, regime_tag, train, train_many

LOGISTIC = make_loss("logistic-nll")


@pytest.fixture(scope="module")
def outcome():
    ds = generate_synthetic(SyntheticConditionalSampler((1.0, 0.05, 0.05, 0.05)), 300, seed=0)
    base = TrainConfig(epochs=8)
    return ds, run_compare(ds, LOGISTIC, [0.1, 0.3], [0.02], base, dataset_id="toy")


@pytest.fixture(scope="module")
def refit(outcome):
    """Each regime of the outcome refitted as one stack outside the pipeline:
    tag -> (config, model, per-example Gini vector of the zero-baseline
    attributions of the test split)."""
    ds, _ = outcome
    base = TrainConfig(epochs=8)
    cfgs = {"natural": base,
            "adversarial(eps=0.1)": replace(base, regime="adversarial", epsilon=0.1),
            "adversarial(eps=0.3)": replace(base, regime="adversarial", epsilon=0.3),
            "l1(lam=0.02)": replace(base, regime="l1", l1_strength=0.02)}
    fits = train_many(ds, LOGISTIC, list(cfgs.values()))
    return {tag: (cfg, model, make_gini_report(attribute_dataset(model, ds, np.zeros(ds.dim))))
            for (tag, cfg), (model, _) in zip(cfgs.items(), fits)}


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


def test_gap_bookkeeping(outcome, refit, tmp_path):
    # every gap is exact arithmetic on the two per-example Gini vectors: the
    # difference of their means, the accuracy drop in percentage points (a
    # lower robust accuracy is a positive drop), and in distributions.csv
    # the per-example differences in test-split order
    ds, out = outcome
    rep = out.report
    acc = {tag: entry["accuracy"] for tag, entry in rep["regimes"].items()}
    nat = refit["natural"][2]
    path = tmp_path / "distributions.csv"
    write_distribution_csv(out.distribution_rows, path)
    written = {}
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        example_id, tag, gap = line.split(",")
        written.setdefault(tag, []).append((int(example_id), float(gap)))
    assert set(written) == set(rep["gaps"])
    for tag, gap in rep["gaps"].items():
        gini = refit[tag][2]
        assert gap["gini_gap"] == float(gini.mean()) - float(nat.mean())
        assert gap["accuracy_drop_pct"] == 100.0 * (acc["natural"] - acc[tag])
        assert (gap["accuracy_drop_pct"] > 0.0) == (acc[tag] < acc["natural"])
        assert written[tag] == list(zip(ds.test_indices.tolist(), (gini - nat).tolist()))
    assert max(gap["accuracy_drop_pct"] for gap in rep["gaps"].values()) > 0.0
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


def test_report_matches_train_many_and_gini_reports(outcome, refit):
    # each regime's report entry is the stacked fit of its config, scored by
    # make_gini_report over the zero-baseline attributions of the test split
    ds, out = outcome
    assert list(out.report["regimes"]) == list(refit)
    for tag, (cfg, model, gini) in refit.items():
        entry = out.report["regimes"][tag]
        assert entry["config"]["epsilon"] == cfg.epsilon
        assert entry["accuracy"] == evaluate(model, ds, LOGISTIC).accuracy
        assert gini.shape == (ds.test_indices.size,)
        assert entry["mean_attribution_gini"] == float(gini.mean())


@pytest.mark.parametrize("cfg, method", [
    (TrainConfig(epochs=2), "closed"),
    (TrainConfig(epochs=1, model_kind="mlp", hidden_sizes=(3,)), "numeric"),
])
def test_run_compare_calls_the_traced_bindings_once_per_model(monkeypatch, cfg, method):
    # perfbench times attribution and Gini through the pipeline's module
    # bindings, and its residual gate reads each attribution's residual
    attributed, scored = [], []

    def attribute(*args, **kwargs):
        attributed.append(attribute_dataset(*args, **kwargs))
        return attributed[-1]

    def gini(attribs):
        scored.append(attribs)
        return make_gini_report(attribs)

    monkeypatch.setattr("attrsparse.pipeline.attribute_dataset", attribute)
    monkeypatch.setattr("attrsparse.pipeline.make_gini_report", gini)
    ds = generate_synthetic(SyntheticConditionalSampler((0.8, 0.1)), 120, seed=1)
    out = run_compare(ds, LOGISTIC, [0.1], [0.02, 0.05], cfg, method=method, steps=4)
    assert len(out.report["regimes"]) == len(attributed) == len(scored) == 4
    for attribs in attributed:
        assert len(attribs) == ds.test_indices.size
        assert all(type(a.completeness_residual) is float for a in attribs)


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


def test_compare_trains_the_whole_sweep_in_one_call(monkeypatch):
    # an adversarial MLP joins train_many's one stack on a stream of its
    # own, so compare hands it the whole sweep, in report order, once
    calls = []

    def counted(ds, spec, cfgs, **kwargs):
        calls.append([regime_tag(cfg) for cfg in cfgs])
        return train_many(ds, spec, cfgs, **kwargs)

    monkeypatch.setattr("attrsparse.pipeline.train_many", counted)
    ds = generate_synthetic(SyntheticConditionalSampler((0.8, 0.1)), 120, seed=1)
    base = TrainConfig(epochs=1, model_kind="mlp", hidden_sizes=(3,))
    out = run_compare(ds, LOGISTIC, [0.1, 0.0], [0.02], base, method="numeric", steps=4)
    assert calls == [list(out.report["regimes"])]
    assert calls[0] == ["natural", "adversarial(eps=0.1)", "adversarial(eps=0)", "l1(lam=0.02)"]


def test_numeric_method_tag_and_steps():
    ds = generate_synthetic(SyntheticConditionalSampler((0.8, 0.1)), 120, seed=1)
    out = run_compare(ds, LOGISTIC, [], [0.05], TrainConfig(epochs=2),
                      method="numeric", steps=32)
    assert out.report["attribution"]["method"] == "numeric"
    assert out.report["attribution"]["steps"] == 32
    assert out.table_rows[0]["attr"] == "ig-numeric[32]"
    assert "rule" not in out.report["attribution"]  # the midpoint rule's report as before


@pytest.mark.parametrize("act, rule, tag", [("softplus", "gauss-legendre", "ig-gl[32]"),
                                            ("tanh", "gauss-legendre", "ig-gl[32]"),
                                            ("relu", None, "ig-numeric[32]")])
def test_numeric_rule_is_named_in_report_and_table(act, rule, tag):
    ds = generate_synthetic(SyntheticConditionalSampler((0.8, 0.1)), 120, seed=1)
    base = TrainConfig(epochs=1, model_kind="mlp", hidden_sizes=(3,), hidden_activation=act)
    out = run_compare(ds, LOGISTIC, [], [0.05], base, method="numeric", steps=32)
    assert out.report["attribution"].get("rule") == rule
    assert out.report["attribution"]["steps"] == 32
    assert {row["attr"] for row in out.table_rows} == {tag}


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


def test_write_csv_writes_each_float_as_fmt_float(tmp_path):
    # write_csv hands its rows to csv.writer as given, which writes a float,
    # np.float64 included, as float.__repr__; that must stay fmt_float's text
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-7, 0.1, 1 / 3, 1e16,
             1.7976931348623157e308, -1.7976931348623157e308, math.nan, math.inf, -math.inf]
    bits = np.random.default_rng(3).integers(0, 2**63, size=2000, dtype=np.uint64)
    drawn = bits.view(np.float64) * np.where(bits % 2 == 0, 1.0, -1.0)
    values = edges + drawn.tolist()
    rows = [values, [np.float64(v) for v in values], ["id", 7, np.int64(-3), np.float64(-0.0)]]
    path = tmp_path / "floats.csv"
    write_csv(path, [f"c{j}" for j in range(len(values))], rows)
    lines = path.read_text(encoding="utf-8").splitlines()
    want = ",".join(fmt_float(v) for v in values)
    assert lines[1] == want and lines[2] == want
    assert lines[3] == "id,7,-3,-0.0"
