"""End-to-end comparison experiment: train the natural, worst-case and
l1-proximal regimes on one dataset, attribute the test split, and summarize
how much sparser the robust regimes' attributions are.
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from ._util import write_csv
from ._version import __version__
from .attribution import DEFAULT_REPORT_STEPS, attribute_dataset, check_method, numeric_rule
from .data import Dataset
from .losses import LossSpec
from .sparseness import make_gini_report
from .training import TrainConfig, evaluate, regime_tag, train_many

__all__ = [
    "CompareOutcome",
    "run_compare",
    "write_table_csv",
    "write_distribution_csv",
    "write_tradeoff_csv",
]


@dataclass
class CompareOutcome:
    report: dict
    table_rows: list
    distribution_rows: list
    tradeoff_rows: list


def run_compare(ds: Dataset, spec: LossSpec, eps_list, lam_list, base_cfg: TrainConfig,
                *, dataset_id: str = "dataset", method: str = "closed",
                steps: int = DEFAULT_REPORT_STEPS) -> CompareOutcome:
    """Train one natural model plus one model per epsilon and per lambda (same
    seed and split), attribute the unperturbed test split against the zero
    baseline, and report mean-Gini gaps and accuracy drops. The attribution
    settings and a nonempty test split are checked before any model trains.
    """
    started = time.perf_counter()
    check_method(method, steps, base_cfg.model_kind)
    if ds.test_indices.size == 0:
        raise ValueError(f"{dataset_id}: the test split is empty (the 70/30 split of "
                         f"n = {len(ds.labels)} examples holds out none)")
    baseline = np.zeros(ds.dim)
    # each fit with its sweep value, "" for natural
    sweep = [(replace(base_cfg, regime="natural"), "")]
    sweep += [(replace(base_cfg, regime="adversarial", epsilon=e), e) for e in map(float, eps_list)]
    sweep += [(replace(base_cfg, regime="l1", l1_strength=v), v) for v in map(float, lam_list)]
    tagged = {}
    for cfg, value in sweep:
        tag = regime_tag(cfg)
        if tag in tagged:  # the tag keys every model and report row
            raise ValueError(f"sweep values {tagged[tag][1]!r} and {value!r} "
                             f"both name the model {tag}")
        tagged[tag] = cfg, value

    # the Gauss-Legendre rule is named; a midpoint run's tag and report are as before
    rule = numeric_rule(base_cfg.model_kind, base_cfg.hidden_activation)
    gauss = method == "numeric" and rule == "gauss-legendre"
    attr_tag = ("ig-closed" if method == "closed" else
                f"ig-gl[{steps}]" if gauss else f"ig-numeric[{steps}]")
    regimes, gaps, table_rows, distribution_rows, tradeoff_rows = {}, {}, [], [], []
    fits = train_many(ds, spec, [cfg for cfg, _ in tagged.values()], trace=False)
    for (tag, (cfg, value)), (model, _) in zip(tagged.items(), fits):
        gini = make_gini_report(attribute_dataset(model, ds, baseline, method=method, steps=steps))
        record = regimes[tag] = {"config": asdict(cfg), **asdict(evaluate(model, ds, spec)),
                                 "mean_attribution_gini": float(gini.mean())}
        if tag == "natural":
            natural, natural_gini, gap, drop = record, gini, 0.0, 0.0
        else:
            gap = record["mean_attribution_gini"] - natural["mean_attribution_gini"]
            drop = 100.0 * (natural["accuracy"] - record["accuracy"])
            gaps[tag] = {"gini_gap": gap, "accuracy_drop_pct": drop}
            distribution_rows += [(i, tag, g) for i, g
                                  in zip(ds.test_indices.tolist(), (gini - natural_gini).tolist())]
        table_rows.append({"dataset": dataset_id, "attr": attr_tag, "model": tag,
                           "dG": gap, "AcDrop": drop})
        # the param as trained, so that a -0 sweep value reads 0.0 as in report.json
        param = {"natural": "", "adversarial": cfg.epsilon, "l1": cfg.l1_strength}[cfg.regime]
        tradeoff_rows.append((tag, param, record["accuracy"], record["mean_attribution_gini"]))

    report = {
        "format_version": 1,
        "dataset": dataset_id,
        "toolkit_version": __version__,
        "seed": base_cfg.seed,
        "loss": spec.kind,
        "attribution": {
            "method": method,
            "steps": steps if method == "numeric" else None,
            "baseline": "zero",
            "target": "p(true class)",
            **({"rule": rule} if gauss else {}),
        },
        "base_config": asdict(base_cfg),
        "regimes": regimes,
        "gaps": gaps,
        "runtime_seconds": time.perf_counter() - started,
    }
    return CompareOutcome(report, table_rows, distribution_rows, tradeoff_rows)


def write_table_csv(rows, path):
    """Comparison table: dataset,attr,model,dG,AcDrop (drop in % points)."""
    columns = ["dataset", "attr", "model", "dG", "AcDrop"]
    write_csv(path, columns, ([row[c] for c in columns] for row in rows))


def write_distribution_csv(rows, path):
    """Per-example Gini gaps behind the table's means."""
    write_csv(path, ["example_id", "model", "gini_gap"], rows)


def write_tradeoff_csv(rows, path):
    """Accuracy vs mean attribution Gini per trained model (sweep curves)."""
    write_csv(path, ["model", "param", "accuracy", "mean_gini"], rows)
