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
from .attribution import DEFAULT_REPORT_STEPS, attribute_dataset, check_baseline, check_method
from .data import Dataset
from .losses import LossSpec
from .sparseness import make_gini_report
from .training import TrainConfig, evaluate, regime_tag, train_many, uses_pgd

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


def _strength(cfg: TrainConfig) -> float:
    return cfg.epsilon if cfg.regime == "adversarial" else cfg.l1_strength


def run_compare(ds: Dataset, spec: LossSpec, eps_list, lam_list, base_cfg: TrainConfig,
                *, dataset_id: str = "dataset", method: str = "closed",
                steps: int = DEFAULT_REPORT_STEPS, baseline=None) -> CompareOutcome:
    """Train one natural model plus one model per epsilon and per lambda (same
    seed and split), attribute the unperturbed test split against the given
    baseline (zero by default), and report mean-Gini gaps and accuracy drops.
    The attribution settings are checked before any model trains.
    """
    started = time.perf_counter()
    check_method(method, steps, base_cfg.model_kind)
    baseline = np.zeros(ds.dim) if baseline is None else check_baseline(baseline, ds.dim)
    gini, means, accuracies, mean_losses = {}, {}, {}, {}

    sweep = ([replace(base_cfg, regime="adversarial", epsilon=float(eps)) for eps in eps_list]
             + [replace(base_cfg, regime="l1", l1_strength=float(lam)) for lam in lam_list])
    cfgs = {"natural": replace(base_cfg, regime="natural")}
    for cfg in sweep:
        tag = regime_tag(cfg)
        if tag in cfgs:  # the tag keys every model and report row
            raise ValueError(f"sweep values {_strength(cfgs[tag])!r} and {_strength(cfg)!r} "
                             f"both name the model {tag}")
        cfgs[tag] = cfg

    # Fits that share the seed's random stream train as one stack; an MLP
    # with PGD draws its random starts from that stream and trains alone.
    shared = [tag for tag, cfg in cfgs.items() if not uses_pgd(cfg)]
    for group in [shared] + [[tag] for tag in cfgs if tag not in shared]:
        fits = train_many(ds, spec, [cfgs[t] for t in group], trace=False)
        for tag, (model, _) in zip(group, fits):
            ev = evaluate(model, ds, spec)
            attribs = attribute_dataset(model, ds, baseline, method=method, steps=steps)
            accuracies[tag] = ev.accuracy
            mean_losses[tag] = ev.mean_loss
            gini[tag] = make_gini_report(attribs)
            means[tag] = float(gini[tag].mean())

    attr_tag = "ig-closed" if method == "closed" else f"ig-numeric[{steps}]"
    table_rows = [{
        "dataset": dataset_id, "attr": attr_tag, "model": "natural",
        "dG": 0.0, "AcDrop": 0.0,
    }]
    distribution_rows = []
    tradeoff_rows = [("natural", "", accuracies["natural"], means["natural"])]
    gaps = {}

    for cfg in sweep:
        tag = regime_tag(cfg)
        gap = means[tag] - means["natural"]
        drop = 100.0 * (accuracies["natural"] - accuracies[tag])
        gaps[tag] = {"gini_gap": gap, "accuracy_drop_pct": drop}
        table_rows.append({
            "dataset": dataset_id, "attr": attr_tag, "model": tag,
            "dG": gap, "AcDrop": drop,
        })
        per_example = (gini[tag] - gini["natural"]).tolist()
        distribution_rows += [(int(i), tag, g) for i, g in zip(ds.test_indices, per_example)]
        tradeoff_rows.append((tag, _strength(cfg), accuracies[tag], means[tag]))

    report = {
        "format_version": 1,
        "dataset": dataset_id,
        "toolkit_version": __version__,
        "seed": base_cfg.seed,
        "loss": spec.kind,
        "attribution": {
            "method": method,
            "steps": steps if method == "numeric" else None,
            "baseline": "zero" if not np.any(baseline) else "custom",
            "target": "p(true class)",
        },
        "base_config": asdict(base_cfg),
        "regimes": {
            tag: {
                "config": asdict(cfgs[tag]),
                "accuracy": accuracies[tag],
                "mean_loss": mean_losses[tag],
                "mean_attribution_gini": means[tag],
            }
            for tag in cfgs
        },
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
