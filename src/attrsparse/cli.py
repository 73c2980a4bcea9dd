"""Command-line harness: every capability of the toolkit as a subcommand.

Subcommands: train, compare, attribute, gini, verify, synth. All outputs are
deterministic given --seed (reruns produce byte-identical files, except the
wall-clock runtime_seconds field of compare reports). Exit codes: 0 success,
1 configuration/data errors or a failed verification, 2 training divergence.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from ._util import canonical_json, fmt_float, write_csv
from ._version import __version__
from .attribution import DEFAULT_REPORT_STEPS, attribute_dataset, impact_report, write_pgm
from .data import (
    Dataset,
    SyntheticConditionalSampler,
    blob_sampler,
    generate_synthetic,
    load_csv,
    load_dataset,
    save_dataset,
)
from .losses import LOSS_KINDS, make_loss
from .models import load_model, save_model
from .pipeline import (
    run_compare,
    write_distribution_csv,
    write_table_csv,
    write_tradeoff_csv,
)
from .sparseness import gini_rows
from .theory import (
    TheoremCheckResult,
    check_lemma_exp_bound,
    check_sample_count,
    check_theorem1_bound,
    check_theorem3_identity,
    lemma_d1_instance,
    theorem1_bound_instances,
    theorem3_instances,
    verify_zero_weight_update,
)
from .training import REGIMES, TrainConfig, TrainingDivergedError, evaluate, train

__all__ = ["main", "build_parser"]

_VERIFY_IDS = ("thm1-zero", "thm1-bound", "thm3", "lemmaD1")


class _Parser(argparse.ArgumentParser):
    """Argument errors are configuration errors: exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# shared parsing helpers
# ---------------------------------------------------------------------------

def _parse_float_list(text: str) -> list:
    body = text.strip().strip("[]")
    return [float(tok) for tok in body.split(",") if tok.strip()]


def _load_config_file(path) -> dict:
    with open(path, "rb") as fh:
        raw = fh.read()
    if str(path).endswith(".toml"):
        try:
            import tomllib
        except ModuleNotFoundError:
            raise ValueError(
                f"{path}: TOML config files need Python 3.11+; use a JSON config"
            ) from None
        doc = tomllib.loads(raw.decode("utf-8"))
    else:
        doc = json.loads(raw.decode("utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config file must hold a single table/object")
    return doc


# TrainConfig field -> flag spelling where they differ; config files may use
# either spelling
_CONFIG_ALIASES = {
    "epsilon": "eps",
    "l1_strength": "lam",
    "learning_rate": "lr",
    "model_kind": "model",
    "hidden_sizes": "hidden",
}


def _resolve(file_cfg: dict, args) -> dict:
    """TrainConfig's defaults and the loss, keyed by flag spelling, overridden
    by the config file, overridden by explicit flags; hidden as a list of ints."""
    resolved = {_CONFIG_ALIASES.get(f.name, f.name): f.default for f in fields(TrainConfig)}
    resolved["loss"] = "logistic-nll"
    for key, value in file_cfg.items():
        canon = _CONFIG_ALIASES.get(key, key)
        if canon not in resolved:
            raise ValueError(
                f"unknown config key {key!r}; valid keys: {sorted(resolved)}")
        resolved[canon] = value
    for key in resolved:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
    hidden = resolved["hidden"]
    if isinstance(hidden, str):
        hidden = _parse_float_list(hidden)
    resolved["hidden"] = [int(v) for v in hidden]
    return resolved


def _train_config(resolved: dict) -> TrainConfig:
    """Each resolved option cast to the type of its TrainConfig field's default."""
    return TrainConfig(**{f.name: type(f.default)(resolved[_CONFIG_ALIASES.get(f.name, f.name)])
                          for f in fields(TrainConfig)})


def _schema_pairs(columns) -> list:
    if isinstance(columns, dict):
        return [(name, kind) for name, kind in columns.items()]
    pairs = []
    for entry in columns:
        if isinstance(entry, dict):
            pairs.append((entry["name"], entry["kind"]))
        else:
            name, kind = entry
            pairs.append((name, kind))
    return pairs


def _load_data(args) -> Dataset:
    path = args.data
    if str(path).endswith(".json"):
        return load_dataset(path)
    delimiter = getattr(args, "delimiter", None) or ","
    label_column = getattr(args, "label_column", None)
    schema_path = getattr(args, "schema", None)
    if schema_path:
        with open(schema_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        label_column = label_column or doc.get("label_column")
        columns = doc.get("columns")
        if columns is None:
            raise ValueError(f"{schema_path}: schema file needs a 'columns' entry")
        positive_label = getattr(args, "positive_label", None) or doc.get("positive_label")
    elif getattr(args, "infer_schema", False):
        if not label_column:
            raise ValueError("--infer-schema needs --label-column")
        columns = None  # load_csv infers the kinds from the rows it reads
        positive_label = getattr(args, "positive_label", None)
    else:
        raise ValueError("CSV input needs --schema FILE or --infer-schema")
    if not label_column:
        raise ValueError("label column not named (use --label-column or the schema file)")
    split_seed = getattr(args, "split_seed", None)
    return load_csv(
        path,
        None if columns is None else _schema_pairs(columns),
        label_column,
        delimiter=delimiter,
        split_seed=0 if split_seed is None else int(split_seed),
        positive_label=positive_label,
    )


def _add_data_flags(p):
    p.add_argument("--data", required=True, help="dataset: .csv (with schema) or .json sidecar")
    p.add_argument("--schema", help="JSON schema file: label_column + columns [[name, kind], ...]")
    p.add_argument("--infer-schema", action="store_true",
                   help="sniff column kinds from the CSV (numeric iff every value parses)")
    p.add_argument("--label-column", help="name of the label column (CSV input)")
    p.add_argument("--positive-label", help="raw label value mapped to +1 (binary CSV input)")
    p.add_argument("--delimiter", help="CSV field delimiter (default ,)")
    p.add_argument("--split-seed", type=int, help="seed of the 70/30 split (default 0)")


def _add_train_flags(p):
    p.add_argument("--config", help="JSON (or TOML on 3.11+) config file; flags override it")
    p.add_argument("--regime", help=f"training regime: one of {', '.join(REGIMES)}")
    p.add_argument("--eps", type=float, help="perturbation budget for adversarial/stable-ig")
    p.add_argument("--lam", type=float, help="l1 penalty strength for the l1 regime")
    p.add_argument("--lr", type=float, help="learning rate (default 0.01)")
    p.add_argument("--batch-size", type=int, help="minibatch size (default 32)")
    p.add_argument("--epochs", type=int, help="training epochs (default 30)")
    p.add_argument("--seed", type=int, help="training seed (default 0)")
    p.add_argument("--optimizer", choices=("adam", "sgd"), help="optimizer (default adam)")
    p.add_argument("--model", choices=("linear", "mlp"), help="model family (default linear)")
    p.add_argument("--hidden", help="MLP hidden sizes, comma separated (default 16)")
    p.add_argument("--hidden-activation", choices=("softplus", "tanh", "relu"),
                   help="MLP hidden activation (default softplus)")
    p.add_argument("--use-bias", action="store_const", const=True, default=None,
                   help="add a bias term (linear model; excluded from perturbation math)")
    p.add_argument("--loss", choices=tuple(LOSS_KINDS) + ("logistic",),
                   help="margin loss (default logistic-nll)")


def _out_dir(args) -> str:
    out = args.out_dir or "."
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    ds = _load_data(args)
    file_cfg = _load_config_file(args.config) if args.config else {}
    resolved = _resolve(file_cfg, args)
    spec = make_loss(resolved["loss"])
    cfg = _train_config(resolved)
    model, trace = train(ds, spec, cfg)
    out = _out_dir(args)
    save_model(model, os.path.join(out, "model.json"))
    trace.to_csv(os.path.join(out, "trace.csv"))
    result = evaluate(model, ds, spec)
    with open(os.path.join(out, "resolved_config.json"), "w", encoding="utf-8") as fh:
        fh.write(canonical_json({
            "format_version": 1,
            "command": "train",
            "toolkit_version": __version__,
            "resolved": resolved,
        }))
    print(f"trained regime={cfg.regime} model={cfg.model_kind} "
          f"test_accuracy={fmt_float(result.accuracy)} mean_loss={fmt_float(result.mean_loss)}")
    print(f"wrote {out}/model.json, {out}/trace.csv, {out}/resolved_config.json")
    return 0


def cmd_compare(args) -> int:
    ds = _load_data(args)
    file_cfg = _load_config_file(args.config) if args.config else {}
    resolved = _resolve(file_cfg, args)
    resolved["regime"] = "natural"
    resolved["eps"], resolved["lam"] = 0.0, 0.0
    spec = make_loss(resolved["loss"])
    base_cfg = _train_config(resolved)
    eps_list = _parse_float_list("0.1" if args.eps_list is None else args.eps_list)
    lam_list = _parse_float_list("0.02" if args.lam_list is None else args.lam_list)
    dataset_id = args.dataset_id or os.path.splitext(os.path.basename(args.data))[0]
    method = args.method or "closed"
    steps = DEFAULT_REPORT_STEPS if args.steps is None else args.steps
    outcome = run_compare(ds, spec, eps_list, lam_list, base_cfg,
                          dataset_id=dataset_id, method=method, steps=steps)
    out = _out_dir(args)
    with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(canonical_json(outcome.report))
    write_table_csv(outcome.table_rows, os.path.join(out, "table.csv"))
    write_distribution_csv(outcome.distribution_rows, os.path.join(out, "distributions.csv"))
    write_tradeoff_csv(outcome.tradeoff_rows, os.path.join(out, "tradeoff.csv"))
    for row in outcome.table_rows:
        print(f"{row['dataset']:>12s} {row['attr']:>10s} {row['model']:>24s} "
              f"dG={row['dG']:+.4f} AcDrop={row['AcDrop']:+.3f}%")
    print(f"wrote {out}/report.json, {out}/table.csv, {out}/distributions.csv, {out}/tradeoff.csv")
    return 0


def cmd_attribute(args) -> int:
    ds = _load_data(args)
    model = load_model(args.model)
    if args.baseline_file:
        with open(args.baseline_file, encoding="utf-8") as fh:
            u = np.asarray(json.load(fh), dtype=float)
    else:
        u = np.zeros(ds.dim)
    method = args.method or "closed"
    steps = DEFAULT_REPORT_STEPS if args.steps is None else args.steps
    split = args.split or "test"
    target = args.target or "true-class-probability"
    attribs = attribute_dataset(model, ds, u, method=method, steps=steps,
                                split=split, target=target)
    out = _out_dir(args)
    idx = ds.split(split)
    write_csv(os.path.join(out, "attributions.csv"),
              ["example_id", *ds.feature_names, "completeness_residual"],
              ([int(example_id), *attr.values.tolist(), attr.completeness_residual]
               for example_id, attr in zip(idx, attribs)))
    report = impact_report(attribs, ds)
    write_csv(os.path.join(out, "impact_values.csv"), report.value_names,
              [report.value_impact.tolist()])
    write_csv(os.path.join(out, "impact_features.csv"), report.feature_names,
              [report.feature_impact.tolist()])
    written = ["attributions.csv", "impact_values.csv", "impact_features.csv"]
    if args.image_shape:
        h, w = (int(v) for v in args.image_shape.lower().split("x"))
        if h * w != ds.dim:
            raise ValueError(f"image shape {h}x{w} does not match dimension {ds.dim}")
        for example_id, attr in zip(idx, attribs):
            write_pgm(attr.values, (h, w), os.path.join(out, f"attr_{int(example_id):06d}.pgm"))
        written.append(f"{len(attribs)} PGM grids")
    print(f"attributed {len(attribs)} examples ({method}); wrote {', '.join(written)} in {out}")
    return 0


def _read_vector_rows(path) -> tuple:
    """Numeric CSV rows; a non-numeric first row is a header. Files written by
    the attribute subcommand are recognized and stripped of their id/residual
    columns."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path}: no rows")
    header = None
    try:
        [float(v) for v in rows[0]]
    except ValueError:
        header = rows[0]
        rows = rows[1:]
    if not rows:
        raise ValueError(f"{path}: header but no data rows")
    keep = slice(None)
    if header and header[0] == "example_id":
        stop = -1 if header[-1] == "completeness_residual" else None
        keep = slice(1, stop)
    try:
        data = [np.asarray([float(v) for v in row[keep]]) for row in rows]
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric cell ({exc})") from None
    for i, row in enumerate(data):
        if not np.all(np.isfinite(row)):
            raise ValueError(f"{path}: data row {i}: non-finite cell")
    return data, header


def cmd_gini(args) -> int:
    data, _ = _read_vector_rows(args.input)
    values = np.empty(len(data))
    for width in {row.size for row in data}:  # rows of one width score as one array
        same = [i for i, row in enumerate(data) if row.size == width]
        values[same] = gini_rows(np.abs([data[i] for i in same]))
    mean = float(np.mean(values))
    if args.out:
        write_csv(args.out, ["row", "gini"], enumerate(values.tolist()))
        print(f"wrote {args.out}")
    else:
        for v in values:
            print(fmt_float(v))
    print(f"mean_gini {fmt_float(mean)}")
    return 0


def _strengths_from(args, default) -> tuple:
    return tuple(_parse_float_list(args.strengths or default))


def _given(args, **flags) -> dict:
    """{parameter: value} for each flag (parameter=flag attribute) the user set."""
    values = {key: getattr(args, flag, None) for key, flag in flags.items()}
    return {key: v for key, v in values.items() if v is not None}


# the sampler and geometry flags each synth kind and verify check reads; any
# other one the user gives is an error, not silently ignored
_SAMPLER_FLAGS = {
    "gaussian": ("strengths", "noise_sd", "balance"),
    "blobs": ("noise_sd", "balance", "height", "width", "strong", "weak", "sigma"),
    "thm1-zero": ("strengths", "noise_sd", "noise_kind", "balance"),
    "thm1-bound": ("noise_sd", "noise_kind", "balance"),
    "thm3": (),
    "lemmaD1": ("strengths", "noise_sd", "noise_kind", "balance"),
}


def _reject_unread_flags(args, name):
    known = {flag for flags in _SAMPLER_FLAGS.values() for flag in flags}
    for flag in sorted(known - set(_SAMPLER_FLAGS[name])):
        if getattr(args, flag, None) is not None:
            raise ValueError(f"--{flag.replace('_', '-')} does not apply to {args.command} {name}")


def _sampler(args, strengths=None) -> SyntheticConditionalSampler:
    """The sampler of synth and verify from the flags the user gave: the given
    strengths, or else the blob image of synth's blob flags. An unset flag
    keeps the signature default of the sampler or of blob_sampler."""
    noise = _given(args, noise_sd="noise_sd", class_balance="balance", noise_kind="noise_kind")
    if strengths is None:
        return blob_sampler(**noise, **_given(
            args, height="height", width="width", strong_amplitude="strong",
            weak_amplitude="weak", blob_sigma="sigma"))
    return SyntheticConditionalSampler(strengths=strengths, **noise)


def cmd_verify(args) -> int:
    _reject_unread_flags(args, args.check)
    spec = make_loss(args.loss or "logistic-nll")
    seed, n, eps, configs, trials, tol = (args.seed, args.n, args.eps, args.configs,
                                          args.trials, args.tol)
    # a check over no instances or samples, or with an infinite tolerance,
    # would pass on no evidence: reject its sizes before anything is drawn
    for flag, value in (("--eps", eps), ("--tol", tol)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{flag} must be a finite number >= 0, got {value}")
    if args.check == "thm3":
        if trials < 1:
            raise ValueError(f"--trials must be >= 1, got {trials}")
    else:
        check_sample_count(n)
    if args.check == "thm1-bound" and configs < 1:
        raise ValueError(f"--configs must be >= 1, got {configs}")
    results = []

    if args.check == "thm1-zero":
        sampler = _sampler(args, _strengths_from(args, "0.8,-0.5,0.3,0.0,0.1"))
        results = verify_zero_weight_update(spec, sampler, n, seed=seed)
    elif args.check == "thm1-bound":
        for k, (strengths, wspec, check_seed) in enumerate(theorem1_bound_instances(configs, seed)):
            res = check_theorem1_bound(spec, wspec, eps, _sampler(args, strengths), n,
                                       seed=check_seed)
            res.check_id = f"weighted-update-bound[{k}]"
            results.append(res)
    elif args.check == "thm3":
        losses = LOSS_KINDS if (args.loss in (None, "all")) else (spec.kind,)
        # one draw of the instances serves every loss, one call per dimension
        groups = theorem3_instances(trials, seed).values()
        for kind in losses:
            loss_spec = make_loss(kind)
            worst = max(float(check_theorem3_identity(loss_spec, *g).max()) for g in groups)
            results.append(TheoremCheckResult(
                check_id=f"worst-case-attribution-identity[{kind}]",
                estimate=worst, reference=0.0, se=0.0, n_samples=trials,
                passed=bool(worst <= tol), detail=f"tol={tol:g}"))
    elif args.check == "lemmaD1":
        sampler = _sampler(args, _strengths_from(args, "0.6,0.3,-0.2,0.1,0.05"))
        f, draw = lemma_d1_instance(spec, sampler, eps, seed)
        results = [check_lemma_exp_bound(f, draw, n, seed=seed)]

    doc = {
        "format_version": 1,
        "check": args.check,
        "toolkit_version": __version__,
        "results": [r.to_dict() for r in results],
        "passed": bool(all(r.passed for r in results)),
    }
    text = canonical_json(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] {r.check_id}: estimate={r.estimate:.6g} "
              f"reference={r.reference:.6g} se={r.se:.3g} n={r.n_samples}",
              file=sys.stderr)
    return 0 if doc["passed"] else 1


def cmd_synth(args) -> int:
    _reject_unread_flags(args, args.kind)
    strengths = None
    if args.kind == "gaussian":
        strengths = _strengths_from(args, "1.0,0.05,0.05,0.05,0.05,0.05,0.05,0.05,0.05,0.05")
    ds = generate_synthetic(_sampler(args, strengths), args.n, args.seed)
    save_dataset(ds, args.out)
    print(f"wrote {args.out}: {ds.n_examples} examples, {ds.dim} features, kind={args.kind}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="attrsparse",
                     description="Train, attribute, and measure attribution sparseness.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("train", help="fit one model; writes model.json + trace.csv")
    _add_data_flags(p)
    _add_train_flags(p)
    p.add_argument("--out-dir", help="output directory (default .)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare",
                       help="train natural vs adversarial vs l1 models; report Gini gaps")
    _add_data_flags(p)
    _add_train_flags(p)
    p.add_argument("--eps-list", dest="eps_list",
                   help='adversarial budgets, comma separated (default "0.1"; "" for none)')
    p.add_argument("--lam-list", dest="lam_list",
                   help='l1 strengths, comma separated (default "0.02"; "" for none)')
    p.add_argument("--dataset-id", help="dataset tag in reports (default: file stem)")
    p.add_argument("--method", choices=("closed", "numeric"), help="attribution method")
    p.add_argument("--steps", type=int,
                   help=f"path steps for numeric attribution (default {DEFAULT_REPORT_STEPS})")
    p.add_argument("--out-dir", help="output directory (default .)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("attribute", help="attribute a dataset split with a saved model")
    _add_data_flags(p)
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--method", choices=("closed", "numeric"), help="attribution method")
    p.add_argument("--steps", type=int,
                   help=f"path steps for numeric attribution (default {DEFAULT_REPORT_STEPS})")
    p.add_argument("--split", choices=("train", "test"), help="split to attribute (default test)")
    p.add_argument("--target", choices=("true-class-probability", "model-output"),
                   help="attribution target (default true-class-probability)")
    p.add_argument("--baseline-file", help="JSON list baseline (default all-zero)")
    p.add_argument("--image-shape", help="HxW: also write one PGM grid per example")
    p.add_argument("--out-dir", help="output directory (default .)")
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("gini", help="Gini index of each row of a numeric CSV")
    p.add_argument("--input", required=True,
                   help="numeric CSV (or a file written by the attribute subcommand)")
    p.add_argument("--out", help="write row,gini CSV here instead of stdout")
    p.set_defaults(func=cmd_gini)

    p = sub.add_parser("verify", help="run a guarantee check; exit 1 if it fails")
    p.add_argument("check", choices=_VERIFY_IDS, help="which guarantee to check")
    p.add_argument("--n", type=int, help="Monte-Carlo samples (default 100000)")
    p.add_argument("--trials", type=int, help="random instances for thm3 (default 1000)")
    p.add_argument("--configs", type=int, help="random configurations for thm1-bound (default 5)")
    p.add_argument("--eps", type=float, help="perturbation budget (default 0.1)")
    p.add_argument("--tol", type=float, help="residual tolerance for thm3 (default 1e-9)")
    p.add_argument("--loss", choices=tuple(LOSS_KINDS) + ("logistic", "all"),
                   help="loss (default logistic-nll; thm3 default all)")
    p.add_argument("--seed", type=int, help="seed (default 0)")
    p.add_argument("--strengths", help="per-feature class association, comma separated")
    p.add_argument("--noise-sd", type=float, help="sampler noise scale (default 1.0)")
    p.add_argument("--noise-kind", choices=("gaussian", "uniform"),
                   help="sampler noise family (default gaussian; uniform suits hinge)")
    p.add_argument("--balance", type=float, help="P(y=+1) (default 0.5)")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_verify, n=100_000, trials=1000, configs=5, eps=0.1, tol=1e-9, seed=0)

    p = sub.add_parser("synth", help="generate a synthetic dataset JSON")
    p.add_argument("kind", choices=("gaussian", "blobs"), help="generator family")
    p.add_argument("--out", required=True, help="output dataset JSON path")
    p.add_argument("--n", type=int, help="number of examples (default 2000)")
    p.add_argument("--seed", type=int, help="seed (default 0)")
    p.add_argument("--balance", type=float, help="P(y=+1) (default 0.5)")
    p.add_argument("--strengths", help="gaussian: per-feature strengths, comma separated")
    p.add_argument("--noise-sd", type=float, help="noise scale (gaussian 1.0; blobs 0.5)")
    p.add_argument("--height", type=int, help="blobs: image height (default 8)")
    p.add_argument("--width", type=int, help="blobs: image width (default 8)")
    p.add_argument("--strong", type=float, help="blobs: center signal amplitude (default 1.0)")
    p.add_argument("--weak", type=float, help="blobs: background amplitude (default 0.05)")
    p.add_argument("--sigma", type=float, help="blobs: blob radius (default 1.3)")
    p.set_defaults(func=cmd_synth, n=2000, seed=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrainingDivergedError as exc:
        print(f"attrsparse: training diverged: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, OSError, KeyError, json.JSONDecodeError) as exc:
        detail = str(exc) or repr(exc)
        print(f"attrsparse: error: {detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
