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

import numpy as np

from ._util import fmt_float, read_json_object, write_csv, write_json
from ._version import __version__
from .attribution import DEFAULT_REPORT_STEPS, attribute_dataset, impact_report, write_pgm
from .data import (
    Dataset,
    SyntheticConditionalSampler,
    blob_sampler,
    generate_synthetic,
    load_csv,
    load_dataset,
    read_schema,
    save_dataset,
)
from .losses import DEFAULT_LOSS, LOSS_NAMES, make_loss
from .models import HIDDEN_ACTIVATIONS, MODEL_KINDS, load_model, save_model
from .pipeline import (
    run_compare,
    write_distribution_csv,
    write_table_csv,
    write_tradeoff_csv,
)
from .sparseness import gini_rows
from .theory import CHECKS
from .training import OPTIMIZERS, REGIMES, TrainConfig, TrainingDivergedError, evaluate, train

__all__ = ["main", "build_parser"]

class _Parser(argparse.ArgumentParser):
    """Argument errors are configuration errors: exit 1, not argparse's 2.
    Flags are spelled out, so compare takes no --eps for its --eps-list."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# shared parsing helpers
# ---------------------------------------------------------------------------

def _parse_float_list(text: str) -> list:
    body = text.strip().strip("[]")
    return [float(tok) for tok in body.split(",") if tok.strip()]


def _seed(text: str) -> int:
    """An integer >= 0, as numpy's generators need: the type of every seed flag."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _delimiter(text: str) -> str:
    """One character, as csv.reader needs: the type of --delimiter."""
    if len(text) != 1:
        raise argparse.ArgumentTypeError(f"expected one character, got {text!r}")
    return text


def _load_config_file(path) -> dict:
    if not str(path).endswith(".toml"):
        return read_json_object(path, "config")
    try:
        import tomllib
    except ModuleNotFoundError:
        raise ValueError(
            f"{path}: TOML config files need Python 3.11+; use a JSON config"
        ) from None
    with open(path, "rb") as fh:
        try:
            return tomllib.load(fh)  # a TOML document is one table
        except ValueError as exc:  # tomllib.TOMLDecodeError or UnicodeDecodeError
            raise ValueError(f"{path}: not a valid TOML config file ({exc})") from None


# One row per training option: its TrainConfig field (None for the loss,
# which is no field), its flag spelling, its help and its argparse keywords.
# A config file may spell an option as its field or as its flag.
_OPTIONS = (
    ("regime", "regime", f"training regime: one of {', '.join(REGIMES)}", {}),
    ("epsilon", "eps", "perturbation budget for adversarial/stable-ig", {"type": float}),
    ("l1_strength", "lam", "l1 penalty strength for the l1 regime", {"type": float}),
    ("learning_rate", "lr", "learning rate", {"type": float}),
    ("batch_size", "batch_size", "minibatch size", {"type": int}),
    ("epochs", "epochs", "training epochs", {"type": int}),
    ("seed", "seed", "training seed", {"type": _seed}),
    ("optimizer", "optimizer", "optimizer", {"choices": OPTIMIZERS}),
    ("model_kind", "model", "model family", {"choices": MODEL_KINDS}),
    ("hidden_sizes", "hidden", "MLP hidden sizes, comma separated", {}),
    ("hidden_activation", "hidden_activation", "MLP hidden activation",
     {"choices": HIDDEN_ACTIVATIONS}),
    ("use_bias", "use_bias", "add a bias term (linear model; excluded from perturbation math)",
     {"action": "store_const", "const": True}),
    (None, "loss", "margin loss", {"choices": LOSS_NAMES}),
)
# TrainConfig field -> flag spelling where they differ
_CONFIG_ALIASES = {field: flag for field, flag, _, _ in _OPTIONS if field not in (None, flag)}
# TrainConfig's defaults and the loss's, keyed by flag spelling
_TRAIN_OPTIONS = {flag: getattr(TrainConfig(), field) if field else DEFAULT_LOSS
                  for field, flag, _, _ in _OPTIONS}


def _check_config_value(key, value, default):
    """A config-file value must have its option's type: an int serves for a
    float, and the hidden sizes are a list or a comma-separated string."""
    kinds = {float: (int, float), tuple: (list, tuple, str)}.get(type(default), (type(default),))
    if type(value) not in kinds:
        names = " or ".join(kind.__name__ for kind in kinds)
        raise ValueError(f"config key {key!r} must be {names}, got {value!r}")
    if key == "seed" and value < 0:  # the rule of the --seed flag
        raise ValueError(f"config key 'seed' must be an integer >= 0, got {value!r}")


def _resolve(file_cfg: dict, args) -> dict:
    """TrainConfig's defaults and the loss, overridden by the config file (a
    key only where its flag exists), overridden by explicit flags; hidden as
    a non-empty list of integers >= 1, given only for an MLP."""
    resolved = dict(_TRAIN_OPTIONS)
    origin = {}  # where each option's value came from, for error messages
    for key, value in file_cfg.items():
        canon = _CONFIG_ALIASES.get(key, key)
        if canon not in resolved:
            raise ValueError(
                f"unknown config key {key!r}; valid keys: {sorted(resolved)}")
        if not hasattr(args, canon):
            raise ValueError(f"config key {key!r} does not apply to {args.command}")
        _check_config_value(key, value, resolved[canon])
        resolved[canon], origin[canon] = value, f"config key {key!r}"
    for key in resolved:
        if getattr(args, key, None) is not None:
            resolved[key], origin[key] = getattr(args, key), "--" + key.replace("_", "-")
    for key in ("hidden", "hidden_activation"):
        if key in origin and resolved["model"] == "linear":
            raise ValueError(f"{origin[key]} applies to MLP models only, and the model is linear")
    for key, readers in (("eps", ("adversarial", "stable-ig")), ("lam", ("l1",))):
        if key in origin and resolved["regime"] in set(REGIMES).difference(readers):
            raise ValueError(f"{origin[key]} applies to regime {' or '.join(readers)} only, "
                             f"and the regime is {resolved['regime']}")
    hidden = resolved["hidden"]
    try:
        sizes = _parse_float_list(hidden) if isinstance(hidden, str) else hidden
    except ValueError:
        sizes = None
    if not sizes or not all(type(v) in (int, float) and float(v).is_integer() and v >= 1
                            for v in sizes):
        raise ValueError(f"{origin['hidden']}: hidden sizes must be integers >= 1, got {hidden!r}")
    resolved["hidden"] = [int(v) for v in sizes]
    return resolved


def _train_config(resolved: dict) -> TrainConfig:
    """The resolved options, each converted to its TrainConfig field's type
    (an int to a float, the hidden list to a tuple)."""
    return TrainConfig(**{field: type(_TRAIN_OPTIONS[flag])(resolved[flag])
                          for field, flag, _, _ in _OPTIONS if field})


def _load_data(args) -> Dataset:
    if str(args.data).endswith(".json"):
        for flag in ("schema", "infer_schema", "label_column", "positive_label",
                     "delimiter", "split_seed"):  # CSV-only; each is None unless given
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag.replace('_', '-')} does not apply to "
                                 f".json data {args.data}")
        return load_dataset(args.data)
    label_column, positive_label = args.label_column, args.positive_label
    if args.schema:
        columns, schema_label, schema_positive = read_schema(args.schema)
        label_column = label_column or schema_label
        positive_label = positive_label or schema_positive
    elif args.infer_schema:
        columns = None  # load_csv infers the kinds from the rows it reads
    else:
        raise ValueError("CSV input needs --schema FILE or --infer-schema")
    if not label_column:
        raise ValueError("label column not named (use --label-column or the schema file)")
    return load_csv(
        args.data,
        columns,
        label_column,
        delimiter="," if args.delimiter is None else args.delimiter,
        split_seed=args.split_seed or 0,
        positive_label=positive_label,
    )


def _add_io_flags(p):
    p.add_argument("--data", required=True, help="dataset: .csv (with schema) or .json sidecar")
    p.add_argument("--schema", help="JSON schema file: label_column + columns [[name, kind], ...]")
    p.add_argument("--infer-schema", action="store_true", default=None,
                   help="sniff column kinds from the CSV (numeric iff every value parses)")
    p.add_argument("--label-column", help="name of the label column (CSV input)")
    p.add_argument("--positive-label", help="raw label value mapped to +1 (CSV input)")
    p.add_argument("--delimiter", type=_delimiter, help="CSV field delimiter (default ,)")
    p.add_argument("--split-seed", type=_seed, help="seed of the 70/30 split (default 0)")
    p.add_argument("--out-dir", default=".", help="output directory (default %(default)s)")


def _add_train_flags(p, regime_flags=True):
    """The training options as flags, their help naming the defaults. The
    regime, eps and lam flags are train's alone: compare sets them per fit."""
    p.add_argument("--config", help="JSON (or TOML on 3.11+) config file; flags override it")
    for field, flag, text, kwargs in _OPTIONS:
        if regime_flags or field not in ("regime", "epsilon", "l1_strength"):
            default = _TRAIN_OPTIONS[flag]  # the hidden sizes as the flag spells them
            shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
            p.add_argument("--" + flag.replace("_", "-"), help=f"{text} (default {shown})",
                           **kwargs)


def _add_method_flags(p):
    p.add_argument("--method", choices=("closed", "numeric"), default="closed",
                   help="attribution method (default %(default)s)")
    p.add_argument("--steps", type=int,
                   help="numeric attribution's path points per row: the midpoint rule's "
                        "exact count for linear and ReLU models; the cap on Gauss-Legendre "
                        "nodes for softplus and tanh MLPs, which start at min(32, STEPS) "
                        "and double while a row's completeness residual exceeds 1e-10 "
                        f"(default {DEFAULT_REPORT_STEPS})")


def _steps(args) -> int:
    """--steps, which the numeric method alone reads, or its default."""
    if args.steps is not None and args.method != "numeric":
        raise ValueError(f"--steps applies to the numeric method only, "
                         f"and the method is {args.method}")
    return DEFAULT_REPORT_STEPS if args.steps is None else args.steps


def _add_sampler_flags(p):
    """The flags of verify and synth that set the seed and the sampler."""
    p.add_argument("--seed", type=_seed, default=0, help="seed (default %(default)s)")
    p.add_argument("--strengths", type=_parse_float_list,
                   help="per-feature class association, comma separated")
    p.add_argument("--noise-sd", type=float, help="sampler noise scale")
    p.add_argument("--balance", type=float, help="P(y=+1)")


def _split_rows(args, ds, split="test"):
    """The rows of a split of --data, rejected when empty before anything is fit or written."""
    idx = ds.split(split)
    if idx.size == 0:
        raise ValueError(f"{args.data}: the {split} split is empty (the 70/30 split of "
                         f"n = {len(ds.labels)} examples holds out none)")
    return idx


def _out_dir(args) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return args.out_dir


def _image_shape(text) -> tuple:
    """HxW as two integers >= 1: the type of --image-shape."""
    parts = text.lower().split("x")
    if len(parts) != 2 or not all(p.isdecimal() and int(p) >= 1 for p in parts):
        raise argparse.ArgumentTypeError(f"expected HxW with integers >= 1, got {text!r}")
    return int(parts[0]), int(parts[1])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    file_cfg = _load_config_file(args.config) if args.config else {}
    resolved = _resolve(file_cfg, args)
    spec = make_loss(resolved["loss"])
    cfg = _train_config(resolved)
    resolved.update(eps=cfg.epsilon, lam=cfg.l1_strength)  # as trained: -0.0 is +0.0
    ds = _load_data(args)
    _split_rows(args, ds)  # the fit is scored on it
    model, trace = train(ds, spec, cfg)
    out = _out_dir(args)
    save_model(model, os.path.join(out, "model.json"))
    trace.to_csv(os.path.join(out, "trace.csv"))
    result = evaluate(model, ds, spec)
    write_json(os.path.join(out, "resolved_config.json"), {
        "format_version": 1,
        "command": "train",
        "toolkit_version": __version__,
        "resolved": resolved,
    })
    print(f"trained regime={cfg.regime} model={cfg.model_kind} "
          f"test_accuracy={fmt_float(result.accuracy)} mean_loss={fmt_float(result.mean_loss)}")
    print(f"wrote {out}/model.json, {out}/trace.csv, {out}/resolved_config.json")
    return 0


def cmd_compare(args) -> int:
    file_cfg = _load_config_file(args.config) if args.config else {}
    resolved = _resolve(file_cfg, args)
    resolved.update(regime="natural", eps=0.0, lam=0.0)
    spec = make_loss(resolved["loss"])
    base_cfg = _train_config(resolved)
    steps = _steps(args)
    ds = _load_data(args)
    dataset_id = args.dataset_id or os.path.splitext(os.path.basename(args.data))[0]
    outcome = run_compare(ds, spec, args.eps_list, args.lam_list, base_cfg,
                          dataset_id=dataset_id, method=args.method, steps=steps)
    out = _out_dir(args)
    write_json(os.path.join(out, "report.json"), outcome.report)
    write_table_csv(outcome.table_rows, os.path.join(out, "table.csv"))
    write_distribution_csv(outcome.distribution_rows, os.path.join(out, "distributions.csv"))
    write_tradeoff_csv(outcome.tradeoff_rows, os.path.join(out, "tradeoff.csv"))
    for row in outcome.table_rows:
        print(f"{row['dataset']:>12s} {row['attr']:>10s} {row['model']:>24s} "
              f"dG={row['dG']:+.4f} AcDrop={row['AcDrop']:+.3f}%")
    print(f"wrote {out}/report.json, {out}/table.csv, {out}/distributions.csv, {out}/tradeoff.csv")
    return 0


def cmd_attribute(args) -> int:
    steps = _steps(args)
    ds = _load_data(args)
    idx = _split_rows(args, ds, args.split)
    model = load_model(args.model)
    if args.image_shape and math.prod(args.image_shape) != ds.dim:
        h, w = args.image_shape
        raise ValueError(f"--image-shape {h}x{w} does not match dimension {ds.dim}")
    u = np.zeros(ds.dim)
    if args.baseline_file:
        with open(args.baseline_file, encoding="utf-8") as fh:
            try:
                u = json.load(fh)
            except ValueError:  # not UTF-8 JSON
                u = None
        # NaN, Infinity and an int past the float range all fail the bound
        if not (isinstance(u, list) and len(u) == ds.dim
                and all(type(v) in (float, int) and abs(v) <= sys.float_info.max for v in u)):
            raise ValueError(f"--baseline-file {args.baseline_file}: the baseline must be a "
                             f"JSON list of {ds.dim} numbers")
    attribs = attribute_dataset(model, ds, u, method=args.method, steps=steps,
                                split=args.split, target=args.target)
    out = _out_dir(args)
    write_csv(os.path.join(out, "attributions.csv"),
              ["example_id", *ds.feature_names, "completeness_residual"],
              ([int(example_id), *attr.values.tolist(), attr.completeness_residual]
               for example_id, attr in zip(idx, attribs)))
    value_impact, feature_impact = impact_report(attribs, ds)
    write_csv(os.path.join(out, "impact_values.csv"), ds.feature_names, [value_impact.tolist()])
    write_csv(os.path.join(out, "impact_features.csv"), [g.name for g in ds.encoding_map],
              [feature_impact.tolist()])
    written = ["attributions.csv", "impact_values.csv", "impact_features.csv"]
    if args.image_shape:
        for example_id, attr in zip(idx, attribs):
            write_pgm(attr.values, args.image_shape,
                      os.path.join(out, f"attr_{int(example_id):06d}.pgm"))
        written.append(f"{len(attribs)} PGM grids")
    print(f"attributed {len(attribs)} examples ({args.method}); "
          f"wrote {', '.join(written)} in {out}")
    return 0


def _read_vector_rows(path) -> list:
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
        header, rows = rows[0], rows[1:]
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
    bad = [i for i, row in enumerate(data) if not np.all(np.isfinite(row))]
    if bad:
        raise ValueError(f"{path}: data row {bad[0]}: non-finite cell")
    return data


def cmd_gini(args) -> int:
    data = _read_vector_rows(args.input)
    values = np.empty(len(data))
    for width in {row.size for row in data}:  # rows of one width score as one array
        same = [i for i, row in enumerate(data) if row.size == width]
        values[same] = gini_rows(np.abs([data[i] for i in same]))
    if args.out:
        write_csv(args.out, ["row", "gini"], enumerate(values.tolist()))
        print(f"wrote {args.out}")
    else:
        print(*map(fmt_float, values), sep="\n")
    print(f"mean_gini {fmt_float(float(np.mean(values)))}")
    return 0


# The flags each verify check (theory.CHECKS) and synth kind reads besides
# --seed and --out, with their defaults. None keeps the default of the
# sampler or of blob_sampler; a flag of the table that the chosen row does
# not read exits 1.
_READS = {
    "verify": {name: defaults for name, (defaults, _) in CHECKS.items()},
    "synth": {
        "gaussian": {"strengths": (1.0,) + (0.05,) * 9, "noise_sd": None, "balance": None},
        "blobs": {"noise_sd": None, "balance": None, "height": None, "width": None,
                  "strong": None, "weak": None, "sigma": None},
    },
}
# the sampler keyword of each None-default flag whose name differs from it
_KEYWORDS = {"balance": "class_balance", "strong": "strong_amplitude",
             "weak": "weak_amplitude", "sigma": "blob_sigma"}


def _read_flags(args, name) -> tuple:
    """(each flag that row ``name`` of the command's table reads, as given or
    else its default; the sampler keywords of its None-default flags the
    user gave). A flag of another row that the user gave is an error."""
    rows = _READS[args.command]
    row = rows[name]
    for flag in sorted(set().union(*rows.values()) - set(row)):
        if getattr(args, flag) is not None:
            raise ValueError(f"--{flag.replace('_', '-')} does not apply to {args.command} {name}")
    given = {flag: getattr(args, flag) for flag in row if getattr(args, flag) is not None}
    sampler_kw = {_KEYWORDS.get(flag, flag): v for flag, v in given.items() if row[flag] is None}
    return {**row, **given}, sampler_kw


def cmd_verify(args) -> int:
    flags, sampler_kw = _read_flags(args, args.check)
    results = CHECKS[args.check][1](flags, sampler_kw, args.seed)
    doc = {
        "format_version": 1,
        "check": args.check,
        "toolkit_version": __version__,
        "results": [r.to_dict() for r in results],
        "passed": bool(all(r.passed for r in results)),
    }
    write_json(args.out, doc)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] {r.check_id}: estimate={r.estimate:.6g} "
              f"reference={r.reference:.6g} se={r.se:.3g} n={r.n_samples}",
              file=sys.stderr)
    return 0 if doc["passed"] else 1


def cmd_synth(args) -> int:
    flags, sampler_kw = _read_flags(args, args.kind)
    sampler = (blob_sampler(**sampler_kw) if args.kind == "blobs"
               else SyntheticConditionalSampler(flags["strengths"], **sampler_kw))
    try:
        ds = generate_synthetic(sampler, args.n, args.seed)
    except MemoryError:
        raise ValueError(f"--n {args.n}: too many examples to fit in memory") from None
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
    _add_io_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare",
                       help="train natural vs adversarial vs l1 models; report Gini gaps")
    _add_io_flags(p)
    _add_train_flags(p, regime_flags=False)
    p.add_argument("--eps-list", type=_parse_float_list, default="0.1",
                   help='adversarial budgets, comma separated (default %(default)s; "" for none)')
    p.add_argument("--lam-list", type=_parse_float_list, default="0.02",
                   help='l1 strengths, comma separated (default %(default)s; "" for none)')
    p.add_argument("--dataset-id", help="dataset tag in reports (default: file stem)")
    _add_method_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("attribute", help="attribute a dataset split with a saved model")
    _add_io_flags(p)
    p.add_argument("--model", required=True, help="model JSON file")
    _add_method_flags(p)
    p.add_argument("--split", choices=("train", "test"), default="test",
                   help="split to attribute (default %(default)s)")
    p.add_argument("--target", choices=("true-class-probability", "model-output"),
                   default="true-class-probability",
                   help="attribution target (default %(default)s)")
    p.add_argument("--baseline-file", help="JSON list baseline (default all-zero)")
    p.add_argument("--image-shape", type=_image_shape,
                   help="HxW: also write one PGM grid per example")
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("gini", help="Gini index of each row of a numeric CSV")
    p.add_argument("--input", required=True,
                   help="numeric CSV (or a file written by the attribute subcommand)")
    p.add_argument("--out", help="write row,gini CSV here instead of stdout")
    p.set_defaults(func=cmd_gini)

    p = sub.add_parser("verify", help="run a guarantee check; exit 1 if it fails")
    p.add_argument("check", choices=tuple(_READS["verify"]), help="which guarantee to check")
    p.add_argument("--n", type=int, help="Monte-Carlo samples")
    p.add_argument("--trials", type=int, help="random instances")
    p.add_argument("--configs", type=int, help="random configurations")
    p.add_argument("--eps", type=float, help="perturbation budget")
    p.add_argument("--tol", type=float, help="residual tolerance")
    p.add_argument("--loss", choices=LOSS_NAMES + ("all",), help="loss")
    _add_sampler_flags(p)
    p.add_argument("--noise-kind", choices=("gaussian", "uniform"),
                   help="sampler noise family (uniform suits hinge)")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("synth", help="generate a synthetic dataset JSON")
    p.add_argument("kind", choices=tuple(_READS["synth"]), help="generator family")
    p.add_argument("--out", required=True, help="output dataset JSON path")
    p.add_argument("--n", type=int, default=2000, help="number of examples (default %(default)s)")
    _add_sampler_flags(p)
    p.add_argument("--height", type=int, help="image height")
    p.add_argument("--width", type=int, help="image width")
    p.add_argument("--strong", type=float, help="center signal amplitude")
    p.add_argument("--weak", type=float, help="background amplitude")
    p.add_argument("--sigma", type=float, help="blob radius")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrainingDivergedError as exc:
        print(f"attrsparse: training diverged: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        detail = str(exc) or repr(exc)
        print(f"attrsparse: error: {detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
