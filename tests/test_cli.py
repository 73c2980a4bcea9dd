"""Command-line contract: exit codes, file outputs, determinism, and the
documented defaults, exercised in-process through main(argv)."""
import builtins
import csv
import importlib.util
import json
import os
import re
import types
import warnings
from dataclasses import fields

import numpy as np
import pytest

from attrsparse import attribution, losses, theory
from attrsparse._util import write_json
from attrsparse._version import __version__
from attrsparse.cli import (
    _CONFIG_ALIASES,
    _OPTIONS,
    _READS,
    _resolve,
    _train_config,
    build_parser,
    main,
)
from attrsparse.data import load_dataset
from attrsparse.models import LinearModel, init_mlp, load_model, model_to_dict, save_model
from attrsparse.pipeline import run_compare
from attrsparse.theory import CHECKS
from attrsparse.training import TrainConfig
from helpers import gini_row, make_categorical_csv, make_numeric_csv


@pytest.fixture(scope="module")
def synth_json(tmp_path_factory):
    """A small overlapping-class gaussian dataset reused across CLI tests."""
    root = tmp_path_factory.mktemp("cli-data")
    path = root / "toy.json"
    rc = main(["synth", "gaussian", "--out", str(path), "--n", "200",
               "--strengths", "1.0,0.05,0.05,0.05", "--seed", "0"])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory, synth_json):
    out = tmp_path_factory.mktemp("cli-train")
    rc = main(["train", "--data", str(synth_json), "--epochs", "5",
               "--out-dir", str(out)])
    assert rc == 0
    return out / "model.json"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"attrsparse {__version__}"


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train"])  # --data is required
    assert exc.value.code == 1
    assert "error" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm9"])  # not a known check
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])  # a subcommand is required
    assert exc.value.code == 1


# --- synth -----------------------------------------------------------------------

def test_synth_gaussian_output(synth_json, tmp_path, capsys):
    ds = load_dataset(synth_json)
    assert ds.n_examples == 200 and ds.dim == 4
    assert set(np.unique(ds.labels)) == {-1.0, 1.0}
    again = tmp_path / "again.json"
    rc = main(["synth", "gaussian", "--out", str(again), "--n", "200",
               "--strengths", "1.0,0.05,0.05,0.05", "--seed", "0"])
    assert rc == 0
    assert synth_json.read_bytes() == again.read_bytes()
    # noise sd 0 is the noise-free set x = a*y; a negative one is rejected
    exact = tmp_path / "exact.json"
    assert main(["synth", "gaussian", "--out", str(exact), "--n", "50",
                 "--strengths", "0.5,-0.25,0.0", "--noise-sd", "0"]) == 0
    ds = load_dataset(exact)
    np.testing.assert_array_equal(ds.features, np.asarray([0.5, -0.25, 0.0]) * ds.labels[:, None])
    assert main(["synth", "gaussian", "--out", str(tmp_path / "bad.json"),
                 "--noise-sd", "-1"]) == 1
    assert "noise_sd must be a finite number >= 0" in capsys.readouterr().err
    assert not (tmp_path / "bad.json").exists()
    # a blob geometry flag is an error here, not ignored
    assert main(["synth", "gaussian", "--out", str(tmp_path / "bad.json"),
                 "--height", "3", "--sigma", "9"]) == 1
    assert "--height does not apply to synth gaussian" in capsys.readouterr().err
    assert not (tmp_path / "bad.json").exists()
    # the defaults: 2000 examples of ten features
    assert main(["synth", "gaussian", "--out", str(exact)]) == 0
    ds = load_dataset(exact)
    assert ds.n_examples == 2000 and ds.dim == 10


def test_synth_blobs(tmp_path, capsys):
    out = tmp_path / "blobs.json"
    rc = main(["synth", "blobs", "--out", str(out), "--n", "50",
               "--height", "4", "--width", "6"])
    assert rc == 0
    assert "50 examples, 24 features" in capsys.readouterr().out
    ds = load_dataset(out)
    assert ds.dim == 24
    # blobs draw their own strengths, so giving some is an error
    assert main(["synth", "blobs", "--out", str(tmp_path / "bad.json"),
                 "--strengths", "1,2"]) == 1
    assert "--strengths does not apply to synth blobs" in capsys.readouterr().err
    assert not (tmp_path / "bad.json").exists()


@pytest.mark.parametrize("kind", ["gaussian", "blobs"])
def test_synth_n_past_memory_exit_1_naming_it(tmp_path, capsys, kind):
    # 10**15 rows fail at the first allocation, before any memory is touched
    out = tmp_path / "huge.json"
    assert main(["synth", kind, "--out", str(out), "--n", "1000000000000000"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["attrsparse: error: --n 1000000000000000: too many examples to fit "
                   "in memory"], err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags, message", [
    (["--sigma", "0"], "--sigma must be a finite number > 0, got 0.0"),
    (["--height", "3", "--width", "3", "--sigma", "0"], "--sigma must be a finite number > 0"),
    (["--sigma", "-1.3"], "--sigma must be a finite number > 0, got -1.3"),
    (["--sigma", "nan"], "--sigma must be a finite number > 0, got nan"),
    (["--height", "0"], "--height must be >= 1, got 0"),
    (["--width", "-2"], "--width must be >= 1, got -2"),
    (["--strong", "inf"], "--strong must be a finite number, got inf"),
    (["--weak", "nan"], "--weak must be a finite number, got nan"),
])
def test_synth_blobs_rejects_bad_geometry(tmp_path, capsys, flags, message):
    # rejected at the sampler, before any draw and without a NumPy warning
    out = tmp_path / "bad.json"
    assert main(["synth", "blobs", "--out", str(out), "--n", "10", *flags]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_old_sidecar_keys_load_the_same_dataset(synth_json, tmp_path):
    # sidecars written before "label_map" and "translated" were dropped
    doc = json.loads(synth_json.read_text(encoding="utf-8"))
    assert "label_map" not in doc and "translated" not in doc
    doc.update(label_map=None, translated=True)
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc), encoding="utf-8")
    new_ds, old_ds = load_dataset(synth_json), load_dataset(old)
    for field in ("features", "labels", "train_indices", "test_indices"):
        assert getattr(old_ds, field).tobytes() == getattr(new_ds, field).tobytes(), field
    for data, out in ((synth_json, tmp_path / "new-run"), (old, tmp_path / "old-run")):
        assert main(["train", "--data", str(data), "--epochs", "2", "--out-dir", str(out)]) == 0
    for name in ("model.json", "trace.csv"):
        assert (tmp_path / "old-run" / name).read_bytes() == (tmp_path / "new-run" / name).read_bytes()


# --- train -----------------------------------------------------------------------

def test_train_writes_model_trace_config(synth_json, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["train", "--data", str(synth_json), "--epochs", "4",
               "--regime", "l1", "--lam", "0.05", "--out-dir", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "trained regime=l1 model=linear test_accuracy=" in stdout
    model = load_model(out / "model.json")
    assert model.dim == 4
    lines = (out / "trace.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "epoch,loss,acc,l1_norm,weight_gini"
    assert len(lines) == 5
    doc = json.loads((out / "resolved_config.json").read_text(encoding="utf-8"))
    assert doc["format_version"] == 1 and doc["command"] == "train"
    assert doc["resolved"]["regime"] == "l1"
    assert doc["resolved"]["lam"] == 0.05
    assert doc["resolved"]["epochs"] == 4
    assert doc["resolved"]["loss"] == "logistic-nll"


def test_train_epsilon_zero_matches_natural_bytes(synth_json, tmp_path):
    nat, adv = tmp_path / "nat", tmp_path / "adv"
    assert main(["train", "--data", str(synth_json), "--epochs", "4",
                 "--out-dir", str(nat)]) == 0
    assert main(["train", "--data", str(synth_json), "--epochs", "4",
                 "--regime", "adversarial", "--eps", "0.0",
                 "--out-dir", str(adv)]) == 0
    assert (nat / "model.json").read_bytes() == (adv / "model.json").read_bytes()
    assert (nat / "trace.csv").read_bytes() == (adv / "trace.csv").read_bytes()


def test_train_records_negative_zero_strengths_as_zero(synth_json, tmp_path):
    for flags in (["--regime", "adversarial", "--eps", "-0"], ["--regime", "l1", "--lam", "-0"]):
        out = tmp_path / flags[1]
        assert main(["train", "--data", str(synth_json), "--epochs", "1", *flags,
                     "--out-dir", str(out)]) == 0
        doc = json.loads((out / "resolved_config.json").read_text(encoding="utf-8"))
        assert repr(doc["resolved"]["eps"]) == repr(doc["resolved"]["lam"]) == "0.0"


def test_train_config_file_and_flag_precedence(synth_json, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"regime": "l1", "l1_strength": 0.05,
                               "epochs": 3, "seed": 7}), encoding="utf-8")
    out = tmp_path / "run"
    rc = main(["train", "--data", str(synth_json), "--config", str(cfg),
               "--lam", "0.1", "--out-dir", str(out)])
    assert rc == 0
    doc = json.loads((out / "resolved_config.json").read_text(encoding="utf-8"))
    assert doc["resolved"]["regime"] == "l1"   # from the file
    assert doc["resolved"]["lam"] == 0.1       # flag beats file
    assert doc["resolved"]["epochs"] == 3
    assert doc["resolved"]["seed"] == 7


def test_train_unknown_config_key(synth_json, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"learning": 0.1}), encoding="utf-8")
    rc = main(["train", "--data", str(synth_json), "--config", str(cfg),
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "unknown config key 'learning'" in capsys.readouterr().err


def _flag_argv(flag, default):
    option = "--" + flag.replace("_", "-")
    if isinstance(default, bool):
        return [option]
    return [option, ",".join(map(str, default)) if isinstance(default, tuple) else str(default)]


def test_train_config_is_the_one_home_of_training_options():
    # the options table has one row per TrainConfig field, in field order,
    # and one for the loss; every field is a flag of train and a config-file
    # key in both spellings, and a flag of compare apart from the three it
    # sets per fit; the CLI's defaults are TrainConfig's own
    flag_of = {field: flag for field, flag, _, _ in _OPTIONS}
    assert [field for field, *_ in _OPTIONS] == [f.name for f in fields(TrainConfig)] + [None]
    assert flag_of[None] == "loss"
    parser = build_parser()
    for f in fields(TrainConfig):
        flag = flag_of[f.name]
        argv = ["--data", "x.json", *_flag_argv(flag, f.default)]
        assert getattr(parser.parse_args(["train", *argv]), flag) is not None, f.name
        if f.name in ("regime", "epsilon", "l1_strength"):
            with pytest.raises(SystemExit):
                parser.parse_args(["compare", *argv])
        else:
            assert getattr(parser.parse_args(["compare", *argv]), flag) is not None, f.name
    args = parser.parse_args(["train", "--data", "x.json"])
    assert _train_config(_resolve({}, args)) == TrainConfig()
    for f in fields(TrainConfig):
        # the MLP options are keys of an MLP's config alone, eps and lam of
        # the regimes that read them
        reader = {"epsilon": {"regime": "adversarial"}, "l1_strength": {"regime": "l1"}}.get(
            f.name, {"model_kind": "mlp"} if f.name.startswith("hidden") else {})
        for key in (f.name, flag_of[f.name]):
            assert (_train_config(_resolve({key: f.default, **reader}, args))
                    == TrainConfig(**reader)), key


@pytest.mark.parametrize("cfg, message", [
    ({"use_bias": "false"}, "config key 'use_bias' must be bool, got 'false'"),
    ({"epochs": 2.7}, "config key 'epochs' must be int, got 2.7"),
    ({"seed": True}, "config key 'seed' must be int, got True"),
    ({"learning_rate": "0.1"}, "config key 'learning_rate' must be int or float, got '0.1'"),
    ({"model": ["mlp"]}, "config key 'model' must be str, got ['mlp']"),
    ({"hidden": 16}, "config key 'hidden' must be list or tuple or str, got 16"),
])
def test_train_config_value_of_wrong_type_exit_1(synth_json, tmp_path, capsys, cfg, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    rc = main(["train", "--data", str(synth_json), "--config", str(path),
               "--out-dir", str(tmp_path / "run")])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "compare"])
def test_config_seed_follows_the_seed_flag_rule(synth_json, tmp_path, capsys, command):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": -1, "epochs": 1}), encoding="utf-8")
    rc = main([command, "--data", str(synth_json), "--config", str(path),
               "--out-dir", str(tmp_path / "run")])
    assert rc == 1
    assert "config key 'seed' must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("given", ["flag", "config"])
def test_use_bias_with_mlp_exit_1(synth_json, tmp_path, capsys, command, given):
    # an MLP always has biases, so asking for one is a mistaken invocation
    argv = [command, "--data", str(synth_json), "--model", "mlp", "--epochs", "1",
            "--out-dir", str(tmp_path / "run")]
    if given == "flag":
        argv.append("--use-bias")
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"use_bias": True}), encoding="utf-8")
        argv += ["--config", str(path)]
    assert main(argv) == 1
    assert "use_bias applies to linear models only" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("option, value, origin", [
    ("--hidden", "4,4", "--hidden"), ("--hidden-activation", "tanh", "--hidden-activation"),
    ("hidden", [4, 4], "config key 'hidden'"), ("hidden_sizes", "4", "config key 'hidden_sizes'"),
    ("hidden_activation", "softplus", "config key 'hidden_activation'")])
@pytest.mark.parametrize("model", [None, "linear"])
def test_mlp_options_with_linear_model_exit_1(synth_json, tmp_path, capsys, command, option,
                                              value, origin, model):
    # a linear model has no hidden layers, so an MLP option is a mistaken
    # invocation, even at its default value, whether --model is given or not
    argv = [command, "--data", str(synth_json), "--epochs", "1",
            "--out-dir", str(tmp_path / "run")]
    if model:
        argv += ["--model", model]
    if option.startswith("--"):
        argv += [option, value]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({option: value}), encoding="utf-8")
        argv += ["--config", str(path)]
    assert main(argv) == 1
    assert f"{origin} applies to MLP models only" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()

@pytest.mark.parametrize("argv, config, message", [
    (["train", "--regime", "natural", "--eps", "0.3"], None,
     "--eps applies to regime adversarial or stable-ig only, and the regime is natural"),
    (["train", "--regime", "l1", "--eps", "0.2"], None,
     "--eps applies to regime adversarial or stable-ig only, and the regime is l1"),
    (["train", "--regime", "adversarial", "--lam", "0.5"], None,
     "--lam applies to regime l1 only, and the regime is adversarial"),
    (["train", "--regime", "stable-ig", "--eps", "0.1", "--lam", "0"], None,
     "--lam applies to regime l1 only, and the regime is stable-ig"),
    (["train", "--eps", "0"], None,
     "--eps applies to regime adversarial or stable-ig only, and the regime is natural"),
    (["train"], {"regime": "natural", "epsilon": 0.4},
     "config key 'epsilon' applies to regime adversarial or stable-ig only"),
    (["train"], {"regime": "adversarial", "eps": 0.1, "l1_strength": 0.0},
     "config key 'l1_strength' applies to regime l1 only, and the regime is adversarial"),
    (["train", "--regime", "bogus", "--eps", "0.1"], None, "unknown regime 'bogus'"),
    (["compare", "--steps", "7"], None,
     "--steps applies to the numeric method only, and the method is closed"),
    (["compare", "--method", "closed", "--steps", "256"], None,
     "--steps applies to the numeric method only, and the method is closed"),
    (["attribute", "--steps", "7"], None,
     "--steps applies to the numeric method only, and the method is closed"),
])
def test_flags_the_run_does_not_read_exit_1(synth_json, trained_model, tmp_path, capsys,
                                             monkeypatch, argv, config, message):
    # a strength its regime never reads, or path steps for the closed form,
    # would be ignored (and recorded as if used): exit 1, even at a default
    def refuse(*args, **kwargs):
        raise AssertionError("a model was trained")

    monkeypatch.setattr("attrsparse.cli.train", refuse)
    monkeypatch.setattr("attrsparse.pipeline.train_many", refuse)
    argv = argv + ["--data", str(synth_json), "--out-dir", str(tmp_path / "run")]
    if argv[0] == "attribute":
        argv += ["--model", str(trained_model)]
    if config:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(path)]
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_mlp_options_in_a_config_serve_an_mlp_flag(synth_json, tmp_path):
    # a config written for an MLP stays usable when --model mlp is given
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": "linear", "hidden": [3]}), encoding="utf-8")
    assert main(["train", "--data", str(synth_json), "--epochs", "1", "--config", str(path),
                 "--model", "mlp", "--out-dir", str(tmp_path / "run")]) == 0
    assert load_model(tmp_path / "run" / "model.json").layer_sizes[1:] == [3, 1]


def test_train_config_int_for_float_field_is_accepted():
    args = build_parser().parse_args(["train", "--data", "x.json"])
    cfg = _train_config(_resolve({"lr": 1, "eps": 0, "regime": "adversarial"}, args))
    assert cfg == TrainConfig(learning_rate=1.0, regime="adversarial")
    assert type(cfg.learning_rate) is float and type(cfg.epsilon) is float


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("hidden", ["3.9", "0", "4,-2", "nan", "inf", [3.9], [0], [True],
                                    "", "abc", []])
def test_bad_hidden_sizes_exit_1_before_training(synth_json, tmp_path, capsys, monkeypatch,
                                                 command, hidden):
    def refuse(*args, **kwargs):
        raise AssertionError("a model was trained")

    monkeypatch.setattr("attrsparse.cli.train", refuse)
    monkeypatch.setattr("attrsparse.pipeline.train_many", refuse)
    if isinstance(hidden, str):
        argv, origin = [f"--hidden={hidden}"], "--hidden"
    else:  # a config file's list
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hidden": hidden}), encoding="utf-8")
        argv, origin = ["--config", str(cfg)], "config key 'hidden'"
    rc = main([command, "--data", str(synth_json), "--model", "mlp", *argv,
               "--out-dir", str(tmp_path / "run")])
    assert rc == 1
    assert f"{origin}: hidden sizes must be integers >= 1, got" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_toml_config_needs_newer_python_or_json(synth_json, tmp_path, capsys):
    cfg = tmp_path / "cfg.toml"
    cfg.write_text('epochs = 3\n', encoding="utf-8")
    rc = main(["train", "--data", str(synth_json), "--config", str(cfg),
               "--out-dir", str(tmp_path)])
    try:
        import tomllib  # noqa: F401
        assert rc == 0
    except ModuleNotFoundError:
        assert rc == 1
        assert "JSON" in capsys.readouterr().err


def test_train_bad_toml_config_exit_1_naming_it(synth_json, tmp_path, capsys):
    pytest.importorskip("tomllib")
    cfg = tmp_path / "bad.toml"
    cfg.write_text("epochs = \n", encoding="utf-8")
    rc = main(["train", "--data", str(synth_json), "--config", str(cfg),
               "--out-dir", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"attrsparse: error: {cfg}: not a valid TOML config file "
                   "(Invalid value (at line 1, column 10))"], err
    assert not (tmp_path / "run").exists()


def test_train_bad_regime_lists_choices(synth_json, tmp_path, capsys):
    rc = main(["train", "--data", str(synth_json), "--regime", "robust",
               "--out-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "attrsparse: error:" in err and "natural" in err


def test_train_divergence_exit_2(tmp_path, capsys):
    data = tmp_path / "overlap.json"
    assert main(["synth", "gaussian", "--out", str(data), "--n", "300",
                 "--strengths", "0.1,0.05"]) == 0
    rc = main(["train", "--data", str(data), "--optimizer", "sgd",
               "--lr", "1e8", "--epochs", "2", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "training diverged" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["train", "--lr", "1e308"],    # weights summing past the float range reach no trace
    ["train", "--lr", "1e300"],    # a finite objective of 1e+298 writes no model
    ["compare", "--lr", "1e308"],  # an untraced fit writes no report
])
def test_last_step_divergence_exit_2(tmp_path, capsys, argv):
    # one sgd step, which no later step checks: the training split's
    # objective after it must, before the trace or the caller reads the model
    data = tmp_path / "toy.json"
    assert main(["synth", "gaussian", "--n", "200", "--out", str(data)]) == 0
    out = tmp_path / "run"
    rc = main([argv[0], "--data", str(data), "--optimizer", "sgd", "--epochs", "1",
               "--batch-size", "1000", *argv[1:], "--out-dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("attrsparse: training diverged: natural: "
                                               "objective "), err
    assert err[0].endswith("exceeded 1e+06 at step 1"), err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--lr", "nan"],
    ["--regime", "adversarial", "--eps", "nan"],
    ["--regime", "l1", "--lam", "inf"],
])
def test_train_non_finite_parameter_exit_1(synth_json, tmp_path, capsys, flags):
    rc = main(["train", "--data", str(synth_json), *flags, "--epochs", "1",
               "--out-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "must be finite" in err and "diverged" not in err


def test_train_missing_data_file(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "nope.json"),
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "attrsparse: error:" in capsys.readouterr().err


# --- CSV ingestion ----------------------------------------------------------------

@pytest.fixture()
def csv_file(tmp_path):
    path = tmp_path / "data.csv"
    rng = np.random.default_rng(0)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "color", "amount"])
        for _ in range(60):
            y = rng.uniform() < 0.5
            color = ("red" if rng.uniform() < 0.8 else "blue") if y else \
                ("blue" if rng.uniform() < 0.8 else "red")
            amount = rng.normal(1.0 if y else -1.0, 0.5)
            writer.writerow(["yes" if y else "no", color, f"{amount:.6f}"])
    return path


def test_train_csv_with_schema_file(csv_file, tmp_path):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({
        "label_column": "label",
        "columns": [["color", "categorical"], ["amount", "numeric"]],
        "positive_label": "yes",
    }), encoding="utf-8")
    out = tmp_path / "run"
    rc = main(["train", "--data", str(csv_file), "--schema", str(schema),
               "--epochs", "3", "--out-dir", str(out)])
    assert rc == 0
    model = load_model(out / "model.json")
    assert model.dim == 3  # two colors one-hot + one numeric


def test_train_csv_infer_schema(csv_file, tmp_path):
    out = tmp_path / "run"
    rc = main(["train", "--data", str(csv_file), "--infer-schema",
               "--label-column", "label", "--epochs", "3", "--out-dir", str(out)])
    assert rc == 0
    assert load_model(out / "model.json").dim == 3


@pytest.mark.parametrize("delimiter", ["", ";;"])
def test_delimiter_must_be_one_character(csv_file, tmp_path, capsys, delimiter):
    # csv.reader takes one character; anything else is an argument error
    # before the file is read, not a TypeError from the reader
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", str(csv_file), "--infer-schema", "--label-column", "label",
              "--delimiter", delimiter, "--out-dir", str(out)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"argument --delimiter: expected one character, got {delimiter!r}" in err
    assert "Traceback" not in err and not out.exists()


def test_tab_delimiter_is_accepted(csv_file, tmp_path):
    tsv = tmp_path / "data.tsv"
    tsv.write_text(csv_file.read_text(encoding="utf-8").replace(",", "\t"), encoding="utf-8")
    out = tmp_path / "run"
    rc = main(["train", "--data", str(tsv), "--infer-schema", "--label-column", "label",
               "--delimiter", "\t", "--epochs", "1", "--out-dir", str(out)])
    assert rc == 0
    assert load_model(out / "model.json").dim == 3


def test_train_csv_without_schema_fails(csv_file, tmp_path, capsys):
    rc = main(["train", "--data", str(csv_file), "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "needs --schema FILE or --infer-schema" in capsys.readouterr().err
    rc = main(["train", "--data", str(csv_file), "--infer-schema",
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "--label-column" in capsys.readouterr().err


def test_infer_schema_reads_the_csv_once(csv_file, tmp_path, monkeypatch):
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(os.fspath(file) if isinstance(file, (str, os.PathLike)) else file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    rc = main(["train", "--data", str(csv_file), "--infer-schema", "--label-column", "label",
               "--epochs", "1", "--out-dir", str(tmp_path / "run")])
    monkeypatch.undo()
    assert rc == 0
    assert opened.count(str(csv_file)) == 1


@pytest.mark.parametrize("content, message", [
    ("", "empty file, header row required"),
    ("color,amount\nred,1.0\n", "label column 'label' not in header ['color', 'amount']"),
])
def test_infer_schema_csv_errors_exit_1(tmp_path, capsys, content, message):
    path = tmp_path / "bad.csv"
    path.write_text(content, encoding="utf-8")
    rc = main(["train", "--data", str(path), "--infer-schema", "--label-column", "label",
               "--out-dir", str(tmp_path / "run")])
    assert rc == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--schema", "schema.json"], ["--infer-schema"],
                                  ["--label-column", "label"], ["--positive-label", "yes"],
                                  ["--delimiter", ","], ["--split-seed", "0"]])
def test_csv_flags_with_json_data_exit_1(synth_json, tmp_path, capsys, flag):
    # a .json sidecar carries its own encoding and split, so a CSV-only flag,
    # even at its default value, would be ignored
    rc = main(["train", "--data", str(synth_json), *flag, "--epochs", "1",
               "--out-dir", str(tmp_path / "run")])
    assert rc == 1
    assert f"{flag[0]} does not apply to .json data" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value, type_name", [(1, "int"), (True, "bool"), (["yes"], "list")])
def test_schema_positive_label_must_be_a_string(csv_file, tmp_path, capsys, value, type_name):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({
        "label_column": "label",
        "columns": [["color", "categorical"], ["amount", "numeric"]],
        "positive_label": value,
    }), encoding="utf-8")
    rc = main(["train", "--data", str(csv_file), "--schema", str(schema),
               "--epochs", "1", "--out-dir", str(tmp_path / "run")])
    assert rc == 1
    assert f"'positive_label' must be a string, got {type_name}" in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", [
    # each malformed columns entry is named by its index in the file
    ({"columns": [{"kind": "numeric"}]}, "columns entry 0 must be [name, kind]"),
    ({"columns": [["color", "categorical"], ["amount"]]}, "columns entry 1 must be [name, kind]"),
    ({"columns": [["color", "categorical"], ["amount", "numeric"], 5]},
     "columns entry 2 must be [name, kind]"),
    ({"columns": {"color": "categorical", "amount": 5}}, "columns entry 1 must be [name, kind]"),
    ({"columns": [{"name": "color", "kind": ["categorical"]}]},
     "columns entry 0 must be [name, kind]"),
    ({"columns": 5}, "schema file needs a 'columns' object or list, got 5"),
    ({"label_column": "label"}, "schema file needs a 'columns' object or list, got None"),
    ([["color", "categorical"]], "a schema file holds one JSON object"),
])
def test_malformed_schema_names_the_file_and_entry(csv_file, tmp_path, capsys, doc, message):
    schema = tmp_path / "schema.json"
    if isinstance(doc, dict):
        doc = {"label_column": "label", **doc}
    schema.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["train", "--data", str(csv_file), "--schema", str(schema),
               "--epochs", "1", "--out-dir", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"attrsparse: error: {schema}: {message}"), err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("text, message", [
    ('{"format_version": ', "not a valid JSON {kind} file (Expecting value"),  # truncated
    ("[1, 2]", "a {kind} file holds one JSON object"),
])
@pytest.mark.parametrize("flag, kind", [("config", "config"), ("schema", "schema"),
                                        ("model", "model"), ("data", "dataset")])
def test_bad_json_file_exit_1_naming_it(synth_json, csv_file, tmp_path, capsys,
                                        flag, kind, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    data = {"schema": csv_file, "data": bad}.get(flag, synth_json)
    argv = ["attribute" if flag == "model" else "train", "--data", str(data),
            "--out-dir", str(tmp_path / "run")]
    assert main(argv + ([f"--{flag}", str(bad)] if flag != "data" else [])) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"attrsparse: error: {bad}: {message.format(kind=kind)}"), err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flag, kind, doc, key", [
    ("model", "model", {"format_version": 1, "kind": "mlp"}, "weights"),
    ("model", "model", {"format_version": 1, "kind": "linear", "dim": 4}, "weights"),
    ("data", "dataset", {"format_version": 1}, "features"),
])
def test_json_file_missing_an_entry_names_the_file_and_key(synth_json, tmp_path, capsys,
                                                          flag, kind, doc, key):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["attribute", "--model", str(bad), "--data", str(synth_json)] if flag == "model" \
        else ["train", "--data", str(bad)]
    assert main(argv + ["--out-dir", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"attrsparse: error: {bad}: the {kind} file has no '{key}' entry"], err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flag, key, edit", [
    ("data", "encoding_map", lambda doc: doc["encoding_map"][0].pop("stop")),
    ("data", "encoding_map", lambda doc: doc["encoding_map"][0].update(stop=1.0)),
    ("data", "feature_names", lambda doc: doc.update(feature_names=5)),
    ("data", "split_seed", lambda doc: doc.update(split_seed="x")),
    ("model", "weights", lambda doc: doc.update(weights=5)),
], ids=["group-without-stop", "group-float-stop", "int-names", "str-seed", "int-mlp-weights"])
def test_json_file_wrong_typed_entry_names_the_file_and_key(synth_json, tmp_path, capsys,
                                                            flag, key, edit):
    doc = (json.loads(synth_json.read_text(encoding="utf-8")) if flag == "data"
           else model_to_dict(init_mlp([4, 3, 1], np.random.default_rng(0))))
    edit(doc)
    bad = tmp_path / "bad.json"
    write_json(bad, doc)  # the model document holds arrays for the artifact encoder
    argv = ["attribute", "--model", str(bad), "--data", str(synth_json)] if flag == "model" \
        else ["train", "--data", str(bad)]
    assert main(argv + ["--out-dir", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err.splitlines()
    kind = "model" if flag == "model" else "dataset"
    assert len(err) == 1, err
    assert err[0].startswith(f"attrsparse: error: {bad}: the {kind} file's '{key}' entry "
                             "is malformed ("), err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, edit, cause", [
    ("split_seed", lambda doc: doc.update(split_seed=-1), "(-1 is negative)"),
    ("features", lambda doc: doc["features"][0].__setitem__(1, "abc"),
     "(could not convert string to float: 'abc')"),
], ids=["negative-seed", "text-feature-cell"])
def test_json_dataset_bad_valued_entry_names_the_file_and_key(synth_json, tmp_path, capsys,
                                                              key, edit, cause):
    doc = json.loads(synth_json.read_text(encoding="utf-8"))
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["train", "--data", str(bad), "--out-dir", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"attrsparse: error: {bad}: the dataset file's '{key}' entry "
                   f"is malformed {cause}"], err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "compare"])
def test_non_finite_csv_feature_exit_1(csv_file, tmp_path, capsys, command):
    lines = csv_file.read_text(encoding="utf-8").splitlines()
    for i, bad in ((3, "nan"), (7, "inf")):
        label, color, _ = lines[i].split(",")
        lines[i] = f"{label},{color},{bad}"
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main([command, "--data", str(bad_csv), "--infer-schema", "--label-column", "label",
               "--epochs", "1", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert "example 2, feature 'amount': non-finite value nan" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compare", "attribute"])
def test_multiclass_csv_exit_1_at_load(csv_file, tmp_path, capsys, no_training, command):
    lines = csv_file.read_text(encoding="utf-8").splitlines()
    lines[5] = "maybe," + lines[5].split(",", 1)[1]
    three = tmp_path / "three.csv"
    three.write_text("\n".join(lines) + "\n", encoding="utf-8")
    model = tmp_path / "model.json"
    save_model(LinearModel(w=np.zeros(3)), model)
    out = tmp_path / "out"
    argv = [command, "--data", str(three), "--infer-schema", "--label-column", "label",
            "--out-dir", str(out)]
    if command == "attribute":
        argv += ["--model", str(model), "--target", "model-output"]
    assert main(argv) == 1
    assert ("label column 'label' has 3 values ['maybe', 'no', 'yes']; labels must be binary"
            in capsys.readouterr().err)
    assert not out.exists()


def test_duplicate_csv_header_exit_1(tmp_path, capsys):
    path = tmp_path / "dup.csv"
    path.write_text("a,a,label\n1,10,yes\n2,20,no\n3,30,yes\n", encoding="utf-8")
    rc = main(["train", "--data", str(path), "--infer-schema", "--label-column", "label",
               "--out-dir", str(tmp_path / "run")])
    assert rc == 1
    assert "column 'a' appears more than once in the header" in capsys.readouterr().err


def test_schema_column_missing_from_csv_exit_1(csv_file, tmp_path, capsys):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({
        "label_column": "label",
        "columns": [["color", "categorical"], ["amount", "numeric"], ["zz", "numeric"]],
    }), encoding="utf-8")
    rc = main(["train", "--data", str(csv_file), "--schema", str(schema),
               "--out-dir", str(tmp_path / "run")])
    assert rc == 1
    assert ("schema columns ['zz'] not in header ['label', 'color', 'amount']"
            in capsys.readouterr().err)


# --- compare ----------------------------------------------------------------------

def test_compare_outputs_and_determinism(synth_json, tmp_path, capsys):
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    argv = ["compare", "--data", str(synth_json), "--epochs", "4",
            "--eps-list", "0.1,0.3", "--lam-list", "0.02",
            "--dataset-id", "toy"]
    assert main(argv + ["--out-dir", str(out1)]) == 0
    stdout = capsys.readouterr().out
    assert "natural" in stdout and "adversarial(eps=0.1)" in stdout
    for name in ("report.json", "table.csv", "distributions.csv", "tradeoff.csv"):
        assert (out1 / name).exists()
    rep = json.loads((out1 / "report.json").read_text(encoding="utf-8"))
    assert rep["format_version"] == 1
    assert rep["dataset"] == "toy"
    assert rep["toolkit_version"] == __version__
    assert set(rep["regimes"]) == {"natural", "adversarial(eps=0.1)",
                                   "adversarial(eps=0.3)", "l1(lam=0.02)"}
    assert "workers" not in rep
    table = (out1 / "table.csv").read_text(encoding="utf-8").splitlines()
    assert table[0] == "dataset,attr,model,dG,AcDrop"
    assert table[1] == "toy,ig-closed,natural,0.0,0.0"

    assert main(argv + ["--out-dir", str(out2)]) == 0
    for name in ("table.csv", "distributions.csv", "tradeoff.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    rep2 = json.loads((out2 / "report.json").read_text(encoding="utf-8"))
    rep.pop("runtime_seconds")
    rep2.pop("runtime_seconds")
    assert rep == rep2


@pytest.mark.parametrize("make_csv, label, positive, drop_limit_pp", [
    (make_categorical_csv, "class", "p", 5.0),
    (make_numeric_csv, "label", "1", 3.0),
])
def test_compare_tabular_stand_in(tmp_path, capsys, make_csv, label, positive, drop_limit_pp):
    # hermetic stand-ins for the two tabular benchmark reproductions, each
    # under its benchmark's accuracy-drop limit: an all-categorical and an
    # all-numeric CSV through --infer-schema, one-hot encoding and compare;
    # the eps=0.1 model's attributions are sparser than the natural model's
    # (dG +0.053 with a 1.0-point drop, and +0.0068 with a -0.22-point drop)
    data = make_csv(tmp_path / "data.csv")
    argv = ["compare", "--data", data, "--infer-schema", "--label-column", label,
            "--positive-label", positive]
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    assert main(argv + ["--out-dir", str(out1)]) == 0
    assert main(argv + ["--out-dir", str(out2)]) == 0
    capsys.readouterr()
    rep = json.loads((out1 / "report.json").read_text(encoding="utf-8"))
    adv = rep["gaps"]["adversarial(eps=0.1)"]
    assert adv["gini_gap"] > 0.0
    assert adv["accuracy_drop_pct"] <= drop_limit_pp
    for name in ("table.csv", "distributions.csv", "tradeoff.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    rep2 = json.loads((out2 / "report.json").read_text(encoding="utf-8"))
    rep.pop("runtime_seconds")
    rep2.pop("runtime_seconds")
    assert rep == rep2


def test_compare_divergence_names_the_model_exit_2(synth_json, tmp_path, capsys):
    # the linear fits train as one stack; only the eps=1e7 model's objective
    # explodes, and the error names it
    rc = main(["compare", "--data", str(synth_json), "--epochs", "2", "--optimizer", "sgd",
               "--lr", "1", "--eps-list", "0.1,1e7", "--lam-list", "0.02",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "training diverged: adversarial(eps=1e+07):" in err and "at step 1" in err


_TOP_EPS = float(np.finfo(float).max / 2)  # the largest eps whose 2 * eps is finite
_PAST_TOP_EPS = repr(float(np.nextafter(_TOP_EPS, np.inf)))


@pytest.mark.parametrize("argv", [
    ["train", "--regime", "adversarial", "--eps", "1e308"],
    ["train", "--regime", "adversarial", "--eps", _PAST_TOP_EPS],
    ["compare", "--method", "numeric", "--eps-list", "0.1,1e308"],
    ["compare", "--method", "numeric", "--eps-list", "0.1," + _PAST_TOP_EPS],
])
def test_mlp_pgd_work_is_bounded_exit_1(synth_json, tmp_path, capsys, monkeypatch, argv):
    # PGD draws its start from the box [-eps, eps]; an eps whose width 2 * eps
    # is not finite exits 1 before any PGD is set up, with one line and no output
    def no_pgd(*args, **kwargs):
        raise AssertionError("set up PGD for an eps past the bound")

    monkeypatch.setattr("attrsparse.training.default_pgd_config", no_pgd)
    out = tmp_path / "run"
    rc = main([argv[0], "--data", str(synth_json), "--model", "mlp", "--epochs", "1",
               *argv[1:], "--out-dir", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("attrsparse: error: epsilon "), err
    assert err[0].endswith("is too large for PGD: the box width 2 * epsilon is not finite"), err
    assert not out.exists()


@pytest.mark.parametrize("argv, rc", [
    (["train", "--regime", "adversarial", "--eps", "5e-324"], 0),
    (["train", "--regime", "adversarial", "--eps", "9.91"], 0),
    (["train", "--regime", "adversarial", "--eps", "1e9"], 2),
    (["train", "--regime", "adversarial", "--eps", repr(_TOP_EPS)], 2),
    (["compare", "--method", "numeric", "--eps-list", "0.1,9.91"], 0),
    (["compare", "--method", "numeric", "--eps-list", "0.1,1e9"], 2),
])
def test_mlp_pgd_takes_any_eps_with_a_finite_box(synth_json, tmp_path, capsys, argv, rc):
    # PGD's work per batch is the same for every eps > 0, so any eps with a
    # finite box trains; one that makes the objective explode exits 2 naming
    # its model
    out = tmp_path / "run"
    assert main([argv[0], "--data", str(synth_json), "--model", "mlp", "--epochs", "1",
                 *argv[1:], "--out-dir", str(out)]) == rc
    err = capsys.readouterr().err.splitlines()
    if rc == 0:
        assert err == [] and out.exists()
    else:
        eps = float(argv[-1].split(",")[-1])
        assert len(err) == 1 and err[0].startswith(
            f"attrsparse: training diverged: adversarial(eps={eps:g}):"), err


def test_compare_overflow_prints_only_the_diagnosis(synth_json, tmp_path, capsys):
    # eps = 1e308 overflows the eps-box term; the non-finite objective is
    # reported by the divergence check, with no NumPy warning before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["compare", "--data", str(synth_json), "--eps-list", "1e308",
                   "--lam-list", "0.01", "--epochs", "1", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "attrsparse: training diverged: adversarial(eps=1e+308):"), err


def test_compare_empty_eps_list(synth_json, tmp_path):
    out = tmp_path / "c"
    rc = main(["compare", "--data", str(synth_json), "--epochs", "3",
               "--eps-list", "", "--out-dir", str(out)])
    assert rc == 0
    rep = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert set(rep["regimes"]) == {"natural", "l1(lam=0.02)"}


def test_compare_records_negative_zero_sweep_values_as_zero(synth_json, tmp_path):
    out = tmp_path / "c"
    assert main(["compare", "--data", str(synth_json), "--epochs", "1",
                 "--eps-list", "-0", "--lam-list", "-0", "--out-dir", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text(encoding="utf-8"))
    configs = [rep["regimes"][tag]["config"] for tag in ("adversarial(eps=0)", "l1(lam=0)")]
    assert repr((configs[0]["epsilon"], configs[1]["l1_strength"])) == "(0.0, 0.0)"
    rows = (out / "tradeoff.csv").read_text(encoding="utf-8").splitlines()
    params = [row.split(",")[:2] for row in rows[1:]]
    assert params[1:] == [["adversarial(eps=0)", "0.0"], ["l1(lam=0)", "0.0"]]


def test_compare_dataset_id_defaults_to_file_stem(synth_json, tmp_path):
    out = tmp_path / "c"
    rc = main(["compare", "--data", str(synth_json), "--epochs", "2",
               "--eps-list", "", "--lam-list", "", "--out-dir", str(out)])
    assert rc == 0
    rep = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert rep["dataset"] == "toy"


@pytest.fixture
def no_training(monkeypatch):
    """Fails the test if compare starts to train anything."""
    def refuse(*args, **kwargs):
        raise AssertionError("a model was trained")
    monkeypatch.setattr("attrsparse.pipeline.train_many", refuse)


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_compare_rejects_steps_below_one_before_training(synth_json, tmp_path, capsys,
                                                          no_training, steps):
    for method, message in (("numeric", f"steps must be >= 1, got {steps}"),
                            ("closed", "--steps applies to the numeric method only")):
        rc = main(["compare", "--data", str(synth_json), "--method", method,
                   "--steps", steps, "--out-dir", str(tmp_path)])
        assert rc == 1
        assert message in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_compare_closed_form_rejects_mlp_before_training(synth_json, tmp_path, capsys,
                                                         no_training):
    rc = main(["compare", "--data", str(synth_json), "--model", "mlp",
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "closed form applies to linear models only" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("flag, values, named", [
    ("--eps-list", "0.1,0.1000001", "0.1 and 0.1000001"),
    ("--eps-list", "0.1,0.1", "0.1 and 0.1"),
    ("--lam-list", "0.05,0.2,0.0500000001", "0.05 and 0.0500000001"),
    # -0 is 0: TrainConfig stores it as +0.0, so both values name one model
    ("--eps-list", "0,-0", "0.0 and -0.0"),
    ("--lam-list", "0,-0", "0.0 and -0.0"),
])
def test_compare_rejects_colliding_sweep_values_before_training(synth_json, tmp_path, capsys,
                                                                no_training, flag, values,
                                                                named):
    rc = main(["compare", "--data", str(synth_json), flag, values, "--out-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"sweep values {named} both name the model" in err
    assert not (tmp_path / "report.json").exists()


@pytest.fixture
def one_example(tmp_path):
    """A one-example dataset: its 70/30 split holds no test row."""
    path = tmp_path / "one.json"
    assert main(["synth", "gaussian", "--out", str(path), "--n", "1"]) == 0
    assert load_dataset(path).test_indices.size == 0
    return path


def test_train_rejects_an_empty_test_split_before_training(one_example, tmp_path, capsys,
                                                          monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a model was trained")
    monkeypatch.setattr("attrsparse.cli.train", refuse)
    capsys.readouterr()
    out = tmp_path / "run"
    assert main(["train", "--data", str(one_example), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{one_example}: the test split is empty (the 70/30 split of n = 1" in err
    assert not out.exists()


def test_attribute_rejects_an_empty_split_before_writing(one_example, tmp_path, capsys):
    model = tmp_path / "m.json"
    save_model(LinearModel(w=np.full(load_dataset(one_example).dim, 0.5)), model)
    capsys.readouterr()
    out = tmp_path / "run"
    argv = ["attribute", "--data", str(one_example), "--model", str(model), "--out-dir", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{one_example}: the test split is empty (the 70/30 split of n = 1 examples " \
           "holds out none)" in err
    assert not out.exists()
    # the training split of the same file holds its one example
    assert main(argv + ["--split", "train"]) == 0
    assert len((out / "attributions.csv").read_text().splitlines()) == 2


def test_compare_rejects_an_empty_test_split_before_training(one_example, tmp_path, capsys,
                                                            no_training):
    capsys.readouterr()
    out = tmp_path / "run"
    assert main(["compare", "--data", str(one_example), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    # run_compare checks it, naming the dataset id: the file's basename by default
    assert "one: the test split is empty (the 70/30 split of n = 1" in err
    assert not out.exists()
    with pytest.raises(ValueError, match="^lib: the test split is empty"):
        run_compare(load_dataset(one_example), losses.make_loss("logistic-nll"), [0.1], [0.1],
                    TrainConfig(), dataset_id="lib")


@pytest.mark.parametrize("key", ["regime", "eps", "epsilon", "lam", "l1_strength"])
def test_compare_rejects_single_fit_config_keys(synth_json, tmp_path, capsys, no_training, key):
    # the config-file twin of the flags below: compare sets them per fit
    cfg = tmp_path / "cfg.json"
    doc = {"regime": "l1", "eps": 3, "lam": 0.5}
    cfg.write_text(json.dumps({"epochs": 2, key: doc[_CONFIG_ALIASES.get(key, key)]}),
                   encoding="utf-8")
    rc = main(["compare", "--data", str(synth_json), "--config", str(cfg),
               "--out-dir", str(tmp_path / "run")])
    assert rc == 1
    assert f"config key {key!r} does not apply to compare" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flags", [
    ["--regime", "l1"], ["--eps", "3"], ["--lam", "0.5"],
    ["--regime", "l1", "--lam", "0.5", "--eps", "3"],
])
def test_compare_rejects_single_fit_flags(synth_json, tmp_path, capsys, no_training, flags):
    # compare sets each fit's regime and strength from --eps-list and --lam-list
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--data", str(synth_json), *flags, "--out-dir", str(tmp_path)])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


# --- attribute --------------------------------------------------------------------

def test_attribute_outputs(synth_json, trained_model, tmp_path):
    out = tmp_path / "attr"
    rc = main(["attribute", "--data", str(synth_json), "--model",
               str(trained_model), "--out-dir", str(out)])
    assert rc == 0
    lines = (out / "attributions.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "example_id,f0,f1,f2,f3,completeness_residual"
    ds = load_dataset(synth_json)
    assert len(lines) == 1 + ds.test_indices.size
    first = lines[1].split(",")
    assert int(first[0]) == int(ds.test_indices[0])
    assert float(first[-1]) <= 1e-12  # closed form is complete
    values = (out / "impact_values.csv").read_text(encoding="utf-8").splitlines()
    assert values[0] == "f0,f1,f2,f3"
    assert len(values) == 2
    features = (out / "impact_features.csv").read_text(encoding="utf-8").splitlines()
    assert features[0] == "f0,f1,f2,f3"  # all-numeric columns map one to one
    np.testing.assert_allclose(
        [float(v) for v in values[1].split(",")],
        [float(v) for v in features[1].split(",")], rtol=0, atol=0)


def test_attribute_numeric_converges_to_closed(synth_json, trained_model, tmp_path):
    closed, numeric = tmp_path / "c", tmp_path / "n"
    base = ["attribute", "--data", str(synth_json), "--model", str(trained_model)]
    assert main(base + ["--out-dir", str(closed)]) == 0
    assert main(base + ["--method", "numeric", "--steps", "4096",
                        "--out-dir", str(numeric)]) == 0

    def read(path):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        return np.asarray([[float(v) for v in row[1:-1]] for row in rows])

    a = read(closed / "attributions.csv")
    b = read(numeric / "attributions.csv")
    assert np.abs(a - b).max() <= 1e-6


def test_attribute_image_grids(tmp_path):
    data = tmp_path / "img.json"
    assert main(["synth", "blobs", "--out", str(data), "--n", "40",
                 "--height", "2", "--width", "2", "--seed", "1"]) == 0
    run = tmp_path / "run"
    assert main(["train", "--data", str(data), "--epochs", "3",
                 "--out-dir", str(run)]) == 0
    out = tmp_path / "attr"
    rc = main(["attribute", "--data", str(data), "--model", str(run / "model.json"),
               "--image-shape", "2x2", "--out-dir", str(out)])
    assert rc == 0
    ds = load_dataset(data)
    pgms = sorted(out.glob("attr_*.pgm"))
    assert len(pgms) == ds.test_indices.size
    assert pgms[0].name == f"attr_{int(ds.test_indices[0]):06d}.pgm"
    first = pgms[0].read_text(encoding="ascii").splitlines()
    assert first[0] == "P2" and first[1] == "2 2" and first[2] == "255"
    # wrong grid size is a configuration error
    rc = main(["attribute", "--data", str(data), "--model", str(run / "model.json"),
               "--image-shape", "3x2", "--out-dir", str(out)])
    assert rc == 1


@pytest.mark.parametrize("shape", ["3x3", "8x8x2", "-2x-5", "0x4", "2x", "2*2", "axb"])
def test_attribute_rejects_bad_image_shape_before_attributing(synth_json, trained_model,
                                                              tmp_path, capsys, monkeypatch,
                                                              shape):
    def refuse(*args, **kwargs):
        raise AssertionError("attributed before rejecting the shape")

    monkeypatch.setattr("attrsparse.cli.attribute_dataset", refuse)
    out = tmp_path / "attr"
    argv = ["attribute", "--data", str(synth_json), "--model", str(trained_model),
            f"--image-shape={shape}", "--out-dir", str(out)]
    try:
        rc = main(argv)
    except SystemExit as exc:  # a malformed shape is an argument error
        rc = exc.code
    assert rc == 1
    assert "--image-shape" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "thm3", "--seed", "-1"],
    ["synth", "gaussian", "--out", "toy.json", "--seed", "-2"],
    ["train", "--data", "toy.json", "--seed", "-3"],
    ["train", "--data", "toy.json", "--split-seed", "-4"],
    ["compare", "--data", "toy.json", "--split-seed", "x"],
], ids=["verify", "synth", "train", "split", "split-not-int"])
def test_bad_seed_is_rejected_at_its_flag(argv, tmp_path, monkeypatch, capsys):
    # numpy's generators take no negative seed; the flag names itself and
    # its value before anything runs
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    flag, value = argv[-2:]
    assert f"argument {flag}: expected an integer >= 0, got '{value}'" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_attribute_closed_rejects_mlp(synth_json, tmp_path, capsys):
    run = tmp_path / "mlp"
    assert main(["train", "--data", str(synth_json), "--model", "mlp",
                 "--hidden", "4", "--epochs", "2", "--out-dir", str(run)]) == 0
    rc = main(["attribute", "--data", str(synth_json),
               "--model", str(run / "model.json"), "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "linear" in capsys.readouterr().err
    rc = main(["attribute", "--data", str(synth_json),
               "--model", str(run / "model.json"), "--method", "numeric",
               "--out-dir", str(tmp_path)])
    assert rc == 0


def test_attribute_baseline_file(synth_json, trained_model, tmp_path):
    baseline = tmp_path / "u.json"
    baseline.write_text("[0.5, 0.5, 0.5, 0.5]", encoding="utf-8")
    out = tmp_path / "attr"
    rc = main(["attribute", "--data", str(synth_json), "--model",
               str(trained_model), "--baseline-file", str(baseline),
               "--out-dir", str(out)])
    assert rc == 0
    wrong = tmp_path / "bad.json"
    wrong.write_text("[1.0]", encoding="utf-8")
    rc = main(["attribute", "--data", str(synth_json), "--model",
               str(trained_model), "--baseline-file", str(wrong),
               "--out-dir", str(out)])
    assert rc == 1
    # a NaN or infinite entry would make every attribution NaN
    for value in ("NaN", "Infinity"):
        wrong.write_text(f"[{value}, 0.0, 0.0, 0.0]", encoding="utf-8")
        rc = main(["attribute", "--data", str(synth_json), "--model",
                   str(trained_model), "--baseline-file", str(wrong),
                   "--out-dir", str(tmp_path / "nan")])
        assert rc == 1
        assert not (tmp_path / "nan" / "attributions.csv").exists()


@pytest.mark.parametrize("text", ['"abc"', '{"a": 1}', "abc", '["0", 0, 0, 0]', "[1.0]",
                                  "[" + ", ".join(["9" * 400] * 4) + "]",  # past the float range
                                  "[NaN, 0, 0, 0]", "[0, Infinity, 0, 0]", "[0, 0, -Infinity, 0]"])
def test_attribute_baseline_file_must_be_a_list_of_dim_numbers(synth_json, trained_model,
                                                               tmp_path, capsys, text):
    baseline = tmp_path / "u.json"
    baseline.write_text(text, encoding="utf-8")
    out = tmp_path / "attr"
    rc = main(["attribute", "--data", str(synth_json), "--model", str(trained_model),
               "--baseline-file", str(baseline), "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (f"attrsparse: error: --baseline-file {baseline}: the "
                                       "baseline must be a JSON list of 4 numbers\n")
    assert not out.exists()


@pytest.mark.parametrize("method", ["numeric", "closed"])
def test_attribute_names_a_model_data_dimension_mismatch(synth_json, tmp_path, capsys, method):
    # a model fitted on 64 features, given the 4-feature toy data, exits 1
    # naming both dimensions (numeric IG used to fail inside NumPy's matmul)
    blobs = tmp_path / "blobs.json"
    assert main(["synth", "blobs", "--out", str(blobs), "--n", "60"]) == 0
    model = ["--model", "mlp", "--hidden", "3"] if method == "numeric" else []
    assert main(["train", "--data", str(blobs), "--epochs", "1", *model,
                 "--out-dir", str(tmp_path / "m")]) == 0
    capsys.readouterr()
    rc = main(["attribute", "--data", str(synth_json), "--model",
               str(tmp_path / "m" / "model.json"), "--method", method,
               "--out-dir", str(tmp_path / "a")])
    assert rc == 1
    assert "model dimension 64 does not match data dimension 4" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_attribute_rejects_steps_below_one(synth_json, trained_model, tmp_path, capsys, steps):
    for method, message in (("numeric", f"steps must be >= 1, got {steps}"),
                            ("closed", "--steps applies to the numeric method only")):
        rc = main(["attribute", "--data", str(synth_json), "--model", str(trained_model),
                   "--method", method, "--steps", steps, "--out-dir", str(tmp_path)])
        assert rc == 1
        assert message in capsys.readouterr().err
    assert not (tmp_path / "attributions.csv").exists()


@pytest.mark.parametrize("kind, change, message", [
    ("linear", {"format_version": 99}, "unsupported model format_version 99; expected 1"),
    ("linear", {"dim": 7}, "model dim 7 does not match its weights' 4"),
    ("mlp", {"format_version": None}, "unsupported model format_version None; expected 1"),
    ("mlp", {"layer_sizes": [4, 5, 1]}, "model layer_sizes [4, 5, 1] does not match its "
                                        "weights' [4, 3, 1]"),
])
def test_attribute_rejects_inconsistent_model_file(synth_json, trained_model, tmp_path, capsys,
                                                   kind, change, message):
    if kind == "linear":
        doc = json.loads(trained_model.read_text(encoding="utf-8"))
    else:
        save_model(init_mlp([4, 3, 1], np.random.default_rng(0)), tmp_path / "mlp.json")
        doc = json.loads((tmp_path / "mlp.json").read_text(encoding="utf-8"))
    doc.update(change)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "attr"
    rc = main(["attribute", "--data", str(synth_json), "--model", str(bad),
               "--method", "numeric", "--out-dir", str(out)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


# --- gini -------------------------------------------------------------------------

def test_gini_plain_rows(tmp_path, capsys):
    src = tmp_path / "rows.csv"
    src.write_text("3,1,0\n1,1,1,1\n", encoding="utf-8")
    rc = main(["gini", "--input", str(src)])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "0.5"
    assert out[1] == "0.0"
    assert out[2] == "mean_gini 0.25"


def test_gini_reads_attribute_output(synth_json, trained_model, tmp_path, capsys):
    attr_dir = tmp_path / "attr"
    assert main(["attribute", "--data", str(synth_json), "--model",
                 str(trained_model), "--out-dir", str(attr_dir)]) == 0
    rc = main(["gini", "--input", str(attr_dir / "attributions.csv"),
               "--out", str(tmp_path / "g.csv")])
    assert rc == 0
    assert "mean_gini" in capsys.readouterr().out
    lines = (tmp_path / "g.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "row,gini"
    # the id and residual columns must not leak into the computation
    with open(attr_dir / "attributions.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    expected = gini_row(np.abs([float(v) for v in rows[0][1:-1]]))
    assert lines[1] == f"0,{expected!r}"


def test_gini_error_cases(tmp_path, capsys):
    empty = tmp_path / "e.csv"
    empty.write_text("", encoding="utf-8")
    assert main(["gini", "--input", str(empty)]) == 1
    headed = tmp_path / "h.csv"
    headed.write_text("a,b\n", encoding="utf-8")
    assert main(["gini", "--input", str(headed)]) == 1
    assert "no data rows" in capsys.readouterr().err
    mixed = tmp_path / "m.csv"
    mixed.write_text("1,2\n3,oops\n", encoding="utf-8")
    assert main(["gini", "--input", str(mixed)]) == 1
    for cell in ("nan", "inf", "-inf"):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"3,1,0\n1,{cell},1\n", encoding="utf-8")
        assert main(["gini", "--input", str(bad), "--out", str(tmp_path / "g.csv")]) == 1
        assert "data row 1: non-finite cell" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()
    big = tmp_path / "big.csv"  # the second width's second row overflows its sums
    for last, gini in (("1e308,1e308,1e308", "0.0"), ("1e308,1,2", "0.6666666666666666")):
        big.write_text(f"1,2\n1,2,3\n{last}\n", encoding="utf-8")
        assert main(["gini", "--input", str(big)]) == 0
        out = capsys.readouterr()
        assert out.out.splitlines()[:3] == ["0.16666666666666666", "0.2222222222222222", gini]
        assert out.err == ""


# --- verify -----------------------------------------------------------------------

def _verify_doc(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["format_version"] == 1
    assert doc["toolkit_version"] == __version__
    assert "workers" not in doc
    for r in doc["results"]:
        assert set(r) == {"check", "estimate", "reference", "se",
                          "n_samples", "passed", "detail"}
    return doc


def test_verify_zero_update(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(["verify", "thm1-zero", "--n", "20000", "--out", str(out)])
    assert rc == 0
    doc = _verify_doc(out)
    assert doc["check"] == "thm1-zero" and doc["passed"] is True
    assert len(doc["results"]) == 5
    err = capsys.readouterr().err
    assert err.count("[pass]") == 5 and "[FAIL]" not in err


def test_verify_bound_and_lemma(tmp_path):
    out = tmp_path / "r.json"
    assert main(["verify", "thm1-bound", "--n", "20000", "--configs", "2",
                 "--out", str(out)]) == 0
    doc = _verify_doc(out)
    assert [r["check"] for r in doc["results"]] == [
        "weighted-update-bound[0]", "weighted-update-bound[1]"]
    assert main(["verify", "lemmaD1", "--out", str(out)]) == 0
    doc = _verify_doc(out)
    assert doc["results"][0]["check"] == "conditional-expectation-bound"
    assert doc["results"][0]["n_samples"] == 100_000  # the default --n


def test_verify_identity_all_losses_and_forced_failure(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(["verify", "thm3", "--trials", "50", "--out", str(out)])
    assert rc == 0
    doc = _verify_doc(out)
    kinds = [r["check"] for r in doc["results"]]
    assert len(kinds) == 3 and all(k.startswith("worst-case-attribution-identity[")
                                   for k in kinds)
    capsys.readouterr()
    # an impossible tolerance must fail loudly, not quietly pass
    rc = main(["verify", "thm3", "--trials", "50", "--tol", "1e-30",
               "--out", str(out)])
    assert rc == 1
    assert json.loads(out.read_text(encoding="utf-8"))["passed"] is False
    assert "[FAIL]" in capsys.readouterr().err


def _worst_case_eps_dropped(spec, w, bias, X, y, epsilon=0.0):
    return losses.worst_case_slope(spec, w, bias, X, y, 0.0)


def _ig_change_dropped(change, diff, w):
    return attribution.straight_path_ig(np.ones_like(change), diff, w)


@pytest.mark.parametrize("target, fault", [
    ("attrsparse.theory.worst_case_slope", _worst_case_eps_dropped),
    ("attrsparse.theory.straight_path_ig", _ig_change_dropped),
])
def test_verify_identity_fails_on_a_broken_shipped_formula(tmp_path, capsys, monkeypatch,
                                                          target, fault):
    # thm3 runs training's worst case and attribute's closed-form kernel, so
    # a fault in either one must fail it
    assert theory.worst_case_slope is losses.worst_case_slope
    assert theory.straight_path_ig is attribution.straight_path_ig
    monkeypatch.setattr(target, fault)
    out = tmp_path / "r.json"
    assert main(["verify", "thm3", "--trials", "50", "--out", str(out)]) == 1
    doc = _verify_doc(out)
    assert not doc["passed"] and not any(r["passed"] for r in doc["results"])
    assert "[FAIL]" in capsys.readouterr().err


@pytest.mark.parametrize("bug", [TypeError, KeyError])
def test_program_bug_in_a_command_is_not_reported_as_bad_input(monkeypatch, capsys, bug):
    def broken(trials, seed):
        raise bug("a program bug")

    monkeypatch.setattr("attrsparse.theory.theorem3_instances", broken)
    with pytest.raises(bug, match="a program bug"):
        main(["verify", "thm3", "--trials", "5"])
    assert "attrsparse: error:" not in capsys.readouterr().err


def test_verify_stdout_and_determinism(tmp_path, capsys):
    rc = main(["verify", "thm3", "--trials", "20", "--loss", "logistic-nll"])
    assert rc == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["check"] == "thm3" and len(doc["results"]) == 1
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "thm1-zero", "--n", "20000", "--out", str(a)]) == 0
    assert main(["verify", "thm1-zero", "--n", "20000", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_thread_env_does_not_change_bytes(tmp_path, monkeypatch):
    reports = []
    for threads in ("1", "2", "4"):
        monkeypatch.setenv("ATTRSPARSE_THREADS", threads)
        out = tmp_path / f"t{threads}.json"
        assert main(["verify", "thm1-zero", "--n", "200000", "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]


def test_verify_lemma_thread_env_does_not_change_bytes(tmp_path, monkeypatch):
    # 150k samples span three Monte-Carlo chunks
    reports = []
    for threads in ("1", "2", "4"):
        monkeypatch.setenv("ATTRSPARSE_THREADS", threads)
        out = tmp_path / f"t{threads}.json"
        assert main(["verify", "lemmaD1", "--n", "150000", "--seed", "3", "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]


def test_verify_bound_thread_env_does_not_change_bytes(tmp_path, monkeypatch):
    # 140k samples span three Monte-Carlo chunks per configuration
    argv = ["verify", "thm1-bound", "--n", "140000", "--configs", "2", "--seed", "5"]
    reports = []
    for threads in ("1", "2", "4"):
        monkeypatch.setenv("ATTRSPARSE_THREADS", threads)
        out = tmp_path / f"t{threads}.json"
        assert main([*argv, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]


def _benchmark_workloads():
    """The benchmark's workload definitions (perfbench/workloads.py), imported unedited."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_verify_workload_passes_its_own_check(tmp_path, monkeypatch):
    # the benchmark's toy verify-mc operation through main at 2 threads, held
    # to that workload's own check() against a 1-thread reference, as the
    # benchmark holds it: a verify change that fails the benchmark's
    # correctness gate fails here
    workloads = _benchmark_workloads()
    verify_mc = workloads.make_workloads(toy=True)["verify-mc"]
    reference = {}
    for threads, out in (("1", tmp_path / "reference"), ("2", tmp_path / "out")):
        out.mkdir()
        monkeypatch.setenv("ATTRSPARSE_THREADS", threads)
        rcs = [workloads.call_cli(main, argv)[0]
               for argv in verify_mc.op_argvs(str(tmp_path), str(out), 3)]
        if not reference:
            reference = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(reference) == 4
    observed = types.SimpleNamespace(reference=reference)
    assert verify_mc.check(str(out), rcs, observed) == []


@pytest.mark.parametrize("threads", ["0", "-2", "two", "1.5", " "])
@pytest.mark.parametrize("check", ["thm1-zero", "thm1-bound", "lemmaD1"])
def test_verify_rejects_bad_thread_env(tmp_path, monkeypatch, capsys, check, threads):
    # a typo must not quietly run the Monte-Carlo checks on one thread
    monkeypatch.setenv("ATTRSPARSE_THREADS", threads)
    out = tmp_path / "report.json"
    assert main(["verify", check, "--n", "20000", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"ATTRSPARSE_THREADS must be an integer >= 1, got {threads!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("check", ["thm1-zero", "thm1-bound", "lemmaD1"])
def test_verify_n_past_the_maximum_exits_1_before_any_draw(tmp_path, capsys, check):
    # 10**15 samples would be about 1.5e10 chunks, each listed before any draw
    out = tmp_path / "r.json"
    assert main(["verify", check, "--n", str(10**15), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("attrsparse: error: n must be <= 4294967296 for one "
                                       f"run, got {10**15}\n")
    assert not out.exists()


def test_verify_empty_thread_env_means_unset(tmp_path, monkeypatch):
    empty, unset = tmp_path / "empty.json", tmp_path / "unset.json"
    monkeypatch.setenv("ATTRSPARSE_THREADS", "")
    assert main(["verify", "thm1-zero", "--n", "20000", "--out", str(empty)]) == 0
    monkeypatch.delenv("ATTRSPARSE_THREADS")
    assert main(["verify", "thm1-zero", "--n", "20000", "--out", str(unset)]) == 0
    assert empty.read_bytes() == unset.read_bytes()


@pytest.mark.parametrize("argv, message", [
    (["thm3", "--trials", "0"], "--trials must be >= 1, got 0"),
    (["thm3", "--trials", "-3"], "--trials must be >= 1, got -3"),
    (["thm1-bound", "--configs", "0"], "--configs must be >= 1, got 0"),
    (["lemmaD1", "--n", "5"], "n must be >= 10000 for reported estimates, got 5"),
    (["thm1-bound", "--n", "9999"], "n must be >= 10000 for reported estimates, got 9999"),
    (["thm1-bound", "--eps", "-0.5"], "--eps must be a finite number >= 0, got -0.5"),
    (["lemmaD1", "--eps", "nan"], "--eps must be a finite number >= 0, got nan"),
    # an infinite tolerance passes every residual, a NaN one fails every one
    (["thm3", "--tol", "inf"], "--tol must be a finite number >= 0, got inf"),
    (["thm3", "--tol", "nan"], "--tol must be a finite number >= 0, got nan"),
    (["thm3", "--tol=-1e-09"], "--tol must be a finite number >= 0, got -1e-09"),
    # no strengths: no coordinates to check, or no Z to draw
    (["thm1-zero", "--strengths", ","], "strengths must be one or more finite numbers, got ()"),
    (["lemmaD1", "--strengths", ","], "strengths must be one or more finite numbers, got ()"),
    (["thm1-zero", "--strengths", "0.5,inf"],
     "strengths must be one or more finite numbers, got (0.5, inf)"),
    (["thm1-zero", "--noise-sd", "nan"], "noise_sd must be a finite number >= 0, got nan"),
    (["thm1-bound", "--noise-sd", "-1"], "noise_sd must be a finite number >= 0, got -1.0"),
    (["lemmaD1", "--noise-sd", "inf"], "noise_sd must be a finite number >= 0, got inf"),
    # a sampler flag the check does not read is an error, not ignored
    (["thm1-bound", "--strengths", "5,5"], "--strengths does not apply to verify thm1-bound"),
    (["thm3", "--noise-sd", "3"], "--noise-sd does not apply to verify thm3"),
    # a size flag the check does not read is an error too, whatever its value
    (["thm3", "--n", "5"], "--n does not apply to verify thm3"),
    (["thm3", "--eps", "7"], "--eps does not apply to verify thm3"),
    (["thm3", "--configs", "0"], "--configs does not apply to verify thm3"),
    (["thm3", "--trials", "10", "--n", "5", "--eps", "7", "--configs", "0"],
     "--configs does not apply to verify thm3"),
    (["thm1-zero", "--trials", "0"], "--trials does not apply to verify thm1-zero"),
    (["thm1-zero", "--tol", "5"], "--tol does not apply to verify thm1-zero"),
    (["thm1-zero", "--eps", "0.3"], "--eps does not apply to verify thm1-zero"),
    (["thm1-zero", "--n", "20000", "--trials", "0", "--tol", "5"],
     "--tol does not apply to verify thm1-zero"),
    (["thm1-bound", "--tol", "1e-3"], "--tol does not apply to verify thm1-bound"),
    (["lemmaD1", "--configs", "2"], "--configs does not apply to verify lemmaD1"),
    (["thm3", "--loss", "all", "--strengths", "1"], "--strengths does not apply to verify thm3"),
    (["thm1-zero", "--loss", "all"], "unknown loss kind 'all'"),
])
def test_verify_rejects_vacuous_sizes_before_sampling(tmp_path, capsys, monkeypatch,
                                                       argv, message):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before rejecting its arguments")

    monkeypatch.setattr("attrsparse.data.SyntheticConditionalSampler.sample", no_sampling)
    monkeypatch.setattr("attrsparse.theory.theorem3_instances", no_sampling)
    out = tmp_path / "r.json"
    assert main(["verify", *argv, "--out", str(out)]) == 1
    assert f"attrsparse: error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_verify_lemma_with_a_saturated_slope_has_no_evidence(tmp_path, capsys):
    # at eps = 100 logistic g' saturates, so f is 1 on every sample and the
    # bound holds with equality by construction: exit 1 naming --eps, no
    # report. At this n the reported se is rounding residue (about 1e-10),
    # not 0, so only f's own spread shows it. thm1-bound keeps a spread at
    # the same eps and still runs
    out = tmp_path / "r.json"
    assert main(["verify", "lemmaD1", "--eps", "100", "--n", "10000", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("attrsparse: error: --eps 100: "), err
    assert not out.exists()
    assert main(["verify", "thm1-bound", "--eps", "100", "--n", "10000", "--configs", "1",
                 "--out", str(out)]) == 0
    assert _verify_doc(out)["results"][0]["se"] > 0.0


def _readme_flag_table():
    """README's "flags read (default)" table: {(command, row): {flag: the
    parenthesis after it, or None}}."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    table = {}
    for line in lines:
        row = re.fullmatch(r"\| `(verify|synth) ([\w-]+)` \| (.*) \|", line)
        if row:
            cells = re.findall(r"`--([\w-]+)`(?: \(([^)]*)\))?", row.group(3))
            table[row.group(1), row.group(2)] = {flag.replace("-", "_"): shown or None
                                                 for flag, shown in cells}
    return table


def _shows(shown, default):
    """Whether README's parenthesis shows the table's default."""
    if default is None:  # the sampler's own default, named once per row
        return shown in (None, "sampler", "blob_sampler")
    if isinstance(default, tuple):
        return tuple(float(v) for v in shown.split(",")) == default
    if isinstance(default, str):
        return shown.split(":")[0] == default
    return float(shown) == default


def test_readme_flag_table_matches_the_code():
    # each verify check's row (theory.CHECKS) and each synth kind's row lists
    # exactly the flags the code reads, each with the code's default
    code = {("verify", name): defaults for name, (defaults, _) in CHECKS.items()}
    code.update((("synth", kind), row) for kind, row in _READS["synth"].items())
    readme = _readme_flag_table()
    assert sorted(readme) == sorted(code)
    for key, defaults in code.items():
        assert sorted(readme[key]) == sorted(defaults), key
        for flag, default in defaults.items():
            assert _shows(readme[key][flag], default), (key, flag, readme[key][flag], default)


def test_verify_hinge_with_uniform_noise(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["verify", "thm1-zero", "--n", "20000", "--loss", "hinge",
               "--noise-kind", "uniform", "--out", str(out)])
    assert rc == 0
    assert _verify_doc(out)["passed"] is True
