"""Golden outputs: sha256 pins of the CLI's deterministic artifacts.

Each case runs one subcommand on small seeded inputs and hashes the files it
writes, and the two ``synth`` inputs are hashed too, so any change to the
synthetic data, training, perturbation, attribution or Monte-Carlo arithmetic
shows up as a changed byte. The wall-clock ``runtime_seconds`` field
is dropped from ``report.json`` before hashing; every other byte is pinned.

The pins hold for the NumPy build they were computed with: its BLAS rounds the
matrix products, and its vectorised exp and log1p (which the MLP's softplus
runs on) round differently from the C library's; another build can change
them. To re-pin after an intended output change, run
``python tests/test_golden.py``: it prints the new GOLDEN to stdout, which is
pasted over GOLDEN, and names on stderr each key whose digest differs from
GOLDEN. Say in CHANGES.md which outputs changed and why.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from attrsparse.cli import main

# (case, argv template); {data}, {blobs}, {model}, {linear}, {root} and {out}
# are filled in; a case that names no {out} file writes into --out-dir
_SYNTH = [
    ("toy.json", ["synth", "gaussian", "--n", "240", "--seed", "3",
                  "--strengths", "1.0,0.4,0.1,0.05,0.05,0.0"]),
    ("blobs.json", ["synth", "blobs", "--n", "160", "--height", "4", "--width", "4",
                    "--seed", "2"]),
]

CASES = [
    ("compare-linear", ["compare", "--data", "{data}", "--eps-list", "0.05,0.2",
                        "--lam-list", "0.01,0.05", "--epochs", "6", "--use-bias"]),
    ("compare-mlp", ["compare", "--data", "{blobs}", "--model", "mlp", "--hidden", "6",
                     "--epochs", "3", "--eps-list", "0.1", "--lam-list", "0.05",
                     "--method", "numeric", "--steps", "24"]),
    ("compare-mlp-relu", ["compare", "--data", "{blobs}", "--model", "mlp", "--hidden", "6",
                          "--hidden-activation", "relu", "--epochs", "3", "--eps-list", "0.1",
                          "--lam-list", "0.05", "--method", "numeric", "--steps", "24"]),
    ("train-mlp-adversarial", ["train", "--data", "{blobs}", "--model", "mlp",
                               "--hidden", "6,4", "--regime", "adversarial", "--eps", "0.1",
                               "--epochs", "3", "--seed", "1"]),
    ("train-linear-l1", ["train", "--data", "{data}", "--regime", "l1", "--lam", "0.05",
                         "--epochs", "6", "--optimizer", "sgd", "--lr", "0.1"]),
    ("train-linear-adversarial-hinge", ["train", "--data", "{data}", "--regime",
                                        "adversarial", "--eps", "0.1", "--epochs", "6",
                                        "--loss", "hinge", "--use-bias"]),
    ("attribute-mlp-numeric", ["attribute", "--data", "{blobs}", "--model", "{model}",
                               "--method", "numeric", "--steps", "24"]),
    ("attribute-linear-closed", ["attribute", "--data", "{data}", "--model", "{linear}"]),
    ("attribute-linear-closed-model-output", ["attribute", "--data", "{data}",
                                              "--model", "{linear}",
                                              "--target", "model-output"]),
    ("gini-attributions", ["gini", "--input", "{root}/attribute-linear-closed/attributions.csv",
                           "--out", "{out}/gini.csv"]),
    ("verify-lemmaD1-gaussian", ["verify", "lemmaD1", "--n", "20000", "--seed", "4",
                                 "--out", "{out}/report.json"]),
    ("verify-lemmaD1-uniform", ["verify", "lemmaD1", "--n", "20000", "--seed", "5",
                                "--noise-kind", "uniform", "--noise-sd", "0.5",
                                "--balance", "0.3", "--eps", "0.2",
                                "--out", "{out}/report.json"]),
    ("verify-lemmaD1-hinge", ["verify", "lemmaD1", "--n", "20000", "--seed", "6",
                              "--loss", "hinge", "--noise-kind", "uniform",
                              "--strengths", "0.9,0.2,-0.1",
                              "--out", "{out}/report.json"]),
    ("verify-thm1-bound", ["verify", "thm1-bound", "--n", "70000", "--configs", "2",
                           "--seed", "3", "--out", "{out}/report.json"]),
    ("verify-thm1-bound-uniform", ["verify", "thm1-bound", "--n", "20000", "--configs", "2",
                                   "--seed", "4", "--loss", "softplus-hinge",
                                   "--noise-kind", "uniform", "--balance", "0.3",
                                   "--eps", "0.2", "--out", "{out}/report.json"]),
    ("verify-thm1-zero-gaussian", ["verify", "thm1-zero", "--n", "20000", "--seed", "1",
                                   "--out", "{out}/report.json"]),
    ("verify-thm1-zero-hinge", ["verify", "thm1-zero", "--n", "20000", "--seed", "2",
                                "--loss", "hinge", "--noise-kind", "uniform",
                                "--out", "{out}/report.json"]),
    ("verify-thm3-all", ["verify", "thm3", "--trials", "300", "--seed", "7",
                         "--out", "{out}/report.json"]),
    ("verify-thm3-hinge", ["verify", "thm3", "--trials", "200", "--seed", "8",
                           "--loss", "hinge", "--out", "{out}/report.json"]),
]

GOLDEN = {
    'attribute-linear-closed-model-output/attributions.csv': '1a1c99e0f6b0aa0e1c397721f242fd71c42e393542c14e80802345d7d1d0558c',
    'attribute-linear-closed-model-output/impact_features.csv': 'be6d9573d0512ec1653df65232402e644bd98e919df784415aa69092221e6984',
    'attribute-linear-closed-model-output/impact_values.csv': 'be6d9573d0512ec1653df65232402e644bd98e919df784415aa69092221e6984',
    'attribute-linear-closed/attributions.csv': 'dae8eb6b090edc1a6da64897ea46526a882e8ed6727cb0a549d90a3bf7b996de',
    'attribute-linear-closed/impact_features.csv': 'be6d9573d0512ec1653df65232402e644bd98e919df784415aa69092221e6984',
    'attribute-linear-closed/impact_values.csv': 'be6d9573d0512ec1653df65232402e644bd98e919df784415aa69092221e6984',
    'attribute-mlp-numeric/attributions.csv': 'f68184b963255728210823791b306a9fe7016e0bcee742976f5afc5f0ebf8990',
    'attribute-mlp-numeric/impact_features.csv': 'e6046ac54cebcd3fe90f7614c04d6b6287e970deb69e8610673fce7b2a6810fe',
    'attribute-mlp-numeric/impact_values.csv': 'e6046ac54cebcd3fe90f7614c04d6b6287e970deb69e8610673fce7b2a6810fe',
    'blobs.json': 'bf0b6782cbfd0d9ed23c2de301f11ab8414fbc19ea612dd81b64020654d1a417',
    'compare-linear/distributions.csv': '593bfd4f32ae07d63f6ffdd548d1668665c39959b77f4856368d05d74af02044',
    'compare-linear/report.json': 'a6feaf2bf40163917c050308062f71c6a68bd02e63399cd6947b40b570256c92',
    'compare-linear/table.csv': '149e39f9ec595e3938d5c2a99137e11d8af53d172dfa8b211793a7a330fe89ec',
    'compare-linear/tradeoff.csv': '5bf1d448601072480abed30fd4128b5496721dfa80117538a1986665ca26b1a7',
    'compare-mlp-relu/distributions.csv': 'd83e1ea1bb38f325041746185f69fd24891cb485cdc93492108acd5c00a2e7ae',
    'compare-mlp-relu/report.json': 'fd0c60b4c0ebda264384ad327da89f4258065a089cfc3b849256838d6e0543f7',
    'compare-mlp-relu/table.csv': '69eb94da4df82c02ad36ad3ff4ebcafd6db258f43d18d0cadd1b1c01d1503046',
    'compare-mlp-relu/tradeoff.csv': 'b312cfc27649d4a3a7729494e89d7f360b8a50b1b99b9593b85e9ec698eef8bf',
    'compare-mlp/distributions.csv': 'b88d0b5f399ce45f33b1b495d52fe3efffc0fdcad4ddbf34cd82b3058b5a4a34',
    'compare-mlp/report.json': '301abf1b1b52649a3d8fd18691744109a3c21b64714d14406814dee0d7cd2701',
    'compare-mlp/table.csv': '45287da3ca1fe563e2169a019c154f8c7434beeeb45fccd1ba47add78dcc95b0',
    'compare-mlp/tradeoff.csv': '6dd64536f338d91463e39ec46de74f14f5c6268be69449eced4cd79ca741b992',
    'gini-attributions/gini.csv': '075b78e35b35310e9bc45d4f36eab0243ea4f46ea43aac824ed33ca6184a8f67',
    'toy.json': 'f8bb0e542d4d57c059dc97c94158d73039d66bbaedded0bb5704ffaaef4e10e0',
    'train-linear-adversarial-hinge/model.json': 'ac715f4f7d290dfbca315c028a79600ad50c0aae6598a70b7c1773832824e86b',
    'train-linear-adversarial-hinge/resolved_config.json': 'ea0d5f010af10760f34a44b7af9746cc73350a6af894c0639f436b74cd6fa5ea',
    'train-linear-adversarial-hinge/trace.csv': '4000c510d51a8defe880b86e7dc29d9591b0f93edd76d93bc9d59abc6edb70c2',
    'train-linear-l1/model.json': 'c2fcd37c93bae8750fdd221efe789f22b89922adfe5b273dfee690772b89fec7',
    'train-linear-l1/resolved_config.json': '35d60a88c72f06634dd18824d5c4dda3b29c164f83b29bed8bd358be53538f1b',
    'train-linear-l1/trace.csv': 'd1fa0e8a010cee39248388e7acd920619e6a4358c9ed37add0baffb0e4897f76',
    'train-mlp-adversarial/model.json': 'c24e816f0d597057373d66bbf9c6aae7d80814abb1f43439e563ede7f81ee919',
    'train-mlp-adversarial/resolved_config.json': 'd0daa72e17e0e15c4caa7c23a47ff111cb17cb70e2ddbedcb199a135fdf2dcfb',
    'train-mlp-adversarial/trace.csv': 'fc36445c7c9ab6d9dacf5c665cc5b09deb46549c2c806e6299aaa5a936881479',
    'verify-lemmaD1-gaussian/report.json': '255c74fc2dfc05b330f3540fb86e786f6970deb1acbb3a55a16d0bf5a328fee4',
    'verify-lemmaD1-hinge/report.json': 'e439fc024564fbcc5c87e77a765710f786eaeb8c9ba2d4eaf7f58a825cedb692',
    'verify-lemmaD1-uniform/report.json': '95308dc994a8d16d89b5f523157354e15d53d4ba2ab2cbec7ab3d8f6dbd81c82',
    'verify-thm1-bound-uniform/report.json': '3488e8dc6efc1130e33aa09a2274595bf20e44424c81165349f4ea258dce9584',
    'verify-thm1-bound/report.json': '8684152f8aedd2fc095c7193c151551ee34a6f398f7f2a2d50a78b9c8642d7a6',
    'verify-thm1-zero-gaussian/report.json': 'edc3a4bcfc72c04ae7dd0f06f0f8504eebb64291ff37b3bc51944dfd9147b821',
    'verify-thm1-zero-hinge/report.json': '2a7cfe8660b7e40af26bbedc0f356212ebfd674b2a1af86b1017d7a39b3540ec',
    'verify-thm3-all/report.json': '67e362dd6b54b15af72d2a2ec81737d4cc70d6fea657c0f793b4b2caf996cab7',
    'verify-thm3-hinge/report.json': '1d73279de03dc7c9b7edf795b74e5edb7a7b8a81fecc3210e25aac1978ab591f',
}


def _digest(path) -> str:
    with open(path, "rb") as fh:
        raw = fh.read()
    if os.path.basename(path) == "report.json":
        doc = json.loads(raw)
        doc.pop("runtime_seconds", None)
        raw = (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")
    return hashlib.sha256(raw).hexdigest()


def run_cases(root) -> dict:
    """Run every case under ``root``; map each synth file name and each
    "case/file" to its sha256."""
    paths = {}
    digests = {}
    for name, argv in _SYNTH:
        paths[name] = os.path.join(root, name)
        assert main([*argv, "--out", paths[name]]) == 0
        digests[name] = _digest(paths[name])
    for case, template in CASES:
        out = os.path.join(root, case)
        os.makedirs(out, exist_ok=True)
        fill = {"data": paths["toy.json"], "blobs": paths["blobs.json"], "out": out,
                "root": root,
                "model": os.path.join(root, "train-mlp-adversarial", "model.json"),
                "linear": os.path.join(root, "train-linear-adversarial-hinge", "model.json")}
        argv = [arg.format(**fill) for arg in template]
        if not any("{out}" in arg for arg in template):
            argv += ["--out-dir", out]
        assert main(argv) == 0, case
        for fname in sorted(os.listdir(out)):
            digests[f"{case}/{fname}"] = _digest(os.path.join(out, fname))
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return run_cases(str(tmp_path_factory.mktemp("golden")))


def test_golden_file_set(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_output(digests, key):
    assert digests.get(key) == GOLDEN[key], f"{key} changed"


if __name__ == "__main__":
    import tempfile
    from contextlib import redirect_stdout

    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(sys.stderr):
        pins = run_cases(tmp)
    for key, value in sorted(pins.items()):
        sys.stdout.write(f"    {key!r}: {value!r},\n")
    for key in sorted(set(pins) | set(GOLDEN)):
        if pins.get(key) != GOLDEN.get(key):
            sys.stderr.write(f"differs from GOLDEN: {key}\n")
