"""The three benchmark workloads: how each makes its inputs from a seed, which
CLI invocations form its timed operation, and how its outputs are checked.

Every workload is driven through ``attrsparse.cli.main`` in-process, so an
operation is exactly what a user of the ``attrsparse`` command runs, minus the
interpreter start.  ``toy=True`` shrinks every size so that the self-test can
run each workload in a second or two.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import traceback
from contextlib import redirect_stderr, redirect_stdout

RESIDUAL_LIMIT = 1e-3


def call_cli(main, argv):
    """Run ``main(argv)`` (``attrsparse.cli.main``) with its stdout/stderr captured.

    Returns (exit code, captured text). An exception that escapes ``main`` or
    a ``SystemExit`` is turned into a non-zero code, so one broken operation
    is counted as failed instead of ending the benchmark.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - counted as a failed operation
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue() + err.getvalue()


def hash_outputs(out_dir) -> str:
    """sha256 over every output file (name and bytes, sorted by name).

    ``report.json`` enters without its wall-clock ``runtime_seconds`` field,
    the one value the toolkit does not promise to reproduce.
    """
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if name == "report.json":
            try:
                doc = json.loads(data)
            except ValueError:
                pass
            else:
                doc.pop("runtime_seconds", None)
                data = json.dumps(doc, sort_keys=True).encode()
        digest.update(name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest()


def _bad_exit(rcs):
    return [f"exit code {rc} from invocation {i}" for i, rc in enumerate(rcs) if rc != 0]


class BlobMlpCompare:
    """The paper's experiment at the criterion-8 geometry of the acceptance tests,
    with an eighth of its examples so that one operation takes about a second."""

    name = "blob-mlp-compare"
    threads = None

    def __init__(self, toy=False):
        self.n = 300 if toy else 600
        self.epochs = 2 if toy else 18
        self.steps = 16 if toy else 256

    def make_inputs(self, cli, work, seed):
        rc, text = call_cli(cli.main, [
            "synth", "blobs", "--n", str(self.n), "--seed", str(seed),
            "--strong", "0.69", "--weak", "0.085", "--sigma", "0.55", "--noise-sd", "0.5",
            "--out", os.path.join(work, "blobs.json")])
        if rc != 0:
            raise RuntimeError(f"synth blobs failed ({rc}): {text}")

    def _compare(self, work, out, seed, epochs, steps, lam_list):
        return ["compare", "--data", os.path.join(work, "blobs.json"), "--seed", str(seed),
                "--model", "mlp", "--hidden", "16", "--epochs", str(epochs),
                "--eps-list", "0.1", "--lam-list", lam_list,
                "--method", "numeric", "--steps", str(steps), "--out-dir", out]

    def warmup_argvs(self, work, out, seed):
        return [self._compare(work, out, seed, 1, 8, "0.05")]

    def op_argvs(self, work, out, seed):
        return [self._compare(work, out, seed, self.epochs, self.steps, "0.05,0.2")]

    def check(self, out, rcs, observed):
        problems = _bad_exit(rcs)
        if problems:
            return problems
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            gaps = json.load(fh)["gaps"]
        gap = gaps.get("adversarial(eps=0.1)", {}).get("gini_gap")
        if not (isinstance(gap, float) and gap > 0.0):
            problems.append(f"adversarial gini_gap {gap!r} is not > 0")
        if not observed.residual_max <= RESIDUAL_LIMIT:
            problems.append(f"completeness residual {observed.residual_max!r} > {RESIDUAL_LIMIT}")
        return problems


class TabularLinearSweep:
    """A 4x4 epsilon/lambda sweep of linear models on a one-hot encoded CSV."""

    name = "tabular-linear-sweep"
    threads = None
    eps_list = "0.05,0.1,0.2,0.4"
    lam_list = "0.003,0.01,0.03,0.1"
    n_categorical, n_levels, n_numeric = 8, 5, 12

    def __init__(self, toy=False):
        self.rows = 400 if toy else 2000
        self.epochs = 2 if toy else None  # None: the toolkit's default

    def make_inputs(self, cli, work, seed):
        import numpy as np  # after attrsparse, so its import time covers numpy

        rng = np.random.default_rng(seed)
        y = rng.uniform(size=self.rows) < 0.5
        sign = np.where(y, 1.0, -1.0)
        strengths = np.zeros(self.n_numeric)
        strengths[:4] = (0.8, 0.4, 0.2, 0.1)
        numeric = rng.normal(size=(self.rows, self.n_numeric)) + sign[:, None] * strengths
        levels = "abcde"[: self.n_levels]
        base = np.full(self.n_levels, 1.0 / self.n_levels)
        tilt = np.linspace(-0.12, 0.12, self.n_levels)
        header = ([f"c{j}" for j in range(self.n_categorical)]
                  + [f"x{j}" for j in range(self.n_numeric)] + ["label"])
        cats = []
        for j in range(self.n_categorical):
            # the first three columns carry label signal, the rest are noise
            lean = tilt * (0.8 ** j) if j < 3 else 0.0
            p_pos, p_neg = base + lean, base - lean
            u = rng.uniform(size=self.rows)
            cum = np.where(y[:, None], np.cumsum(p_pos)[None, :], np.cumsum(p_neg)[None, :])
            cats.append(np.minimum((u[:, None] > cum).sum(axis=1), self.n_levels - 1))
        with open(os.path.join(work, "table.csv"), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for i in range(self.rows):
                writer.writerow([levels[c[i]] for c in cats]
                                + [f"{v:.5f}" for v in numeric[i]]
                                + ["p" if y[i] else "n"])

    def _compare(self, work, out, seed, eps_list, lam_list, epochs):
        argv = ["compare", "--data", os.path.join(work, "table.csv"), "--infer-schema",
                "--label-column", "label", "--positive-label", "p", "--seed", str(seed),
                "--eps-list", eps_list, "--lam-list", lam_list, "--out-dir", out]
        if epochs is not None:
            argv += ["--epochs", str(epochs)]
        return argv

    def warmup_argvs(self, work, out, seed):
        return [self._compare(work, out, seed, "0.1", "0.01", 1)]

    def op_argvs(self, work, out, seed):
        return [self._compare(work, out, seed, self.eps_list, self.lam_list, self.epochs)]

    def check(self, out, rcs, observed):
        problems = _bad_exit(rcs)
        if problems:
            return problems
        with open(os.path.join(out, "table.csv"), newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        models = 1 + len(self.eps_list.split(",")) + len(self.lam_list.split(","))
        if len(rows) != models + 1:
            problems.append(f"table.csv has {len(rows)} rows, expected {models + 1}")
        for row in rows[1:]:
            try:
                finite = len(row) == 5 and all(math.isfinite(float(v)) for v in row[3:])
            except ValueError:
                finite = False
            if not finite:
                problems.append(f"table.csv row {row!r} is not finite")
        return problems


class VerifyMc:
    """The four ``verify`` guarantee checks at Monte-Carlo sizes that take a second."""

    name = "verify-mc"

    def __init__(self, toy=False, threads=2):
        self.bound_n = 20_000 if toy else 500_000
        self.zero_n = 40_000 if toy else 1_000_000
        self.lemma_n = 40_000 if toy else 1_000_000
        self.trials = 50 if toy else 1250
        self.threads = threads

    def make_inputs(self, cli, work, seed):
        """The checks draw their own samples; the seed is passed on the command line."""

    def _checks(self, out, seed, bound_n, zero_n, lemma_n, trials):
        def argv(check, *extra, check_seed=seed):
            return ["verify", check, "--seed", str(check_seed), *extra,
                    "--out", os.path.join(out, f"{check}.json")]
        # thm1-zero tests an exact null hypothesis at 3 SE in five coordinates,
        # so about 1.3% of seeds fail it by design; it keeps the toolkit's
        # default seed 0 while the other three checks follow the bench seed.
        return [argv("thm1-bound", "--n", str(bound_n), "--configs", "5"),
                argv("thm1-zero", "--n", str(zero_n), check_seed=0),
                argv("lemmaD1", "--n", str(lemma_n)),
                argv("thm3", "--trials", str(trials))]

    def warmup_argvs(self, work, out, seed):
        return self._checks(out, seed, 20_000, 20_000, 20_000, 20)

    def op_argvs(self, work, out, seed):
        return self._checks(out, seed, self.bound_n, self.zero_n, self.lemma_n, self.trials)

    def check(self, out, rcs, observed):
        problems = _bad_exit(rcs)
        expected = {os.path.basename(argv[-1]) for argv in self.op_argvs("", out, 0)}
        missing = expected - set(os.listdir(out))
        if missing:
            problems.append(f"missing outputs {sorted(missing)}")
        for name in sorted(expected - missing):
            with open(os.path.join(out, name), "rb") as fh:
                data = fh.read()
            doc = json.loads(data)
            if not (doc["passed"] and all(r["passed"] for r in doc["results"])):
                problems.append(f"{name}: a check did not pass")
            ref = observed.reference.get(name)
            if ref is not None and ref != data:
                problems.append(f"{name}: differs from the ATTRSPARSE_THREADS=1 reference")
        return problems


def make_workloads(toy=False, threads=2):
    return {w.name: w for w in (BlobMlpCompare(toy), TabularLinearSweep(toy),
                                VerifyMc(toy, threads))}
