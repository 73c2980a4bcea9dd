"""Self-test of the benchmark at toy sizes; about 15 seconds on two cores.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

It checks that

* every workload, untraced and traced, prints exactly the metrics that
  BENCHMARK.json names, each with its unit, and passes its own checks;
* PGD and backprop counters read 0 on the workloads that never reach them;
* every correctness check can fail: each is fed a corrupted output (or, for
  verify, ``verify thm3 --tol -1``) and must report a problem;
* a changed output hash is counted as a failed operation.

Exit code 0 when all of that holds, 1 otherwise.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import call_cli, make_workloads  # noqa: E402

FAILURES = []


def expect(condition, what):
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        FAILURES.append(what)


def bench_units():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def check_emitted_metrics():
    end_to_end, per_layer = bench_units()
    for name in make_workloads(toy=True):
        for trace, wanted in ((0, end_to_end), (1, per_layer)):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--toy", "--workload", name,
                 "--seed", "3", "--seconds", "0", "--trace", str(trace)],
                capture_output=True, text=True, timeout=300)
            label = f"{name} trace {trace}"
            expect(proc.returncode == 0, f"{label}: exit 0 ({proc.stderr.strip()[-300:]})")
            if proc.returncode != 0:
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{label}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: correct, {result['failed']} of {result['attempted']} failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{label}: every named metric with its unit "
                                  f"(missing {sorted(set(wanted) - set(got))}, "
                                  f"extra {sorted(set(got) - set(wanted))})")
            values = result["metrics"]
            if trace == 1 and name != "blob-mlp-compare":
                expect(values["adversarial.pgd_calls"]["value"] == 0
                       and values["models.backprop_calls"]["value"] == 0,
                       f"{label}: no PGD or backprop calls")


def fresh_runner(cli, workload, work):
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workload.make_inputs(cli, work, 3)
    runner = run.Runner(cli, workload, work, 3, run.Calibrator())
    if workload.threads is not None:
        runner.reference()
    runner.op()
    expect(not runner.failures, f"{workload.name}: untouched outputs pass")
    return runner


def rewrite(path, transform):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(transform(text))


def fails(runner, codes, what):
    problems = runner.workload.check(runner.out, codes, runner.observed)
    expect(bool(problems), f"{runner.workload.name}: {what} is caught ({problems[:1]})")


def check_checks_can_fail(cli, scratch):
    workloads = make_workloads(toy=True)

    blob = fresh_runner(cli, workloads["blob-mlp-compare"], os.path.join(scratch, "blob"))
    fails(blob, [1], "a non-zero exit")
    blob.observed.residual_max = 2e-3
    fails(blob, [0], "a completeness residual above 1e-3")
    blob.observed.residual_max = 0.0
    report = os.path.join(blob.out, "report.json")
    with open(report, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["gaps"]["adversarial(eps=0.1)"]["gini_gap"] = -0.01
    with open(report, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    fails(blob, [0], "a non-positive adversarial gini_gap")

    tab = fresh_runner(cli, workloads["tabular-linear-sweep"], os.path.join(scratch, "tab"))
    table = os.path.join(tab.out, "table.csv")
    with open(table, encoding="utf-8") as fh:
        original = fh.read()
    rewrite(table, lambda t: "".join(t.splitlines(keepends=True)[:-1]))
    fails(tab, [0], "a missing table.csv row")
    rewrite(table, lambda t: original)
    rewrite(table, lambda t: t.rstrip("\n").rsplit(",", 1)[0] + ",nan\n")
    fails(tab, [0], "a non-finite table.csv value")

    ver = fresh_runner(cli, workloads["verify-mc"], os.path.join(scratch, "ver"))
    thm3 = os.path.join(ver.out, "thm3.json")
    rc, _ = call_cli(cli.main, ["verify", "thm3", "--trials", "5", "--tol", "-1", "--out", thm3])
    expect(rc == 1, "verify thm3 --tol -1 exits 1")
    problems = ver.workload.check(ver.out, [0, 0, 0, 0], ver.observed)
    expect(any("did not pass" in p for p in problems),
           f"verify-mc: a check that did not pass is caught ({problems[:1]})")
    with open(thm3, "wb") as fh:
        fh.write(ver.observed.reference["thm3.json"])
    bound = os.path.join(ver.out, "thm1-bound.json")
    rewrite(bound, lambda t: t.replace('"n_samples": ', '"n_samples": 1'))
    problems = ver.workload.check(ver.out, [0, 0, 0, 0], ver.observed)
    expect(problems == ["thm1-bound.json: differs from the ATTRSPARSE_THREADS=1 reference"],
           f"verify-mc: a difference from the one-thread reference is caught ({problems})")
    os.remove(bound)
    fails(ver, [0, 0, 0, 0], "a missing verify report")

    ver.hashes = ["0" * 64]
    before = len(ver.failures)
    ver.op()
    expect(len(ver.failures) == before + 1
           and any("hash" in p for p in ver.failures[-1]),
           "verify-mc: an output hash that differs from the first run's is a failed operation")


def main():
    os.environ.update(run.BLAS_ENV)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "attrsparse", "cli.py")):
        print("selftest: run from the root of an attrsparse checkout", file=sys.stderr)
        return 2
    check_emitted_metrics()
    cli = run._import_cli(root)
    scratch = os.path.join(root, ".perfbench", f"selftest-{os.getpid()}")
    try:
        check_checks_can_fail(cli, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(FAILURES)} self-test failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
