"""attrsparse benchmark: time one workload, check its outputs, print its metrics.

Run from the root of a source checkout (the directory holding ``src/``):

    python3 perfbench/run.py --workload blob-mlp-compare --seed 1 --seconds 30 --trace 0

Each run is one closed loop: a single client in this process calls
``attrsparse.cli.main`` for the workload's operation, and starts the next
operation only after the previous one finished.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced operations
and prints the per-layer metrics.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; lines before it are a
human-readable summary.  Details of the run (every sample, machine facts, the
output hash) go to ``.perfbench/results/`` and the spans of the last traced
operation to ``.perfbench/spans/``.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from calibrate import Calibrator, rescale  # noqa: E402
from workloads import call_cli, hash_outputs, make_workloads  # noqa: E402

SETUP_REPEATS = 5
MIN_OPS = 3        # untraced operations per run, whatever --seconds says
MIN_PAIRS = 1      # untraced + traced pairs per traced run
PROBE_TIMEOUT_S = 150
MAX_THREADS = 2    # ATTRSPARSE_THREADS for verify-mc, capped by nproc
# The toolkit multiplies tiny matrices (32x64 @ 64x16), where a second BLAS
# thread only adds synchronisation: on a 2-core box the blob workload ran about
# 10% slower and less steadily with it.  One BLAS thread everywhere, set before
# numpy is imported here or in a set-up probe.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _threads():
    return max(1, min(MAX_THREADS, _nproc() or 1))


def _import_cli(root):
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    cli = importlib.import_module("attrsparse.cli")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"attrsparse imported from {cli.__file__}, not from {src}")
    return cli


def _reset(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def setup_probe(args, root):
    """One complete set-up in a fresh interpreter: import, inputs, warm-up.

    The calibration kernel runs afterwards in this same process, so on the
    same vCPU as the set-up; the parent may sit on the other one.
    """
    t0 = perf_counter()
    cli = _import_cli(root)
    t1 = perf_counter()
    workload = make_workloads(toy=args.toy, threads=_threads())[args.workload]
    workload.make_inputs(cli, args.work_dir, args.seed)
    t2 = perf_counter()
    warm = os.path.join(args.work_dir, "warm")
    _reset(warm)
    for argv in workload.warmup_argvs(args.work_dir, warm, args.seed):
        rc, text = call_cli(cli.main, argv)
        if rc != 0:
            print(f"warm-up {argv[:2]} exited {rc}:\n{text}", file=sys.stderr)
            return 1
    t3 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1, "warmup_s": t3 - t2,
                      "cal_us": Calibrator().measure()}))
    return 0


def run_setup_probes(args, work):
    """Wall and rescaled times of SETUP_REPEATS fresh set-ups.

    The last set-up's inputs stay in ``work`` for the timed operations.
    """
    walls, scaled, parts = [], [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--work-dir", work] + (["--toy"] if args.toy else [])
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        walls.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed with exit {proc.returncode}:\n{proc.stderr}")
        parts.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        scaled.append(rescale(walls[-1], parts[-1]["cal_us"], parts[-1]["cal_us"]))
    return walls, scaled, parts


def machine_facts(root, threads):
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    src_lines = 0
    for base, _dirs, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "nproc": _nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "ATTRSPARSE_THREADS": threads,
        "src_lines": src_lines,
    }


class Observed:
    """What the correctness checks need beyond the output files."""

    def __init__(self):
        self.residual_max = 0.0
        self.reference = {}

    def observer(self, attribute_dataset):
        def observed(*args, **kwargs):
            result = attribute_dataset(*args, **kwargs)
            self.residual_max = max(self.residual_max,
                                    max((a.completeness_residual for a in result), default=0.0))
            return result
        return observed


def tail_percentile(samples):
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(samples) * (1.0 - p / 100.0) >= 10:
            return p, tracing.percentile(samples, p)
    return None, None


class Runner:
    def __init__(self, cli, workload, work, seed, calibrator):
        self.cli = cli
        self.calibrator = calibrator
        self.cal = calibrator.measure()
        self.cals = [self.cal]
        self.workload = workload
        self.work = work
        self.seed = seed
        self.out = os.path.join(work, "out")
        self.observed = Observed()
        import attrsparse.pipeline as pipeline
        key = (pipeline, "attribute_dataset")
        self.base = {key: self.observed.observer(pipeline.__dict__["attribute_dataset"])}
        self.attempted = 0
        self.failures = []
        self.hashes = []

    def _env_threads(self, threads):
        if threads is None:
            os.environ.pop("ATTRSPARSE_THREADS", None)
        else:
            os.environ["ATTRSPARSE_THREADS"] = str(threads)

    def invoke(self, argvs, main):
        codes = []
        for argv in argvs:
            rc, text = call_cli(main, argv)
            if rc != 0:
                print(f"{argv[0]} {argv[1]} exited {rc}:\n{text}", file=sys.stderr)
            codes.append(rc)
        return codes

    def reference(self):
        """verify-mc's expected bytes, computed once at ATTRSPARSE_THREADS=1."""
        _reset(self.out)
        self._env_threads(1)
        codes = self.invoke(self.workload.op_argvs(self.work, self.out, self.seed), self.cli.main)
        if any(codes):
            raise RuntimeError(f"reference computation exited {codes}")
        for name in os.listdir(self.out):
            with open(os.path.join(self.out, name), "rb") as fh:
                self.observed.reference[name] = fh.read()

    def warm_up(self):
        _reset(self.out)
        self._env_threads(self.workload.threads)
        with tracing.patched(self.base):
            codes = self.invoke(self.workload.warmup_argvs(self.work, self.out, self.seed),
                                self.cli.main)
        if any(codes):
            raise RuntimeError(f"warm-up exited {codes}")

    def op(self, tracer=None):
        """One timed operation; returns its wall and rescaled seconds."""
        _reset(self.out)
        self.observed.residual_max = 0.0
        self._env_threads(self.workload.threads)
        argvs = self.workload.op_argvs(self.work, self.out, self.seed)
        replacements = dict(self.base)
        main = self.cli.main
        if tracer is not None:
            replacements.update(tracer.replacements(self.base))
            main = tracer.wrap("cli.main", main)
        with tracing.patched(replacements):
            t0 = perf_counter()
            codes = self.invoke(argvs, main)
            wall = perf_counter() - t0
        self.attempted += 1
        try:
            problems = self.workload.check(self.out, codes, self.observed)
            digest = hash_outputs(self.out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems, digest = [f"outputs unreadable: {exc!r}"], None
        if self.hashes and digest != self.hashes[0]:
            problems.append(f"output hash {digest} differs from the first run's {self.hashes[0]}")
        self.hashes.append(digest)
        if problems:
            self.failures.append(problems)
            print(f"operation {self.attempted} failed: " + "; ".join(problems), file=sys.stderr)
        self.cal, before = self.calibrator.measure(), self.cal
        self.cals.append(self.cal)
        return wall, rescale(wall, before, self.cal)


def bytes_under(path):
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    parser.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.environ.update(BLAS_ENV)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "attrsparse", "cli.py")):
        print("perfbench: run from the root of an attrsparse checkout (no src/attrsparse)",
              file=sys.stderr)
        return 2
    threads = _threads()
    workloads = make_workloads(toy=args.toy, threads=threads)
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads)}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args, root)

    state = os.path.join(root, ".perfbench")
    work = os.path.join(state, f"work-{os.getpid()}")
    _reset(work)
    try:
        return _run(args, root, state, work, workloads[args.workload], threads)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, root, state, work, workload, threads):
    setup_walls, setup_scaled, setup_parts = run_setup_probes(args, work)
    cli = _import_cli(root)
    runner = Runner(cli, workload, work, args.seed, Calibrator())
    runner.warm_up()
    if workload.threads is not None:
        runner.reference()

    walls, scaled, traced_walls, traced_scaled, cycles, layer_samples = [], [], [], [], [], []
    spans, missing = [], []
    t_start = perf_counter()

    def more(least):
        """Start another cycle unless the run has its minimum and would overrun."""
        if len(cycles) < least:
            return True
        return perf_counter() - t_start + statistics.median(cycles) <= args.seconds

    while more(MIN_OPS if args.trace == 0 else MIN_PAIRS):
        t0 = perf_counter()
        wall, rescaled = runner.op()
        walls.append(wall)
        scaled.append(rescaled)
        if args.trace:
            tracer = tracing.Tracer()
            wall, rescaled = runner.op(tracer)
            traced_walls.append(wall)
            traced_scaled.append(rescaled)
            spans, missing = tracer.spans, tracer.missing
            layer_samples.append(tracing.layer_metrics(spans, wall, bytes_under(runner.out)))
        cycles.append(perf_counter() - t0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    run_s = statistics.median(scaled)
    setup_s = statistics.median(setup_scaled)
    failed = len(runner.failures)
    facts = machine_facts(root, threads if workload.threads is not None else None)
    tail_p, tail_v = tail_percentile(scaled)
    if args.trace == 0:
        metrics = {"run_s": (run_s, "s"), "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        values = {name: statistics.median(m[name] for m in layer_samples)
                  for name in layer_samples[0]}
        values["cli.import_s"] = statistics.median(p["import_s"] for p in setup_parts)
        values["trace.untraced_run_s"] = statistics.median(walls)
        values["trace.overhead_s"] = statistics.median(traced_scaled) - run_s
        metrics = {name: (values[name], unit) for name, unit in per_layer_units().items()}

    summary = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "run_s_samples": scaled, "run_wall_s_samples": walls,
        "traced_run_s_samples": traced_scaled, "traced_run_wall_s_samples": traced_walls,
        "run_s_tail": None if tail_p is None else {"percentile": tail_p, "value": tail_v},
        "calibration_us_samples": runner.cals, "setup_s_samples": setup_scaled, "setup_wall_s_samples": setup_walls,
        "setup_parts": setup_parts,
        "attempted": runner.attempted, "failed": failed,
        "error_rate": failed / runner.attempted, "failures": runner.failures,
        "output_sha256": runner.hashes[0], "machine": facts,
        "untraced_targets": missing,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = os.path.join(state, "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}" + ("-toy" if args.toy else "")
    with open(os.path.join(results, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    if args.trace:
        os.makedirs(os.path.join(state, "spans"), exist_ok=True)
        with open(os.path.join(state, "spans", stem + ".json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "note"], "spans": spans}, fh)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    tail = ("n/a (fewer than 20 samples)" if tail_p is None else f"p{tail_p:g} {tail_v:.4f} s")
    print(f"  run_s        {run_s:.4f} s  median of {len(scaled)} at reference speed; "
          f"tail {tail}; wall median {statistics.median(walls):.4f} s")
    print(f"  setup_s      {setup_s:.4f} s  median of {len(setup_scaled)} at reference speed; "
          f"wall median {statistics.median(setup_walls):.4f} s")
    print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"  error_rate   {failed / runner.attempted:g}  ({failed} of {runner.attempted} failed)")
    print(f"  output_sha256 {runner.hashes[0]}")
    if missing:
        print(f"  not traced (absent from the program): {', '.join(missing)}")
    print("  machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def per_layer_units():
    """Name -> unit of every per-layer metric, as BENCHMARK.json lists them."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
