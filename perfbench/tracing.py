"""Spans around the toolkit's public functions, recorded from outside the program.

Each target is wrapped at the name its caller looks it up by (for example
``attrsparse.pipeline.train``, the binding ``run_compare`` calls), so the
program itself is unchanged.  A span is ``[name, parent, start, end, note]``
kept in memory; ``note`` holds a count taken at the boundary (PGD steps,
bytes read, examples attributed).  Spans are single-threaded: no target runs
on the toolkit's Monte-Carlo worker threads.
"""
from __future__ import annotations

import functools
import importlib
import math
import os
import statistics
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("cli", "data", "training", "adversarial", "models", "attribution",
          "sparseness", "pipeline", "theory")


def _size(args, kwargs, result):
    return os.path.getsize(args[0])


def _optimizer_steps(args, kwargs, result):
    ds, cfg = args[0], args[2]
    return cfg.epochs * math.ceil(ds.train_indices.size / cfg.batch_size)


def _pgd_steps(args, kwargs, result):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[4]
    return cfg.steps


def _attributed(args, kwargs, result):
    return len(result), max((a.completeness_residual for a in result), default=0.0)


def _ig_steps(args, kwargs, result):
    return kwargs["steps"] if "steps" in kwargs else args[3]


def _mc_samples(args, kwargs, result):
    # verify_zero_weight_update draws one sample set for all its coordinates
    return (result[0] if isinstance(result, list) else result).n_samples


# (module, attribute path, span name, note)
TARGETS = (
    ("attrsparse.cli", "load_dataset", "data.load_dataset", _size),
    ("attrsparse.cli", "load_csv", "data.load_csv", _size),
    ("attrsparse.cli", "run_compare", "pipeline.run_compare", None),
    ("attrsparse.cli", "write_table_csv", "pipeline.write_table_csv", None),
    ("attrsparse.cli", "write_distribution_csv", "pipeline.write_distribution_csv", None),
    ("attrsparse.cli", "write_tradeoff_csv", "pipeline.write_tradeoff_csv", None),
    ("attrsparse.cli", "check_theorem1_bound", "theory.thm1_bound", _mc_samples),
    ("attrsparse.cli", "verify_zero_weight_update", "theory.thm1_zero", _mc_samples),
    ("attrsparse.cli", "check_lemma_exp_bound", "theory.lemmaD1", _mc_samples),
    ("attrsparse.cli", "check_theorem3_identity", "theory.thm3", None),
    ("attrsparse.pipeline", "train", "training.train", _optimizer_steps),
    ("attrsparse.pipeline", "evaluate", "training.evaluate", None),
    ("attrsparse.pipeline", "attribute_dataset", "attribution.attribute_dataset", _attributed),
    ("attrsparse.pipeline", "make_gini_report", "sparseness.make_gini_report", None),
    ("attrsparse.training", "pgd_perturb_batch", "adversarial.pgd", _pgd_steps),
    ("attrsparse.models", "MlpModel.backprop", "models.backprop", None),
    ("attrsparse.models", "MlpModel.value_and_input_gradient", "models.input_grad", None),
    ("attrsparse.attribution", "ig_numeric", "attribution.ig_numeric", _ig_steps),
    ("attrsparse.attribution", "ig_closed_form", "attribution.ig_closed_form", None),
    ("attrsparse.sparseness", "gini", "sparseness.gini", None),
)


def _owner(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def patched(replacements):
    """Set each ``(owner, attr) -> value`` for the duration of the block."""
    saved = []
    try:
        for (owner, attr), value in replacements.items():
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.missing = []

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return traced

    def replacements(self, current):
        """Wrapped versions of every target still present in the program.

        ``current`` maps ``(owner, attr)`` to a value already substituted for
        the original (the correctness observer), which is wrapped instead.
        """
        out = {}
        for module_name, path, name, note in TARGETS:
            owner, attr = _owner(module_name, path)
            if attr not in owner.__dict__:
                self.missing.append(f"{module_name}.{path}")
                continue
            inner = current.get((owner, attr), owner.__dict__[attr])
            out[(owner, attr)] = self.wrap(name, inner, note)
        return out


def percentile(values, p):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def layer_metrics(spans, run_s, bytes_out):
    """Per-layer metrics of one traced operation whose root spans are ``cli.main``."""
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child[s[1]] += dur[i]
    self_s = [dur[i] - child[i] for i in range(n)]

    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def total(name, values=dur):
        return sum(values[i] for i in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def notes(name):
        return [spans[i][4] for i in by_name.get(name, ())]

    def prefixed(prefix):
        return [name for name in by_name if name.startswith(prefix)]

    m = {}
    loads = prefixed("data.load_")
    m["data.load_s"] = sum(total(k) for k in loads)
    m["data.load_calls"] = sum(calls(k) for k in loads)
    m["data.bytes_in"] = sum(sum(notes(k)) for k in loads)

    m["training.train_s"] = total("training.train")
    m["training.train_calls"] = calls("training.train")
    m["training.train_self_s"] = total("training.train", self_s)
    m["training.optimizer_steps"] = sum(notes("training.train"))
    m["training.evaluate_s"] = total("training.evaluate")

    m["adversarial.pgd_s"] = total("adversarial.pgd")
    m["adversarial.pgd_calls"] = calls("adversarial.pgd")
    m["adversarial.pgd_steps"] = sum(notes("adversarial.pgd"))
    m["adversarial.pgd_share"] = (m["adversarial.pgd_s"] / m["training.train_s"]
                                  if m["training.train_s"] else 0.0)

    m["models.backprop_s"] = total("models.backprop")
    m["models.backprop_calls"] = calls("models.backprop")
    m["models.input_grad_s"] = total("models.input_grad")
    m["models.input_grad_calls"] = calls("models.input_grad")

    attributed = notes("attribution.attribute_dataset")
    per_example = [dur[i] * 1e6 for name in ("attribution.ig_numeric", "attribution.ig_closed_form")
                   for i in by_name.get(name, ())]
    m["attribution.attribute_s"] = total("attribution.attribute_dataset")
    m["attribution.examples"] = sum(count for count, _ in attributed)
    m["attribution.grad_evals"] = sum(notes("attribution.ig_numeric"))
    m["attribution.per_example_us_p50"] = percentile(per_example, 50) if per_example else 0.0
    m["attribution.per_example_us_p99"] = percentile(per_example, 99) if per_example else 0.0
    m["attribution.residual_max"] = max((r for _, r in attributed), default=0.0)

    gini_rows = [dur[i] * 1e6 for i in by_name.get("sparseness.gini", ())]
    m["sparseness.gini_s"] = total("sparseness.make_gini_report")
    m["sparseness.gini_calls"] = len(gini_rows)
    m["sparseness.per_row_us"] = statistics.median(gini_rows) if gini_rows else 0.0

    writes = prefixed("pipeline.write_")
    m["pipeline.compare_s"] = total("pipeline.run_compare")
    m["pipeline.compare_self_s"] = total("pipeline.run_compare", self_s)
    m["pipeline.write_s"] = sum(total(k) for k in writes)
    m["pipeline.bytes_out"] = bytes_out

    mc_checks = ("theory.thm1_bound", "theory.thm1_zero", "theory.lemmaD1")
    for key in mc_checks + ("theory.thm3",):
        m[key + "_s"] = total(key)
    m["theory.mc_samples"] = sum(sum(notes(k)) for k in mc_checks)
    mc_s = sum(m[k + "_s"] for k in mc_checks)
    m["theory.mc_samples_per_s"] = m["theory.mc_samples"] / mc_s if mc_s else 0.0
    thm3 = [dur[i] * 1e6 for i in by_name.get("theory.thm3", ())]
    m["theory.thm3_per_trial_us"] = statistics.median(thm3) if thm3 else 0.0

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(self_s[i] for i, s in enumerate(spans)
                                   if s[0].split(".", 1)[0] == layer)
    self_sum = sum(self_s)
    m["trace.spans"] = n
    m["trace.run_s"] = run_s
    m["trace.self_sum_s"] = self_sum
    m["trace.unaccounted_s"] = run_s - self_sum
    return m
