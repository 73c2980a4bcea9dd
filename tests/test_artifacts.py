"""The JSON artifact writer: every artifact's bytes are json.dumps of its
document with the arrays written out as fmt_float strings, sorted keys and a
2-space indent, plus a newline; and writing a dataset holds one row's
strings at a time, not the text."""
import json
import math
import tracemalloc

import numpy as np
import pytest

from attrsparse._util import fmt_float, write_json
from attrsparse.data import SyntheticConditionalSampler, generate_synthetic, save_dataset

_RNG = np.random.default_rng(0)
DOCS = {
    "nested-arrays": {
        "z-matrix": _RNG.normal(size=(5, 3)),
        "weights": [_RNG.normal(size=(4, 2)), _RNG.normal(size=2)],  # as an MLP's layers
        "labels": np.asarray([1.0, -1.0, 0.1, -0.0, 5e-324, 1.7976931348623157e308,
                              math.nan, math.inf, -math.inf]),
        "ints": np.arange(3),
        "single": np.asarray([0.1, 1.0 / 3.0], dtype=np.float32),
        "empty": np.empty((0, 4)),
        "cube": _RNG.normal(size=(2, 2, 2)),
        "names": ["f0", "café", "日本", "☃", "tab\tquote\""],
        "clé ü": {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "none": None,
                  "flag": True, "n": 7, "half": 0.5, "bias": fmt_float(0.1)},
    },
    "report-without-arrays": {
        "format_version": 1,
        "check": "thm1-bound",
        "results": [{"check": "weighted-update-bound[0]", "estimate": -0.0123,
                     "reference": 0.25, "se": 1.5e-4, "n_samples": 100000,
                     "passed": True, "detail": "loss=logistic-nll eps=0.1"}],
        "passed": False,
        "runtime_seconds": 0.25,
    },
}


def _pre_encoded(doc):
    """doc with every array written out as (nested) lists of fmt_float strings."""
    if isinstance(doc, np.ndarray):
        return [fmt_float(v) for v in doc] if doc.ndim == 1 else [_pre_encoded(r) for r in doc]
    if isinstance(doc, dict):
        return {key: _pre_encoded(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_pre_encoded(value) for value in doc]
    return doc


@pytest.mark.parametrize("name", sorted(DOCS))
def test_write_json_is_json_dumps_of_the_pre_encoded_document(tmp_path, capsys, name):
    doc = DOCS[name]
    want = json.dumps(_pre_encoded(doc), sort_keys=True, indent=2) + "\n"
    path = tmp_path / "artifact.json"
    write_json(path, doc)
    assert path.read_bytes() == want.encode("utf-8")
    write_json(None, doc)  # stdout, as verify writes a report without --out
    assert capsys.readouterr().out == want


def test_write_json_rejects_what_json_cannot_encode(tmp_path):
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        write_json(tmp_path / "bad.json", {"values": {1, 2}})


def test_save_dataset_holds_less_than_its_text(tmp_path):
    # A (20000, 10) dataset writes 6.2 MB of text. Building every fmt_float
    # string and then the whole text peaked at 45 MB under tracemalloc; the
    # streamed writer peaks at 2.9 MB: the list of row views and the labels'
    # strings, which grow with n, and one row's strings and one block of text.
    ds = generate_synthetic(SyntheticConditionalSampler((1.0,) + (0.05,) * 9), 20_000, 0)
    path = tmp_path / "ds.json"
    tracemalloc.start()
    try:
        save_dataset(ds, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size, (peak, path.stat().st_size)
