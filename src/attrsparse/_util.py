"""Small shared helpers: thread budget, canonical formatting, artifact I/O, chunk bounds."""
from __future__ import annotations

import csv
import json
import os
import sys
from contextlib import nullcontext
from itertools import islice

import numpy as np

_THREADS_ENV = "ATTRSPARSE_THREADS"


def worker_count() -> int:
    """Worker cap from the ATTRSPARSE_THREADS env var: an integer >= 1, or 1
    when unset or empty. Any other value is a ValueError naming it."""
    raw = os.environ.get(_THREADS_ENV, "")
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"{_THREADS_ENV} must be an integer >= 1, got {raw!r}")
    return n


def fmt_float(x) -> str:
    """Shortest decimal string that round-trips the float bit-exactly."""
    return repr(float(x))


def write_csv(path, header, rows):
    """UTF-8 CSV with "\n" line endings. csv.writer writes every float,
    np.float64 included, as float.__repr__: the text of fmt_float."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _array_rows(arr):
    """The encoder's hook: a 1-d array as fmt_float strings, a deeper one as
    its rows, so that one row's strings exist at a time."""
    if isinstance(arr, np.ndarray):
        return list(map(repr, arr.astype(float).tolist())) if arr.ndim == 1 else list(arr)
    raise TypeError(f"Object of type {type(arr).__name__} is not JSON serializable")


def write_json(path, doc):
    """Write doc as an artifact, to stdout when path is None: sorted keys,
    2-space indent, a trailing newline, and arrays as fmt_float strings (a
    float outside an array stays a JSON number), streamed as they are encoded."""
    chunks = json.JSONEncoder(sort_keys=True, indent=2, default=_array_rows).iterencode(doc)
    with open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout) as fh:
        while block := "".join(islice(chunks, 4096)):  # a few thousand floats a write
            fh.write(block)
        fh.write("\n")


def read_json_object(path, kind: str) -> dict:
    """The one JSON object a file holds; a ValueError naming the file when it
    is not UTF-8 JSON, or when it holds another JSON value."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # json.JSONDecodeError or UnicodeDecodeError
            raise ValueError(f"{path}: not a valid JSON {kind} file ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a {kind} file holds one JSON object")
    return doc


def json_entries(doc: dict, where: str):
    """entry(key, convert) -> convert(doc[key]); a missing entry, or one whose
    type or value convert rejects (a TypeError or ValueError), is a ValueError
    naming `where` (the document) and key."""
    def entry(key: str, convert=lambda v: v):
        if key not in doc:
            raise ValueError(f"{where} has no {key!r} entry")
        try:
            return convert(doc[key])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}'s {key!r} entry is malformed ({exc})") from None
    return entry


def chunk_bounds(n: int, chunk: int):
    """(start, stop) pairs covering range(n) in order, made as they are read."""
    return ((start, min(start + chunk, n)) for start in range(0, n, chunk))

