"""Small shared helpers: thread budget, canonical formatting, chunk bounds."""
from __future__ import annotations

import csv
import json
import os

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


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed indentation, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


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


def json_entry(doc: dict, key: str, convert, where: str):
    """convert(doc[key]); a missing entry, or one whose type or value convert
    rejects (a TypeError or ValueError), is a ValueError naming `where` (the
    document) and key."""
    if key not in doc:
        raise ValueError(f"{where} has no {key!r} entry")
    try:
        return convert(doc[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}'s {key!r} entry is malformed ({exc})") from None


def chunk_bounds(n: int, chunk: int):
    """(start, stop) pairs covering range(n) in order, made as they are read."""
    return ((start, min(start + chunk, n)) for start in range(0, n, chunk))

