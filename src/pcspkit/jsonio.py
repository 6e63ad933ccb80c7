"""Canonical JSON serialization.

Every file the toolkit emits is sorted, 2-space indented, and newline
terminated so that identical objects always produce identical bytes: the text
`json` writes with `sort_keys=True`, `indent=2` and `ensure_ascii=False`, plus
a newline.  `json` falls back to its pure-Python encoder whenever it indents, so
`canonical_dumps` lays out the containers itself: strings go through the C
string encoder, a list of strings is joined in one step, and every other
scalar is `json.dumps`'s own compact text.  Tuples are arrays, and dict keys
that are not strings are written as `json` writes them.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring
from pathlib import Path


def _key(key) -> str:
    """The text `json` gives a dict key that is not a string."""
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _dumps(value, newline: str) -> str:
    """`value` laid out at the indentation `newline` ("\\n" and its spaces)."""
    if isinstance(value, str):
        return encode_basestring(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        try:
            items = ("," + inner).join(map(encode_basestring, value))
        except TypeError:  # not only strings
            items = ("," + inner).join([_dumps(item, inner) for item in value])
        return "[" + inner + items + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = ("," + inner).join(
            [
                encode_basestring(key if isinstance(key, str) else _key(key))
                + ": "
                + (encode_basestring(item) if isinstance(item, str) else _dumps(item, inner))
                for key, item in sorted(value.items())
            ]
        )
        return "{" + inner + items + newline + "}"
    return json.dumps(value)


def canonical_dumps(payload) -> str:
    return _dumps(payload, "\n") + "\n"


def write_canonical(path, payload) -> None:
    Path(path).write_text(canonical_dumps(payload), encoding="utf-8")


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
