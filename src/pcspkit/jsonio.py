"""Canonical JSON serialization.

Every file the toolkit emits is sorted, 2-space indented, and newline
terminated so that identical objects always produce identical bytes: the text
`json` writes with `sort_keys=True`, `indent=2` and `ensure_ascii=False`, plus
a newline.  `json` falls back to its pure-Python encoder whenever it indents, so
`canonical_dumps` lays out the containers itself: strings go through the C
string encoder, a list of strings is joined in one step, and every other
scalar is `json.dumps`'s own compact text.  A string map (a plain dict whose
keys and values are all strings that need no escape, such as an assignment's
values) is laid out the same way: its keys sorted once into one column, its
values in another, and the entries joined from the two in one step.  Any
other dict, a dict subclass included, is laid out entry by entry.  Tuples are
arrays, and dict keys that are not strings are written as `json` writes them.

A list of records (plain dicts that all have one set of string keys, such as
an instance's constraints) has its keys sorted once.  Its records share the text
between their values, so each field is laid out for all records at once (a
column of strings, or of string arrays of one length, in one C-level step)
and the records are joined from those columns in one step.  Any other list
takes the general path, and both give the same bytes.  Long texts are put
together with `join`, which copies them once.
"""

from __future__ import annotations

import itertools
import json
import operator
import re
from json.encoder import encode_basestring
from pathlib import Path

from .errors import InputError


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
            items = _records(value, inner)
            if items is None:
                items = ("," + inner).join([_dumps(item, inner) for item in value])
        return "".join(("[", inner, items, newline, "]"))
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = _string_map(value, inner) if type(value) is dict else None
        if items is None:
            items = ("," + inner).join(
                [
                    encode_basestring(key if isinstance(key, str) else _key(key))
                    + ": "
                    + (encode_basestring(item) if isinstance(item, str) else _dumps(item, inner))
                    for key, item in sorted(value.items())
                ]
            )
        return "".join(("{", inner, items, newline, "}"))
    return json.dumps(value)


def _string_map(value: dict, newline: str):
    """The entries of a plain dict whose keys and values are all strings that
    need no escape, laid out at `newline` from one sorted key column and one
    value column in one step; None for any other dict."""
    keys = sorted(value)
    values = list(map(value.__getitem__, keys))
    try:
        if _ESCAPED("".join(keys)) or _ESCAPED("".join(values)):
            return None
    except TypeError:  # a key or a value that is not a string
        return None
    return '"' + ('",' + newline + '"').join(map('": "'.join, zip(keys, values))) + '"'


# The mark of a value's place in a record's text: no JSON text holds a raw NUL,
# since encode_basestring escapes it.
_SLOT = "\0"
# What encode_basestring escapes; any other string is its own text, quoted.
_ESCAPED = re.compile(r'["\\\x00-\x1f]').search


def _records(value, newline: str):
    """A nonempty list of plain dicts that all have one set of string keys,
    laid out at `newline` with the keys sorted once; None for any other list.

    Every record has the same text between its values, so the values are
    laid out a field at a time and the records joined in one step."""
    first = value[0]
    if type(first) is not dict or not first or not all(isinstance(key, str) for key in first):
        return None
    # Plain dicts of one size that all hold every key have one key set.  A
    # dict subclass may read its items otherwise, so it takes the general path.
    plain = all(map(operator.is_, map(type, value), itertools.repeat(dict)))
    if not plain or not all(map(len(first).__eq__, map(len, value))):
        return None
    keys = sorted(first)
    try:
        fields = [list(map(operator.itemgetter(key), value)) for key in keys]
    except KeyError:  # a record with other keys
        return None
    inner = newline + "  "
    pieces, columns = [], []
    for key, values in zip(keys, fields):
        piece, texts = _field(values, inner)
        pieces.append(encode_basestring(key) + ": " + piece)
        columns += texts
    # Each record's text starts with the comma that parts it from the one
    # before; the first record's opening text is replaced by one without.
    record = "," + newline + "{" + inner + ("," + inner).join(pieces) + newline + "}"
    literals = record.split(_SLOT)
    streams = [s for pair in zip(map(itertools.repeat, literals), columns) for s in pair]
    parts = itertools.chain.from_iterable(zip(*streams, itertools.repeat(literals[-1])))
    next(parts)
    return "".join(itertools.chain((literals[0][len(newline) + 1 :],), parts))


def _field(values: list, newline: str) -> tuple:
    """One field across a list of records: its text with a slot for each
    value, and per slot the column that fills it.  Strings fill one slot,
    and arrays of strings that all have one length n fill n slots."""
    try:
        slot, column = _strings(values)
        return slot, [column]
    except TypeError:  # not only strings
        pass
    lengths = set(map(len, values)) if set(map(type, values)) <= {list, tuple} else ()
    if len(lengths) == 1 and 0 not in lengths:
        n = lengths.pop()
        try:
            slot, column = _strings(itertools.chain.from_iterable(values))
        except TypeError:  # not only strings
            pass
        else:
            inner = newline + "  "
            piece = "[" + inner + ("," + inner).join([slot] * n) + newline + "]"
            return piece, [column[j::n] for j in range(n)]
    return _SLOT, [[_dumps(item, newline) for item in values]]


def _strings(strings) -> tuple:
    """A slot for strings and the column that fills it: the strings
    themselves between quotes when none needs an escape.  TypeError when
    one is not a string."""
    strings = list(strings)
    if _ESCAPED("".join(strings)) is None:
        return '"' + _SLOT + '"', strings
    return _SLOT, list(map(encode_basestring, strings))


def canonical_dumps(payload) -> str:
    return "".join((_dumps(payload, "\n"), "\n"))


def write_canonical(path, payload) -> None:
    Path(path).write_text(canonical_dumps(payload), encoding="utf-8")


def loads(data: bytes, path):
    """The JSON value of `data`, read from `path`; what `json` cannot decode is an InputError."""
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path}: {exc}") from None


def read_json(path):
    return loads(Path(path).read_bytes(), path)
