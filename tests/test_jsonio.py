"""Canonical JSON: the writer against the stdlib's indented encoder."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from pcspkit import jsonio


def reference(payload) -> str:
    """The text canonical_dumps stands for, written by json's own indenting
    (pure-Python) encoder."""
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# JSON's structural characters, its escapes, control characters and non-ASCII
# text, next to arbitrary code points.
special = st.sampled_from(list('[]{}",\\:\n\r\t\x00\x1f\x7f é漢😀 '))
strings = st.text(alphabet=special | st.characters(), max_size=8)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([0.0, -0.0, 1e300, -1e-300, float("inf")])
    | strings
)


@st.composite
def record_lists(draw, children):
    """Lists of dicts with one set of string keys, each key's values of one
    kind (strings, string pairs, short string arrays that may be empty, or
    any child), sometimes with an entry that breaks the pattern: a dict
    with other keys, an entry that is not a dict, or a dict whose keys are
    not strings."""
    keys = draw(st.lists(strings, min_size=1, max_size=3, unique=True))
    kinds = [strings, st.lists(strings, min_size=2, max_size=2), st.lists(strings, max_size=2),
             st.just([]), children]
    fields = {key: draw(st.sampled_from(kinds)) for key in keys}
    records = draw(st.lists(st.fixed_dictionaries(fields), min_size=1, max_size=4))
    odd = draw(st.sampled_from([None, "other keys", "not a dict", "keys not strings"]))
    if odd is not None:
        entry = {
            "other keys": st.dictionaries(strings, children, max_size=3),
            "not a dict": children,
            "keys not strings": st.dictionaries(st.integers(), children, min_size=1, max_size=2),
        }[odd]
        records.insert(draw(st.integers(0, len(records))), draw(entry))
    return records


def containers(children):
    return (
        record_lists(children)
        | st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.lists(strings, max_size=4)
        | st.dictionaries(strings, children, max_size=4)
        | st.dictionaries(st.integers() | st.booleans(), children, max_size=4)
        | st.dictionaries(st.floats(allow_nan=False), children, max_size=3)
        | st.dictionaries(st.none(), children, max_size=1)
    )


payloads = st.recursive(scalars, containers, max_leaves=30)


class TestCanonicalDumps:
    @settings(max_examples=400, deadline=None)
    @given(payloads)
    def test_same_text_as_the_indenting_encoder(self, payload):
        assert jsonio.canonical_dumps(payload) == reference(payload)

    @settings(max_examples=300, deadline=None)
    @given(record_lists(scalars | st.lists(scalars, max_size=3) | st.dictionaries(strings, scalars, max_size=3)))
    def test_lists_of_records_are_the_same_text(self, payload):
        assert jsonio.canonical_dumps(payload) == reference(payload)
        assert jsonio.canonical_dumps({"records": payload}) == reference({"records": payload})

    @pytest.mark.parametrize(
        "payload",
        [
            {"a": ("x", "y"), "b": (1, ("z",), ()), "c": [()]},
            {1: "a", 10: "b", 2: ["c", {3: "d"}]},
            {True: 1, False: []},
            {None: "n"},
            {1.5: "f", -0.0: "z"},
            [[], {}, [[]], [{}], {"": []}],
            [{"scope": ["x", "y"], "relation": "neq"}, {"scope": ("y", "x"), "relation": "neq"}],
            [{"a": "q\"uote", "b": ["{}", "\x00"]}, {"a": "plain", "b": ["", "}{"]}],
            [{"a": [], "b": {}}, {"a": [], "b": {"c": [{"d": 1}]}}],
            [{"a": "x"}, {"a": "y", "b": "z"}],
            [{"a": "x", "b": "z"}, {"a": "y"}],
            [{"a": "x"}, {"b": "y"}],
            [{"a": "x"}, "y"],
            [{1: "x"}, {1: "y"}],
            [{"a": ["x"]}, {"a": ["x", "y"]}, {"a": "z"}],
            -0.0,
            "line\nbreak and \"quotes\" [{,}]",
            None,
        ],
    )
    def test_tuples_and_keys_that_are_not_strings(self, payload):
        assert jsonio.canonical_dumps(payload) == reference(payload)

    class Upper(dict):
        """A dict subclass whose lookups differ from its items."""

        def __getitem__(self, key):
            return str(super().__getitem__(key)).upper()

    @pytest.mark.parametrize(
        "payload",
        [
            # one size, other keys: in the first record, and after it
            [{"a": "x", "b": "y"}, {"a": "x", "c": "y"}],
            [{"a": "x", "b": "y"}, {"a": "x", "b": "y"}, {"b": "y", "c": "x"}],
            [{"a": "x"}, {"b": "x"}, {"a": "y"}],
            # dict subclasses, alone, first and after plain dicts
            [Upper(a="x", b="y")],
            [Upper(a="x"), {"a": "y"}],
            [{"a": "x"}, Upper(a="y")],
            [{"a": "x"}, Upper(a="y", b="z")],
            # dicts mixed with lists
            [{"a": "x"}, ["a"]],
            [["a"], {"a": "x"}],
            [{"a": ["x", "y"]}, ["x", "y"], {"a": ["z", "w"]}],
        ],
    )
    def test_records_that_break_the_pattern(self, payload):
        assert jsonio.canonical_dumps(payload) == reference(payload)
        assert jsonio.canonical_dumps({"records": payload}) == reference({"records": payload})

    # Maps whose keys and values are all strings without an escape take the
    # string-map path, laid out from a key column and a value column; every
    # other dict takes the entry-by-entry path.
    @pytest.mark.parametrize(
        "payload, string_map",
        [
            ({f"p{i:04d}": "01"[i % 3 % 2] for i in reversed(range(2000))}, True),
            ({"b": "y", "é漢😀": "", "": "[{,}]", "a": "x"}, True),
            ({"b": "y", 'q"uote': "x", "a": "z"}, False),
            ({"b": "y", "c": "x", "a": "line\nbreak"}, False),
            ({"a": "x", "b": "y", "z": 1}, False),
            ({"a": "x", "b": "y", "z": ["x"]}, False),
            ({1: "a", 10: "b", 2: "c"}, False),
            ({True: "t", False: "f"}, False),
            (Upper(a="x", b="y"), False),
            ({"values": Upper(a="x", b="y"), "side": "strict"}, False),
        ],
    )
    def test_string_maps(self, payload, string_map):
        assert jsonio.canonical_dumps(payload) == reference(payload)
        assert jsonio.canonical_dumps({"values": payload}) == reference({"values": payload})
        laid_out = type(payload) is dict and jsonio._string_map(payload, "\n  ") is not None
        assert laid_out is string_map

    @pytest.mark.parametrize(
        "payload",
        [
            {1: "a", "b": "c"},
            {"b": "c", 1: "a"},
            {"a": {1: "x", "b": "y"}},
            {(1, 2): "t"},
            [object()],
            {"a": {1, 2}},
            [{"a": "x"}, {"a": {1, 2}}],
        ],
    )
    def test_what_json_refuses_is_refused(self, payload):
        with pytest.raises(TypeError):
            reference(payload)
        with pytest.raises(TypeError):
            jsonio.canonical_dumps(payload)
