"""Finite functions of set arity, minors, polymorphisms, set-valued tables,
and relations lifted to a slice.

Arities are ordered label sets rather than integers, which lets the same
machinery handle coordinates named by variables, by domain elements, or by
relation tuples without choosing bijections.  Tables are stored densely as
|A|^|X| value vectors in mixed-radix order over the sorted arity labels, so
function equality is table equality and serialization is bit-exact.

Inside, a function is its table and an argument is a table index: a minor or a
restriction remaps the table by one cached index per map (`_minor_index`), and
a polymorphism check looks up, for every matrix of strict-relation columns,
the table indices of its rows.  Enumeration sets a table's entries one index
at a time, in `core.backtrack`, and checks each matrix once its rows are set.
The row indices depend only on the template and the arity, so they are built
once per template value and arity and held, as int arrays, in a cache of at
most 32 such entries (`_row_sets`); each entry holds at most _BLOCK matrices'
row indices per strict relation.

The audits share one minor graph per call.  Functions are interned by value
(arity set, both domains and table), and a member's minor along a map between
the declared arities is computed once, through that map's index.  The chain
audit prices its chains per arity set, then images every member, in slice
order, and walks chains in lexicographic order with `core.chain_walk`, moving
images along the minor graph's maps.  The identity table's image is t -> {t},
untested: t -> {t} meets the chain condition on any slice, and a decoder
checks membership itself; an explicit table refuses a function it does not
cover.

A function from outside is validated: the public `FiniteFunction`
constructor, every `from_payload` and `reduction.read_cloud_functions` sort
its arity set and domains and check its table.  The builders whose output is
canonical by construction (`enumerate_polymorphisms`, `minor` after its own
checks of the map and target, `dictator`, `restriction_to` and the minor
graph) trust their parts and build through `FiniteFunction._of`.

A minion is infinite; everything here works with finite slices, and every
homomorphism check is a bounded verification over the arity sets it is given.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterable, Mapping, Optional, Sequence

from .core import DEFAULT_BUDGET, PcspTemplate, _count_text, _is_kind, _payload_field
from .core import backtrack, chain_walk
from .errors import InputError, ResourceError, StructuralError


def tuple_label(t: Sequence[str]) -> str:
    """Canonical label for a relation tuple used as an arity coordinate."""
    return ",".join(t)


@dataclass(frozen=True)
class FiniteFunction:
    """A total function in_domain^X -> out_domain with explicit arity set X."""

    arity_set: tuple
    in_domain: tuple
    out_domain: tuple
    table: tuple

    def __init__(self, arity_set, in_domain, out_domain, table):
        arity_set = _arity_tuple(arity_set)
        in_domain = tuple(sorted(set(in_domain)))
        out_domain = tuple(sorted(set(out_domain)))
        table = tuple(table)
        if len(table) != len(in_domain) ** len(arity_set):
            raise InputError(
                f"table has {len(table)} entries, expected "
                f"{len(in_domain) ** len(arity_set)}"
            )
        try:
            clean = set(table).issubset(out_domain)
        except TypeError:  # an unhashable value, named below
            clean = False
        if not clean:
            for value in table:
                if value not in out_domain:
                    raise InputError(f"table value {value!r} outside the output domain")
        vars(self).update(
            arity_set=arity_set, in_domain=in_domain, out_domain=out_domain, table=table
        )

    @classmethod
    def _of(cls, arity_set: tuple, in_domain: tuple, out_domain: tuple, table: tuple):
        """A function from parts already checked: a sorted arity set of distinct
        labels, sorted domains, and a tuple of |in_domain|^|arity_set| values
        in out_domain.  Only builders whose output is canonical by
        construction call it; values read from outside go through __init__."""
        fn = object.__new__(cls)
        vars(fn).update(
            arity_set=arity_set, in_domain=in_domain, out_domain=out_domain, table=table
        )
        return fn

    def index_of(self, args: Sequence[str]) -> int:
        base = len(self.in_domain)
        digit = _digits(self.in_domain)
        idx = 0
        for value in args:
            idx = idx * base + digit[value]
        return idx

    def apply(self, assignment) -> str:
        """Evaluate on a mapping label -> atom or on a sequence aligned with
        the sorted arity set."""
        if hasattr(assignment, "keys"):
            assignment = [assignment[x] for x in self.arity_set]
        return self.table[self.index_of(assignment)]

    def inputs(self):
        """All argument tuples in table order."""
        return itertools.product(self.in_domain, repeat=len(self.arity_set))

    def to_payload(self) -> dict:
        return {
            "arity_set": list(self.arity_set),
            "in_domain": list(self.in_domain),
            "out_domain": list(self.out_domain),
            "table": list(self.table),
        }

    @staticmethod
    def from_payload(payload: Mapping, path: str = "") -> "FiniteFunction":
        """Read from JSON; errors name the field under `path`."""
        field = partial(_payload_field, payload, path, kind=list, items=str)
        return FiniteFunction(
            field("arity_set"), field("in_domain"), field("out_domain"), field("table")
        )


def _arity_tuple(labels) -> tuple:
    """The sorted arity set, refused when empty or when a label repeats."""
    arity_set = tuple(sorted(labels))
    if not arity_set:
        raise InputError("arity set must be nonempty")
    if len(arity_set) != len(set(arity_set)):
        raise InputError("arity set has repeated labels")
    return arity_set


@lru_cache(maxsize=256)
def _digits(domain: tuple) -> dict:
    """Atom -> digit in a sorted domain, computed once per domain and shared
    by every caller, which only reads it."""
    return {a: i for i, a in enumerate(domain)}


def _strides(base: int, n: int) -> list:
    """Table-index weight of each of n coordinates: the first is the most
    significant digit."""
    return [base ** (n - 1 - j) for j in range(n)]


def dictator(arity_set, domain, coordinate: str) -> FiniteFunction:
    """The projection onto one coordinate of the arity set.  Its table is
    built in blocks: with the coordinate at place j of the n sorted labels,
    each atom repeated |A|^(n-1-j) times, that block repeated |A|^j times."""
    if coordinate not in arity_set:
        raise InputError(f"{coordinate!r} is not in the arity set")
    arity_set, domain = tuple(sorted(set(arity_set))), tuple(sorted(set(domain)))
    n, j = len(arity_set), arity_set.index(coordinate)
    run = len(domain) ** (n - 1 - j)
    block = tuple(itertools.chain.from_iterable(itertools.repeat(a, run) for a in domain))
    return FiniteFunction._of(arity_set, domain, domain, block * len(domain) ** j)


def minor(
    t: FiniteFunction, pi: Mapping[str, str], target: Optional[Sequence[str]] = None
) -> FiniteFunction:
    """The pi-minor of t for pi: X -> Y; the result s satisfies
    s(f) = t(f o pi) for every f.

    The codomain Y defaults to the image of pi; pass `target` when the minor
    should live on a larger arity set (maps need not be surjective).
    """
    try:
        images = tuple(map(pi.__getitem__, t.arity_set))
    except KeyError as exc:
        raise InputError(f"minor map is missing coordinate {exc.args[0]!r}") from None
    if target is None:
        target = tuple(sorted(set(pi.values())))
    else:
        target = tuple(sorted(set(target)))
        if not set(pi.values()) <= set(target):
            raise InputError("minor map leaves the declared codomain")
    if images == target:  # an order-preserving relabelling keeps the table
        return FiniteFunction._of(target, t.in_domain, t.out_domain, t.table)
    idx = _minor_index(len(t.in_domain), t.arity_set, images, target)
    table = tuple(map(t.table.__getitem__, idx))
    return FiniteFunction._of(target, t.in_domain, t.out_domain, table)


@lru_cache(maxsize=128)
def _minor_index(base: int, arity_set: tuple, images: tuple, target: tuple) -> array:
    """Per table index of f on the sorted `target`, the table index of f o pi
    on the sorted `arity_set`, along which pi takes the values `images`.  Digit
    d at coordinate y adds d times the summed strides of y's preimages.  Built
    once per key, in the narrowest unsigned array, which callers only read."""
    weight = dict.fromkeys(target, 0)
    for y, stride in zip(images, _strides(base, len(arity_set))):
        weight[y] += stride
    idx = [0]
    for y in target:
        steps = [d * weight[y] for d in range(base)]
        idx = [i + step for i in idx for step in steps]
    return array(_index_typecode(base ** len(arity_set)), idx)


# Matrices whose row indices a membership check holds in memory at once.
_BLOCK = 1 << 16


def _row_index_sets(template: PcspTemplate, n: int) -> tuple:
    """Per strict relation, the table indices of the rows of every matrix of
    n columns: (name, relaxed tuples, head, tail), built once per template
    value and n (`_row_sets`) and only read by callers.  A template is not
    hashable, so the key is its strict domain, each strict relation's sorted
    tuples and the relaxed relation's tuples, never its identity."""
    relations = tuple(
        (name, rel.sorted_tuples, template.relaxed.relations[name].tuples)
        for name, rel in template.strict.relations.items()
    )
    return _row_sets(template.strict.domain, relations, n, _BLOCK)


@lru_cache(maxsize=32)
def _row_sets(domain: tuple, relations: tuple, n: int, block: int) -> tuple:
    """The rows `_row_index_sets` returns, keyed by value: the block size is
    part of the key, so a caller that lowers _BLOCK gets rows of its own.

    offsets[j][c][i] is what column c at coordinate j adds to the index of
    row i.  `tail` holds, per row, the indices over the last coordinates in
    product order, for at most `block` matrices, aligned across rows, as an
    array of the smallest unsigned type that holds the table's indices; the
    leading coordinates' offsets, `head`, are walked lazily by _blocks."""
    digit = _digits(domain)
    typecode = _index_typecode(len(domain) ** n)
    out = []
    for name, cols, target in relations:
        offsets = tuple(
            tuple(tuple(s * digit[a] for a in col) for col in cols)
            for s in _strides(len(domain), n)
        )
        split = n
        while split and len(cols) ** (n - split + 1) <= block:
            split -= 1
        tail = [[0]] * len(cols[0])
        for coord in offsets[split:]:
            tail = [[a + c[i] for a in row for c in coord] for i, row in enumerate(tail)]
        out.append((name, target, offsets[:split], tuple(array(typecode, row) for row in tail)))
    return tuple(out)


def _index_typecode(size: int) -> str:
    """The smallest unsigned array type that holds every index below `size`."""
    return next(code for code in "BHIQ" if size <= 1 << 8 * array(code).itemsize)


def _blocks(head: list, tail: list):
    """The per-row index lists of each block of matrices: `tail` shifted by
    every choice of columns at the leading coordinates."""
    if not head:
        return (tail,)
    return (
        [[o + i for i in r] for o, r in zip(map(sum, zip(*parts)), tail)]
        for parts in itertools.product(*head)
    )


def _preserves(table: Sequence, row_sets: list) -> bool:
    """Does the table send the rows of every matrix into the relaxed
    relation?  Stops at the first block holding a matrix that fails."""
    get = table.__getitem__
    for _, target, head, tail in row_sets:
        for rows in _blocks(head, tail):
            if not target.issuperset(zip(*[map(get, r) for r in rows])):
                return False
    return True


def is_polymorphism(t: FiniteFunction, template: PcspTemplate) -> bool:
    """Does applying t to the rows of every matrix of strict-relation columns
    land in the corresponding relaxed relation?"""
    strict, relaxed = template.strict, template.relaxed
    if t.in_domain != strict.domain or t.out_domain != relaxed.domain:
        raise StructuralError("function domains do not match the template")
    return _preserves(t.table, _row_index_sets(template, len(t.arity_set)))


def _price_matrices(template: PcspTemplate, n: int, budget: int) -> None:
    """Refuse the matrices of n strict-relation columns, the ones a membership
    check or a search at arity n walks, when their row entries exceed the budget."""
    relations = template.strict.relations.values()
    matrices = sum(len(rel.tuples) ** n for rel in relations)
    entries = sum(len(rel.tuples) ** n * rel.arity for rel in relations)
    if entries > budget:
        raise ResourceError(
            f"checking {_count_text(matrices)} matrices takes {_count_text(entries)} row entries, "
            f"over the budget of {budget}"
        )


def enumerate_polymorphisms(
    template: PcspTemplate, arity_set: Sequence[str], budget: int = DEFAULT_BUDGET
) -> tuple:
    """The exact arity slice of the template's polymorphisms, canonically ordered.

    `core.backtrack` sets the table's entries, trying values in the relaxed
    domain's order, and checks each matrix, a set lookup of its rows' values,
    as soon as the entry of its last row is set.  Three counts are held to
    `budget`: the matrices' row entries, counted before any is built; the
    values tried, each a search node; and the entries of the tables found.
    Past any of them it raises ResourceError and returns nothing.
    """
    arity_set = _arity_tuple(arity_set)
    n = len(arity_set)
    _price_matrices(template, n, budget)
    checks = [
        (rows, target.__contains__)
        for _, target, head, tail in _row_index_sets(template, n)
        for block in _blocks(head, tail)
        for rows in zip(*block)
    ]
    a, b = template.strict.domain, template.relaxed.domain
    size = len(a) ** n
    # one table past what the budget holds is enough to refuse
    found = sorted(itertools.islice(
        backtrack([b] * size, checks, budget, "polymorphism search"), budget // size + 1
    ))
    if len(found) * size > budget:
        raise ResourceError(f"the tables found hold over {budget} entries")
    return tuple(FiniteFunction._of(arity_set, a, b, t) for t in found)


@dataclass(frozen=True)
class MinionSlice:
    """A finite, explicitly enumerated family of functions grouped by arity set."""

    in_domain: tuple
    out_domain: tuple
    functions: dict

    def __init__(self, in_domain, out_domain, functions: Mapping):
        in_domain = tuple(sorted(set(in_domain)))
        out_domain = tuple(sorted(set(out_domain)))
        grouped = {}
        for arity_set in sorted(functions, key=lambda x: (len(x), x)):
            fns = tuple(functions[arity_set])
            key = _arity_tuple(arity_set)
            for fn in fns:
                if fn.arity_set != key:
                    raise StructuralError(f"function filed under wrong arity {key}")
                if fn.in_domain != in_domain or fn.out_domain != out_domain:
                    raise StructuralError("function domains disagree with the slice")
            grouped[key] = tuple(sorted(fns, key=lambda f: f.table))
        object.__setattr__(self, "in_domain", in_domain)
        object.__setattr__(self, "out_domain", out_domain)
        object.__setattr__(self, "functions", grouped)

    @property
    def arity_sets(self) -> tuple:
        return tuple(self.functions)

    def members(self, arity_set) -> tuple:
        return self.functions.get(tuple(sorted(arity_set)), ())

    def contains(self, fn: FiniteFunction) -> bool:
        return fn in self.functions.get(fn.arity_set, ())

    def all_functions(self):
        for fns in self.functions.values():
            yield from fns

    def to_payload(self) -> dict:
        return {
            "in_domain": list(self.in_domain),
            "out_domain": list(self.out_domain),
            "functions": [fn.to_payload() for fn in self.all_functions()],
        }

    @staticmethod
    def from_payload(payload: Mapping) -> "MinionSlice":
        field = partial(_payload_field, payload, "")
        grouped = {}
        for i, item in enumerate(field("functions", list)):
            fn = FiniteFunction.from_payload(item, f"functions[{i}]")
            grouped.setdefault(fn.arity_set, []).append(fn)
        return MinionSlice(
            field("in_domain", list, items=str), field("out_domain", list, items=str), grouped
        )


def polymorphism_slice(
    template: PcspTemplate, arity_sets: Iterable, budget: int = DEFAULT_BUDGET
) -> MinionSlice:
    return MinionSlice(
        template.strict.domain,
        template.relaxed.domain,
        {
            tuple(sorted(x)): enumerate_polymorphisms(template, x, budget=budget)
            for x in arity_sets
        },
    )


class LazyPolymorphismSlice:
    """Membership-only view of a template's polymorphisms.

    Large arities make enumeration impossible while membership stays cheap;
    this is the slice handed to the decoding pipeline.
    """

    def __init__(self, template: PcspTemplate, budget: int = DEFAULT_BUDGET):
        self.template = template
        self.in_domain = template.strict.domain
        self.out_domain = template.relaxed.domain
        self.budget = budget
        self._cache: dict = {}

    def contains(self, fn: FiniteFunction) -> bool:
        if fn.in_domain != self.in_domain or fn.out_domain != self.out_domain:
            return False
        return is_polymorphism(fn, self.template)

    def members(self, arity_set) -> tuple:
        key = tuple(sorted(arity_set))
        if key not in self._cache:
            self._cache[key] = enumerate_polymorphisms(self.template, key, budget=self.budget)
        return self._cache[key]


class LazyDictatorSlice:
    """The projections on a fixed domain, available at every arity set."""

    def __init__(self, domain):
        self.in_domain = tuple(sorted(set(domain)))
        self.out_domain = self.in_domain

    def members(self, arity_set) -> tuple:
        key = tuple(sorted(arity_set))
        return tuple(dictator(key, self.in_domain, c) for c in key)

    def contains(self, fn: FiniteFunction) -> bool:
        if fn.in_domain != self.in_domain or fn.out_domain != self.out_domain:
            return False
        return any(fn == cand for cand in self.members(fn.arity_set))


@dataclass(frozen=True)
class MinionCheck:
    """An audit's verdict and, on failure, its first counterexample: (t, pi,
    the minor) for closure, (functions, maps) for chains."""

    ok: bool
    counterexample: Optional[tuple] = None

    def __bool__(self):
        return self.ok


class _MinorGraph:
    """A slice's members at the given arities, numbered, and each member's
    minor along every map between those arities, computed once.

    Functions are interned by value, (arity set, in-domain, out-domain,
    table), so a function over other domains never shares an id with a
    member; members come first, so an id below `size` is a member.
    `edges[i][m]` is the id of member i's minor along `maps[x][m]`, the m-th
    (images, target) out of its arity set x: targets in the given order, then
    images in product order.  A map's table index is `_minor_index`'s.
    """

    def __init__(self, slice_, arities: Sequence[tuple]):
        self.functions, self._ids, self._minors = [], {}, {}
        for x in arities:
            for t in slice_.members(x):
                self.intern(t)
        self.size = len(self.functions)
        self.maps = {
            x: [(images, y) for y in arities for images in itertools.product(y, repeat=len(x))]
            for x in dict.fromkeys(t.arity_set for t in self.functions)
        }
        self.edges = [
            [self.minor(i, m) for m in range(len(self.maps[t.arity_set]))]
            for i, t in enumerate(self.functions[: self.size])
        ]

    def intern(self, fn: FiniteFunction) -> int:
        return self._intern((fn.arity_set, fn.in_domain, fn.out_domain, fn.table), fn)

    def _intern(self, key: tuple, fn: Optional[FiniteFunction] = None) -> int:
        i = self._ids.setdefault(key, len(self.functions))
        if i == len(self.functions):
            self.functions.append(fn or FiniteFunction._of(*key))
        return i

    def minor(self, f: int, m: int) -> int:
        """The id of f's minor along the m-th map out of its arity set."""
        if (f, m) not in self._minors:
            fn = self.functions[f]
            images, y = self.maps[fn.arity_set][m]
            idx = _minor_index(len(fn.in_domain), fn.arity_set, images, y)
            table = tuple(map(fn.table.__getitem__, idx))
            self._minors[f, m] = self._intern((y, fn.in_domain, fn.out_domain, table))
        return self._minors[f, m]

    def pi(self, t: FiniteFunction, m: int) -> dict:
        """The m-th map out of t's arity set, as a dict."""
        return dict(zip(t.arity_set, self.maps[t.arity_set][m][0]))


def check_minor_closure(slice_: MinionSlice) -> MinionCheck:
    """Is the slice closed under every minor map between its declared arities?"""
    graph = _MinorGraph(slice_, slice_.arity_sets)
    for i, t in enumerate(graph.functions[: graph.size]):
        for m, s in enumerate(graph.edges[i]):
            if s >= graph.size:
                return MinionCheck(False, (t, graph.pi(t, m), graph.functions[s]))
    return MinionCheck(True, None)


# -- set-valued chain-preserving tables ---------------------------------------


def _positive_ints(**values) -> None:
    """Refuse a table width or chain length that is not a positive integer,
    a boolean included."""
    for name, value in values.items():
        if not _is_kind(value, int) or value < 1:
            raise InputError(f"{name} must be a positive integer, got {value!r}")


def _sides(template: PcspTemplate) -> tuple:
    return template.strict.domain, template.relaxed.domain


class ExplicitDrTable:
    """A finite set-valued map between slices: each source function gets a
    nonempty set of at most d same-arity target functions."""

    kind = "explicit"

    def __init__(self, d: int, r: int, mapping: Mapping[FiniteFunction, Sequence[FiniteFunction]]):
        _positive_ints(d=d, r=r)
        self.d = d
        self.r = r
        self.mapping = {}
        for t, images in mapping.items():
            images = tuple(images)
            if not images:
                raise StructuralError("image sets must be nonempty")
            if len(images) > d:
                raise StructuralError(f"image set of size {len(images)} exceeds d={d}")
            for g in images:
                if g.arity_set != t.arity_set:
                    raise StructuralError("image function changes the arity set")
            self.mapping[t] = images

    def image(self, t: FiniteFunction) -> tuple:
        if t not in self.mapping:
            raise InputError(f"table does not cover a function of arity {t.arity_set}")
        return self.mapping[t]

    def fits(self, source: PcspTemplate, target: PcspTemplate) -> None:
        """Refuse, with an InputError, a function not over the target's
        domains or an image not over the source's."""
        for t, images in self.mapping.items():
            if (t.in_domain, t.out_domain) != _sides(target):
                raise InputError(
                    f"the explicit table's function of arity {t.arity_set} "
                    "is not over the target's strict and relaxed domains"
                )
            if any((g.in_domain, g.out_domain) != _sides(source) for g in images):
                raise InputError(
                    f"an image of the explicit table's function of arity {t.arity_set} "
                    "is not over the source's strict and relaxed domains"
                )

    def to_payload(self) -> dict:
        items = sorted(self.mapping.items(), key=lambda kv: (kv[0].arity_set, kv[0].table))
        return {
            "kind": self.kind,
            "d": self.d,
            "r": self.r,
            "source": [t.to_payload() for t, _ in items],
            "images": [[g.to_payload() for g in images] for _, images in items],
        }

    @staticmethod
    def from_payload(payload: Mapping) -> "ExplicitDrTable":
        field = partial(_payload_field, payload, "")
        source = [
            FiniteFunction.from_payload(p, f"source[{i}]")
            for i, p in enumerate(field("source", list))
        ]
        images = [
            tuple(FiniteFunction.from_payload(p, f"images[{i}][{j}]") for j, p in enumerate(group))
            for i, group in enumerate(field("images", list, items=list))
        ]
        if len(images) != len(source):
            raise InputError("images: expected one list per source function")
        first = {}
        for i, t in enumerate(source):
            if first.setdefault(t, i) != i:
                raise InputError(f"source[{i}]: repeats the function source[{first[t]}]")
        return ExplicitDrTable(field("d", int), field("r", int), dict(zip(source, images)))


class IdentityDrTable:
    """t maps to {t}, with no membership test: the sharpest table, evaluable
    at any arity without enumerating a slice."""

    kind = "identity"

    def __init__(self, template: PcspTemplate, r: int = 1):
        _positive_ints(r=r)
        self.template = template
        self.d = 1
        self.r = r

    def image(self, t: FiniteFunction) -> tuple:
        return (t,)

    def fits(self, source: PcspTemplate, target: PcspTemplate) -> None:
        """Refuse, with an InputError, a template other than the target, or a
        target over other domains than the source: the images live there."""
        if self.template != target:
            raise InputError("the identity table's template is not the target template")
        if _sides(target) != _sides(source):
            raise InputError(
                "the identity table's images are not over the source's strict and relaxed domains"
            )

    def to_payload(self) -> dict:
        return {"kind": self.kind, "d": self.d, "r": self.r, "template": self.template.to_payload()}

    @staticmethod
    def from_payload(payload: Mapping) -> "IdentityDrTable":
        field = partial(_payload_field, payload, "")
        template = PcspTemplate.from_payload(field("template", Mapping))
        if field("d", int) != 1:
            raise InputError(f"d: the identity table has width 1, got {payload['d']}")
        return IdentityDrTable(template, r=field("r", int))


def dr_table_from_payload(payload: Mapping):
    """A chain table read by the kind its payload names."""
    kind = _payload_field(payload, "", "kind", str)
    for table in (IdentityDrTable, ExplicitDrTable):
        if kind == table.kind:
            return table.from_payload(payload)
    raise InputError(f"unknown table kind {kind!r}")


def check_dr_homomorphism(
    table, source: MinionSlice, budget: int = DEFAULT_BUDGET
) -> MinionCheck:
    """Verify the weak chain condition on every length-r minor chain whose
    members stay inside the source slice:

    for the chain t_0 -> ... -> t_r there must be i < j and g in xi(t_i),
    h in xi(t_j) with h equal to the composed-map minor of g.  At d = r = 1
    this is the minion-homomorphism check: xi commutes with every minor
    between the slice's arities.
    """
    r = table.r
    arities = source.arity_sets
    # ends[y]: the chains of one more member each round, counted by the arity
    # set they end on.  Their sum never shrinks, so once past the budget it stays.
    ends = {x: len(source.members(x)) for x in arities}
    for _ in range(r):
        if sum(ends.values()) > budget:
            break
        ends = {y: sum(n * len(y) ** len(x) for x, n in ends.items()) for y in arities}
    if sum(ends.values()) > budget:
        raise ResourceError(f"chain enumeration exceeds the budget of {budget}")

    graph = _MinorGraph(source, arities)
    # `table.image` raises InputError on a member it does not cover, so a
    # table that misses one is refused before any chain is judged.
    images = [frozenset(map(graph.intern, table.image(t))) for t in graph.functions[: graph.size]]

    def children(path: tuple):
        if not path:
            return zip(itertools.repeat(None), range(graph.size), images)
        return ((m, j, images[j]) for m, j in enumerate(graph.edges[path[-1]]) if j < graph.size)

    failed = chain_walk(r + 1, children, graph.minor)
    if failed is None:
        return MinionCheck(True, None)
    chain = tuple(graph.functions[i] for i in failed[0])
    maps = tuple(graph.pi(t, m) for t, m in zip(chain, failed[1]))
    return MinionCheck(False, (chain, maps))


# -- lifted relations and their decoder ---------------------------------------


def free_relation(labels: Sequence[str], slice_, rel_tuples: Iterable) -> frozenset:
    """The lift of a relation R over C = `labels` to the slice's C-ary
    members: the tuples (s_1, ..., s_m) obtained from each R-ary member by
    the coordinate projections R -> C."""
    labels = tuple(sorted(labels))
    rel = sorted(tuple(t) for t in rel_tuples)
    if not rel:
        raise InputError("relations must be nonempty")
    arity_labels = tuple(tuple_label(t) for t in rel)
    projections = [dict(zip(arity_labels, column)) for column in zip(*rel)]
    members = slice_.members(arity_labels)
    return frozenset(tuple(minor(t, pi, target=labels) for pi in projections) for t in members)


def restriction_to(fn: FiniteFunction, sub_labels: Sequence[str]) -> Optional[FiniteFunction]:
    """The unique function on a label subset whose extension minor is fn, if fn
    depends only on those coordinates; None otherwise."""
    sub = _arity_tuple(sub_labels)
    if not set(sub) <= set(fn.arity_set):
        raise InputError("restriction labels must lie inside the arity set")
    index = _minor_index(len(fn.in_domain), sub, sub, fn.arity_set)  # the inclusion's
    seen = dict(zip(index, fn.table))
    table = tuple(map(seen.__getitem__, range(len(seen))))
    if tuple(map(table.__getitem__, index)) != fn.table:  # fn reads outside sub
        return None
    return FiniteFunction._of(sub, fn.in_domain, fn.out_domain, table)


def decode_partial_map_constraint(
    s1: FiniteFunction,
    s2: FiniteFunction,
    c1: Sequence[str],
    c2: Sequence[str],
    pi: Mapping[str, str],
    slice_,
) -> Optional[tuple]:
    """Invert a graph-of-a-map free constraint: recover the unique pair
    (t1, t2) of slice members on the sub-arities with t1 mapping onto t2 along
    pi and each t_i extending to s_i, or None when (s1, s2) is not in the
    lifted relation.
    """
    c1 = tuple(sorted(c1))
    c2 = tuple(sorted(c2))
    for x in c1:
        if x not in pi:
            raise InputError(f"partial map is missing {x!r}")
        if pi[x] not in c2:
            raise InputError(f"partial map sends {x!r} outside its codomain")
    t1 = s1 if c1 == s1.arity_set else restriction_to(s1, c1)
    if t1 is None:
        return None
    t2 = s2 if c2 == s2.arity_set else restriction_to(s2, c2)
    if t2 is None:
        return None
    if minor(t1, dict(pi), target=c2) != t2:
        return None
    if not (slice_.contains(t1) and slice_.contains(t2)):
        return None
    return t1, t2
