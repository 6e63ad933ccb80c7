"""The function kernel as it was before index arithmetic, kept as a test oracle.

`apply`, `minor`, `is_polymorphism` and `enumerate_polymorphisms` are the
former `FiniteFunction.apply`, `minor`, `is_polymorphism` and
`enumerate_polymorphisms`, unchanged except that the method became a function
of the evaluated `FiniteFunction`, and `index_of` and `function_from_callable`
(which they call) came along with them.

`row_index_sets` is the former `_row_index_sets`, which built each
template's matrix row indices as lists on every call; it is unchanged except
that the block size became a parameter.

`check_minor_closure`, `check_minion_homomorphism` and `check_dr_homomorphism`
are the audits as they were before they shared one minor graph, unchanged,
with `_all_maps`, `_chains_from`, `_chain_admits_pair` and `compose_maps`;
they call this module's `minor`.  The one change: `check_dr_homomorphism`
images every member before its first chain, so a table must cover the whole
slice.

`restriction_to` is the former `restriction_to`, unchanged: it walks every
input of the function with `FiniteFunction.inputs` and keys each value by
the input's entries at the subset's positions, where the library groups the
table by the inclusion's index map.

`dictator` is the former `dictator`, unchanged: the pi-minor of the unary
identity onto the arity set, through `pcspkit.minion.minor`, where the library
now builds the table in blocks.  The property tests in tests/test_minion.py
use this module, and tests/reference_longcode.py lifts through its `dictator`.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import Iterable, Mapping, Optional, Sequence

from pcspkit import minion
from pcspkit.core import DEFAULT_BUDGET, PcspTemplate
from pcspkit.errors import InputError, ResourceError, StructuralError
from pcspkit.minion import (
    FiniteFunction,
    MinionCheck as ChainCheck,
    MinionCheck as ClosureCheck,
    MinionCheck as HomomorphismCheck,
    MinionSlice,
    _digits,
    _strides,
)


def index_of(f: FiniteFunction, args: Sequence[str]) -> int:
    base = len(f.in_domain)
    pos = {a: i for i, a in enumerate(f.in_domain)}
    idx = 0
    for value in args:
        idx = idx * base + pos[value]
    return idx


def apply(f: FiniteFunction, assignment) -> str:
    """Evaluate on a mapping label -> atom or on a tuple aligned with the
    sorted arity set."""
    if isinstance(assignment, Mapping):
        args = tuple(assignment[x] for x in f.arity_set)
    else:
        args = tuple(assignment)
    return f.table[index_of(f, args)]


def function_from_callable(arity_set, in_domain, out_domain, fn) -> FiniteFunction:
    arity_set = tuple(sorted(arity_set))
    in_domain = tuple(sorted(set(in_domain)))
    table = [
        fn(dict(zip(arity_set, args)))
        for args in itertools.product(in_domain, repeat=len(arity_set))
    ]
    return FiniteFunction(arity_set, in_domain, out_domain, table)


def dictator(arity_set, domain, coordinate: str) -> FiniteFunction:
    """The projection onto one coordinate of the arity set."""
    if coordinate not in arity_set:
        raise InputError(f"{coordinate!r} is not in the arity set")
    domain = tuple(sorted(set(domain)))
    identity = FiniteFunction._of((coordinate,), domain, domain, domain)
    return minion.minor(identity, {coordinate: coordinate}, target=arity_set)


def minor(
    t: FiniteFunction, pi: Mapping[str, str], target: Optional[Sequence[str]] = None
) -> FiniteFunction:
    """The pi-minor of t for pi: X -> Y; the result s satisfies
    s(f) = t(f o pi) for every f."""
    for x in t.arity_set:
        if x not in pi:
            raise InputError(f"minor map is missing coordinate {x!r}")
    if target is None:
        target = tuple(sorted(set(pi.values())))
    else:
        target = tuple(sorted(set(target)))
        if not set(pi.values()) <= set(target):
            raise InputError("minor map leaves the declared codomain")

    def value(g):
        return apply(t, {x: g[pi[x]] for x in t.arity_set})

    return function_from_callable(target, t.in_domain, t.out_domain, value)


def restriction_to(fn: FiniteFunction, sub_labels: Sequence[str]) -> Optional[FiniteFunction]:
    """The unique function on a label subset whose extension minor is fn, if fn
    depends only on those coordinates; None otherwise."""
    sub = minion._arity_tuple(sub_labels)
    if not set(sub) <= set(fn.arity_set):
        raise InputError("restriction labels must lie inside the arity set")
    positions = [fn.arity_set.index(x) for x in sub]
    seen = {}
    for args, value in zip(fn.inputs(), fn.table):
        key = tuple(args[p] for p in positions)
        if seen.setdefault(key, value) != value:
            return None
    table = tuple(seen[args] for args in itertools.product(fn.in_domain, repeat=len(sub)))
    return FiniteFunction._of(sub, fn.in_domain, fn.out_domain, table)


def is_polymorphism(t: FiniteFunction, template: PcspTemplate) -> bool:
    """Does applying t to the rows of every matrix of strict-relation columns
    land in the corresponding relaxed relation?"""
    strict, relaxed = template.strict, template.relaxed
    if t.in_domain != strict.domain or t.out_domain != relaxed.domain:
        raise StructuralError("function domains do not match the template")
    n = len(t.arity_set)
    for name, rel in strict.relations.items():
        target = relaxed.relations[name].tuples
        cols = rel.sorted_tuples
        for matrix in itertools.product(cols, repeat=n):
            image = tuple(
                apply(t, tuple(matrix[j][i] for j in range(n))) for i in range(rel.arity)
            )
            if image not in target:
                return False
    return True


def row_index_sets(template: PcspTemplate, n: int, block: int = 1 << 16) -> list:
    """Per strict relation, the table indices of the rows of every matrix of
    n columns: (name, relaxed tuples, head, tail).

    offsets[j][c][i] is what column c at coordinate j adds to the index of
    row i.  `tail` lists, per row, the indices over the last coordinates in
    product order, for at most `block` matrices, aligned across rows; the
    leading coordinates' offsets, `head`, are walked lazily by _blocks."""
    digit = _digits(template.strict.domain)
    out = []
    for name, rel in template.strict.relations.items():
        cols = rel.sorted_tuples
        strides = _strides(len(digit), n)
        offsets = [[[s * digit[a] for a in col] for col in cols] for s in strides]
        split = n
        while split and len(cols) ** (n - split + 1) <= block:
            split -= 1
        tail = [[0]] * rel.arity
        for coord in offsets[split:]:
            tail = [[a + c[i] for a in row for c in coord] for i, row in enumerate(tail)]
        out.append((name, template.relaxed.relations[name].tuples, offsets[:split], tail))
    return out


def enumerate_polymorphisms(
    template: PcspTemplate, arity_set: Sequence[str], budget: int = DEFAULT_BUDGET
) -> tuple:
    """The exact arity slice of the template's polymorphisms, canonically ordered."""
    arity_set = tuple(sorted(arity_set))
    a, b = template.strict.domain, template.relaxed.domain
    count = len(b) ** (len(a) ** len(arity_set))
    if count > budget:
        raise ResourceError(
            f"enumerating {count} candidate tables exceeds the budget of {budget}"
        )
    found = []
    size = len(a) ** len(arity_set)
    for table in itertools.product(b, repeat=size):
        fn = FiniteFunction(arity_set, a, b, table)
        if is_polymorphism(fn, template):
            found.append(fn)
    return tuple(found)


def compose_maps(first: Mapping, second: Mapping) -> dict:
    """second o first as coordinate maps (apply `first`, then `second`)."""
    return {x: second[y] for x, y in first.items()}


def _all_maps(x: tuple, y: tuple):
    for images in itertools.product(y, repeat=len(x)):
        yield dict(zip(x, images))


def check_minor_closure(slice_: MinionSlice) -> ClosureCheck:
    """Is the slice closed under every minor map between its declared arities?"""
    for x in slice_.arity_sets:
        for t in slice_.members(x):
            for y in slice_.arity_sets:
                for pi in _all_maps(x, y):
                    s = minor(t, pi, target=y)
                    if not slice_.contains(s):
                        return ClosureCheck(False, (t, pi, s))
    return ClosureCheck(True, None)


def check_minion_homomorphism(
    xi: Mapping[FiniteFunction, FiniteFunction],
    source: MinionSlice,
    declared: Optional[Iterable] = None,
) -> HomomorphismCheck:
    """Does xi preserve arities and every minor between the declared arities?"""
    arities = tuple(tuple(sorted(x)) for x in (declared or source.arity_sets))
    for x in arities:
        for t in source.members(x):
            if t not in xi:
                raise InputError(f"map is not total: missing a function of arity {x}")
            if xi[t].arity_set != t.arity_set:
                raise StructuralError("map does not preserve arities")
    for x in arities:
        for t in source.members(x):
            for y in arities:
                for pi in _all_maps(x, y):
                    s = minor(t, pi, target=y)
                    if not source.contains(s):
                        continue
                    if minor(xi[t], pi, target=y) != xi[s]:
                        return HomomorphismCheck(False, (t, pi, s))
    return HomomorphismCheck(True, None)


def check_dr_homomorphism(
    table, source: MinionSlice, budget: int = DEFAULT_BUDGET
) -> ChainCheck:
    """Verify the weak chain condition on every length-r minor chain whose
    members stay inside the source slice:

    for the chain t_0 -> ... -> t_r there must be i < j and g in xi(t_i),
    h in xi(t_j) with h equal to the composed-map minor of g.
    """
    r = table.r
    arities = source.arity_sets
    total = 0
    for shape in itertools.product(arities, repeat=r + 1):
        steps = len(source.members(shape[0]))
        for x, y in zip(shape, shape[1:]):
            steps *= len(y) ** len(x)
        total += steps
        if total > budget:
            raise ResourceError(f"chain enumeration exceeds the budget of {budget}")

    # Membership of each function is checked once per call: `image` raises
    # InputError on an uncovered function, so nothing is cached for it.
    image = cache(table.image)
    for t in source.all_functions():
        image(t)
    for t0 in source.all_functions():
        for chain, maps in _chains_from(t0, source, r):
            if not _chain_admits_pair(image, chain, maps):
                return ChainCheck(False, (chain, maps))
    return ChainCheck(True, None)


def _chains_from(t0: FiniteFunction, source: MinionSlice, r: int):
    def extend(chain, maps):
        if len(maps) == r:
            yield tuple(chain), tuple(maps)
            return
        current = chain[-1]
        for y in source.arity_sets:
            for pi in _all_maps(current.arity_set, y):
                nxt = minor(current, pi, target=y)
                if not source.contains(nxt):
                    continue
                yield from extend(chain + [nxt], maps + [pi])

    yield from extend([t0], [])


def _chain_admits_pair(image, chain, maps) -> bool:
    # Every member first, so an uncovered one raises even if an early pair agrees.
    images = [image(t) for t in chain]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            composed = maps[i]
            for step in maps[i + 1 : j]:
                composed = compose_maps(composed, step)
            for g in images[i]:
                target = minor(g, composed, target=chain[j].arity_set)
                if any(target == h for h in images[j]):
                    return True
    return False
