"""Finite relational structures, (P)CSP templates and instances, and brute-force solvers.

Atoms and variables are plain strings at the JSON boundary.  Every container
is sorted at construction time (domains, variable sets, relation names), so
equal objects serialize to identical bytes and every enumeration below is
deterministic.  Constraint lists keep their given order because violations
are reported by constraint index.

Inside, an instance's scopes are integers, indices into its sorted variable
tuple: evaluation, brute force and induced sub-instances run on them, and
variable names appear only in `Instance.to_payload`, `Instance.from_payload`
and the `Instance.constraints` view.  The subset lattice is on integers too:
the partial solutions on every k_i-subset are found from the scopes inside
it, and one restriction map between nested subsets serves both subset
reductions.

One backtracking search, `backtrack`, serves polymorphism enumeration, the
label cover chain search and the template's homomorphism check.  It sets items
in an order fixed before it starts (`completion_order`), judges each check
once its last item is set, reading its picks with a getter built once per
check before the search, counts nodes against a budget, and keeps its path on
an explicit stack, so no instance is deep enough to reach the recursion limit.

One chain walk, `chain_walk`, serves both PAS consistency and the (d, r)
chain audit.  A chain is broken unless some earlier member's image, moved
along the steps in between, meets a later member's.  The walk goes depth
first, in the order the members are listed, on an explicit stack, carrying
the earlier members' images moved onto the newest member (moves compose, so
one step moves them all).  Once the newest image meets them, every chain
through that prefix has such a pair, and the prefix is skipped.

The public constructors and every `from_payload` validate and sort what
they are given; `Instance._of` and `Assignment._of` take parts already
checked and sorted, as induced instances, the long-code instance and the
lift have them.

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import InputError, ResourceError, StructuralError

DEFAULT_BUDGET = 10_000_000


def _count_text(count: int) -> str:
    """A count as a budget message gives it: exact when it fits in 64 bits, else
    by its bit length, since Python formats no integer past 4,300 digits."""
    return str(count) if count.bit_length() <= 64 else f"a {count.bit_length()}-bit number of"


# Variables and atoms are embedded into composite labels elsewhere, so a few
# separator characters are reserved.
_FORBIDDEN_CHARS = (",", "|", "#", ">")


def _check_label(kind: str, label: str) -> None:
    if not isinstance(label, str) or not label:
        raise InputError(f"{kind} must be a nonempty string, got {label!r}")
    for ch in _FORBIDDEN_CHARS:
        if ch in label:
            raise InputError(f"{kind} {label!r} contains reserved character {ch!r}")


def _check_labels(kind: str, labels: Sequence) -> None:
    """`_check_label` on every label: in bulk, and one by one only to name the
    first label at fault."""
    try:
        clean = "" not in labels and not any(ch in "".join(labels) for ch in _FORBIDDEN_CHARS)
    except TypeError:  # a label that is not a string
        clean = False
    if not clean:
        for label in labels:
            _check_label(kind, label)


@dataclass(frozen=True)
class Relation:
    """A named relation's payload: arity plus a nonempty set of tuples."""

    arity: int
    tuples: frozenset

    def __post_init__(self):
        if self.arity < 1:
            raise InputError(f"relation arity must be positive, got {self.arity}")
        if not self.tuples:
            raise InputError("relations must be nonempty")
        object.__setattr__(self, "tuples", frozenset(tuple(t) for t in self.tuples))
        for t in self.tuples:
            if len(t) != self.arity:
                raise InputError(f"tuple {t} does not match arity {self.arity}")

    @property
    def sorted_tuples(self) -> tuple:
        return tuple(sorted(self.tuples))


@dataclass(frozen=True)
class RelationalStructure:
    """A finite domain together with named, nonempty relations."""

    domain: tuple
    relations: dict

    def __init__(self, domain: Iterable[str], relations: Mapping[str, Relation]):
        domain = tuple(sorted(set(domain)))
        if not domain:
            raise InputError("domain must be nonempty")
        _check_labels("atom", domain)
        rels = {}
        for name in sorted(relations):
            _check_label("relation name", name)
            rel = relations[name]
            for t in rel.tuples:
                for entry in t:
                    if entry not in domain:
                        raise InputError(
                            f"relation {name} uses {entry!r} outside the domain"
                        )
            rels[name] = rel
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "relations", rels)

    def signature(self) -> tuple:
        return tuple((name, rel.arity) for name, rel in sorted(self.relations.items()))

    def similar_to(self, other: "RelationalStructure") -> bool:
        return self.signature() == other.signature()

    def to_payload(self) -> dict:
        return {
            "domain": list(self.domain),
            "relations": {
                name: {"arity": rel.arity, "tuples": [list(t) for t in rel.sorted_tuples]}
                for name, rel in self.relations.items()
            },
        }

    @staticmethod
    def from_payload(payload: Mapping, path: str = "") -> "RelationalStructure":
        """Read from JSON; errors name the field under `path`."""
        return _read_structure(payload, path)


def structure(domain: Iterable[str], **relations) -> RelationalStructure:
    """Convenience constructor: structure("01", neq=(2, {("0","1"), ...}))."""
    return RelationalStructure(
        domain,
        {name: Relation(arity, frozenset(tuples)) for name, (arity, tuples) in relations.items()},
    )


def complete_graph(n: int) -> RelationalStructure:
    """Domain {0..n-1} with the binary disequality relation."""
    atoms = [str(i) for i in range(n)]
    neq = frozenset((a, b) for a in atoms for b in atoms if a != b)
    return structure(atoms, neq=(2, neq))


@dataclass(frozen=True)
class PcspTemplate:
    """A pair of similar structures: strict constraints and their relaxations."""

    strict: RelationalStructure
    relaxed: RelationalStructure

    def __post_init__(self):
        if not self.strict.similar_to(self.relaxed):
            raise StructuralError("strict and relaxed sides are not similar")
        if not _has_homomorphism(self.strict, self.relaxed):
            raise StructuralError("no homomorphism from the strict to the relaxed side")

    def side(self, which: str) -> RelationalStructure:
        if which == "strict":
            return self.strict
        if which == "relaxed":
            return self.relaxed
        raise InputError(f"unknown template side {which!r}")

    def to_payload(self) -> dict:
        return {"strict": self.strict.to_payload(), "relaxed": self.relaxed.to_payload()}

    @staticmethod
    def from_payload(payload: Mapping) -> "PcspTemplate":
        strict, relaxed = (
            _read_structure(_payload_field(payload, "", side, Mapping), side)
            for side in ("strict", "relaxed")
        )
        return PcspTemplate(strict, relaxed)


class Constraint(NamedTuple):
    scope: tuple
    relation: str


@dataclass(frozen=True)
class Instance:
    """Variables plus constraints referencing named template relations.

    The variable tuple is sorted.  Each constraint is held as one relation
    name and one integer scope, indices into `variables`, in the given
    order (`relation_names` and `scopes`); repeated variables inside a scope
    are allowed.  Variable names appear only at the JSON boundary and in
    `constraints`, which builds `Constraint` objects on each call and does
    not keep them.
    """

    variables: tuple
    relation_names: tuple  # per constraint, in order
    scopes: tuple  # per constraint, a tuple of indices into `variables`

    def __init__(self, variables: Iterable[str], constraints: Iterable[Constraint]):
        variables = tuple(sorted(set(variables)))
        _check_labels("variable", variables)
        index = dict(zip(variables, range(len(variables))))
        names, scopes = [], []
        for scope, name in constraints:
            scope = tuple(scope)
            try:
                scopes.append(tuple(map(index.__getitem__, scope)))
            except KeyError:
                unknown = next(v for v in scope if v not in index)
                raise InputError(f"constraint scope uses unknown variable {unknown!r}") from None
            names.append(name)
        _set_fields(self, variables, tuple(names), tuple(scopes))

    @classmethod
    def _of(cls, variables: tuple, relation_names: tuple, scopes: tuple) -> "Instance":
        """An instance from parts already checked: sorted variable names that
        are valid labels, and scopes of indices into them."""
        return _set_fields(object.__new__(cls), variables, relation_names, scopes)

    @property
    def constraints(self) -> tuple:
        """The constraints over variable names, built on each call."""
        name = self.variables.__getitem__
        return tuple(
            Constraint(tuple(map(name, scope)), relation)
            for relation, scope in zip(self.relation_names, self.scopes)
        )

    def induced(self, subset: Sequence[str]) -> "Instance":
        """Sub-instance on `subset`: the constraints whose scope lies inside it."""
        sub = set(subset)
        if not sub.issubset(self.variables):
            raise InputError("subset is not contained in the variable set")
        return self._onto(tuple(sorted(sub)))

    def _onto(self, variables: tuple) -> "Instance":
        """The constraints whose variables all lie in `variables` (sorted,
        valid labels), re-indexed onto them."""
        new = dict(zip(variables, range(len(variables))))
        move = [new.get(v, -1) for v in self.variables].__getitem__
        names, scopes = [], []
        for name, scope in zip(self.relation_names, self.scopes):
            scope = tuple(map(move, scope))
            if -1 not in scope:
                names.append(name)
                scopes.append(scope)
        return Instance._of(variables, tuple(names), tuple(scopes))

    def to_payload(self) -> dict:
        names = self.variables
        return {
            "variables": list(names),
            "constraints": [
                {"scope": [names[i] for i in scope], "relation": relation}
                for relation, scope in zip(self.relation_names, self.scopes)
            ],
        }

    @staticmethod
    def from_payload(payload: Mapping, path: str = "") -> "Instance":
        """Read from JSON; errors name the field under `path`."""
        field = partial(_payload_field, payload, path)
        variables = field("variables", list, items=str)
        constraints = []
        for i, c in enumerate(field("constraints", list)):
            where = f"{path}.constraints[{i}]" if path else f"constraints[{i}]"
            scope = _payload_field(c, where, "scope", list, items=str)
            constraints.append((scope, _payload_field(c, where, "relation", str)))
        return Instance(variables, constraints)


def _set_fields(instance: Instance, variables, relation_names, scopes) -> Instance:
    object.__setattr__(instance, "variables", variables)
    object.__setattr__(instance, "relation_names", relation_names)
    object.__setattr__(instance, "scopes", scopes)
    return instance


_KIND_NAMES = {
    list: "a list", str: "a string", Mapping: "an object", int: "an integer", bool: "a boolean"
}


def _payload_field(payload, path: str, key: str, kind: type, items: Optional[type] = None):
    """payload[key] read from JSON: an InputError names the field's path when
    it is missing or of another kind, so a string never passes as a list.
    With `items`, every entry of the list (or value of the object) is of that
    kind, and the error names the entry."""
    if not isinstance(payload, Mapping):
        raise InputError(f"{path or 'payload'}: expected an object")
    path = f"{path}.{key}" if path else key
    if key not in payload:
        raise InputError(f"{path}: missing")
    value = payload[key]
    if not _is_kind(value, kind):
        raise InputError(f"{path}: expected {_KIND_NAMES[kind]}")
    if items is not None:
        entries = (
            ((f".{j}", item) for j, item in value.items())
            if isinstance(value, Mapping)
            else ((f"[{j}]", item) for j, item in enumerate(value))
        )
        for where, item in entries:
            if not _is_kind(item, items):
                raise InputError(f"{path}{where}: expected {_KIND_NAMES[items]}")
    return value


def _is_kind(value, kind: type) -> bool:
    # bool subclasses int, but a JSON true or false is no integer
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def _read_structure(payload, path: str) -> RelationalStructure:
    """A structure read from JSON, every field through `_payload_field`."""
    at = f"{path}." if path else ""
    domain = _payload_field(payload, path, "domain", list, items=str)
    relations = {}
    for name, rel in _payload_field(payload, path, "relations", Mapping).items():
        where = f"{at}relations.{name}"
        tuples = _payload_field(rel, where, "tuples", list)
        if not all(isinstance(t, list) and all(isinstance(a, str) for a in t) for t in tuples):
            raise InputError(f"{where}.tuples: expected a list of lists of strings")
        arity = _payload_field(rel, where, "arity", int)
        relations[name] = Relation(arity, frozenset(map(tuple, tuples)))
    return RelationalStructure(domain, relations)


@dataclass(frozen=True)
class Assignment:
    """A total map variable -> atom, with an optional tag naming which
    template side the values range over.  It reads as a mapping (`f[v]`,
    `v in f`, `dict(f)`), while `values` names its sorted pairs."""

    _mapping: dict  # sorted by variable, and never handed out
    side: Optional[str] = None

    def __init__(self, mapping: Mapping[str, str], side: Optional[str] = None):
        object.__setattr__(self, "_mapping", dict(sorted(mapping.items())))
        object.__setattr__(self, "side", side)

    @classmethod
    def _of(cls, mapping: dict, side: Optional[str] = None) -> "Assignment":
        """An assignment that owns `mapping`, a dict already in name order,
        without sorting it again."""
        f = object.__new__(cls)
        object.__setattr__(f, "_mapping", mapping)
        object.__setattr__(f, "side", side)
        return f

    @property
    def values(self) -> tuple:
        return tuple(self._mapping.items())

    @property
    def mapping(self) -> dict:
        return dict(self._mapping)

    def __hash__(self):
        return hash((self.values, self.side))

    def __getitem__(self, var: str) -> str:
        return self._mapping[var]

    def keys(self):
        return self._mapping.keys()

    def items(self):
        return self._mapping.items()

    def __iter__(self):
        return iter(self._mapping)

    def __contains__(self, var) -> bool:
        return var in self._mapping

    def restrict(self, variables: Iterable[str]) -> "Assignment":
        keep = set(variables)
        return Assignment({v: a for v, a in self.items() if v in keep}, side=self.side)

    def to_payload(self) -> dict:
        payload = {"values": self.mapping}
        if self.side is not None:
            payload["side"] = self.side
        return payload

    @staticmethod
    def from_payload(payload: Mapping) -> "Assignment":
        field = partial(_payload_field, payload, "")
        values = field("values", Mapping, items=str)
        return Assignment(values, side=field("side", str) if "side" in payload else None)


def _relation_tuples(i: int, name: str, scope: tuple, side: RelationalStructure) -> frozenset:
    """The tuples constraint number i may take; an unknown relation or a
    scope whose length is not the arity is a StructuralError."""
    rel = side.relations.get(name)
    if rel is None:
        raise StructuralError(f"constraint {i} names unknown relation {name!r}")
    if len(scope) != rel.arity:
        raise StructuralError(f"constraint {i} scope length {len(scope)} != arity {rel.arity}")
    return rel.tuples


def _validate_against(instance: Instance, side: RelationalStructure, indices=None) -> None:
    """Refuse the first constraint among `indices` (all by default) that
    names an unknown relation or whose scope length is not its arity."""
    names, scopes = instance.relation_names, instance.scopes
    for i in range(len(scopes)) if indices is None else indices:
        _relation_tuples(i, names[i], scopes[i], side)


def check_homomorphism(
    h: Mapping[str, str], src: RelationalStructure, dst: RelationalStructure
) -> bool:
    """Does h preserve every relation tuple from src into dst?"""
    if not src.similar_to(dst):
        raise StructuralError("structures are not similar")
    for atom in src.domain:
        if atom not in h:
            raise InputError(f"map is not total: missing {atom!r}")
        if h[atom] not in dst.domain:
            raise InputError(f"map sends {atom!r} outside the target domain")
    return all(
        tuple(h[a] for a in t) in dst.relations[name].tuples
        for name, rel in src.relations.items()
        for t in rel.tuples
    )


def _has_homomorphism(src: RelationalStructure, dst: RelationalStructure) -> bool:
    """Is some map between similar structures src -> dst a homomorphism?  One
    `backtrack` search, an item per atom of src trying dst's atoms and a check
    per tuple of src, which raises ResourceError past DEFAULT_BUDGET nodes."""
    checks = [
        (tuple(map(src.domain.index, t)), dst.relations[name].tuples.__contains__)
        for name, rel in src.relations.items()
        for t in rel.tuples
    ]
    maps = backtrack([dst.domain] * len(src.domain), checks, DEFAULT_BUDGET, "homomorphism search")
    return next(maps, None) is not None


def evaluate(instance: Instance, side: RelationalStructure, f: Mapping[str, str]) -> list:
    """Indices of the constraints that f violates (empty iff f is a solution)."""
    mapping = dict(f.items())
    try:
        value = list(map(mapping.__getitem__, instance.variables)).__getitem__
    except KeyError:
        _validate_against(instance, side)
        missing = next(v for v in instance.variables if v not in mapping)
        raise InputError(f"assignment is not total: missing {missing!r}") from None
    tuples = defaultdict(tuple, {name: rel.tuples for name, rel in side.relations.items()})
    violated = [
        i
        for i, name, scope in zip(itertools.count(), instance.relation_names, instance.scopes)
        if tuple(map(value, scope)) not in tuples[name]
    ]
    # An unknown relation or a scope of another length holds no tuple, so the
    # first malformed constraint is among the violated ones.
    _validate_against(instance, side, violated)
    return violated


def _solutions(instance: Instance, side: RelationalStructure, budget: int, tag: Optional[str]):
    """Solutions in lexicographic variable/domain order.

    The candidate space |domain|^|V| is checked against `budget` before the
    first candidate; an exceeded budget is an error, never a silent truncation.
    """
    n = len(instance.variables)
    for values in _satisfying(_subset_checks(instance, side, range(n)), side.domain, n, budget):
        yield Assignment(dict(zip(instance.variables, values)), side=tag)


def _satisfying(checks: list, domain: tuple, n: int, budget: int):
    """The value tuples on n positions, in lexicographic product order, that
    satisfy every check: a scope of positions and the tuples it may take.
    The |domain|^n candidates are priced against `budget` before the first."""
    total = len(domain) ** n
    if total > budget:
        raise ResourceError(
            f"brute force would enumerate {_count_text(total)} candidates, "
            f"over the budget of {budget}"
        )
    for values in itertools.product(domain, repeat=n):
        value = values.__getitem__
        for scope, tuples in checks:
            if tuple(map(value, scope)) not in tuples:
                break
        else:
            yield values


def brute_force_solve(
    instance: Instance,
    side: RelationalStructure,
    budget: int = DEFAULT_BUDGET,
    tag: Optional[str] = None,
) -> Optional[Assignment]:
    """First solution in lexicographic variable/domain order, or None."""
    return next(_solutions(instance, side, budget, tag), None)


def all_solutions(
    instance: Instance,
    side: RelationalStructure,
    budget: int = DEFAULT_BUDGET,
    tag: Optional[str] = None,
) -> tuple:
    """Every solution, in lexicographic order."""
    return tuple(_solutions(instance, side, budget, tag))


def completion_order(items: Iterable, groups: Sequence, tiebreak=lambda item: 0) -> tuple:
    """A backtracking search's order over `items`, fixed before the search
    starts, and per step the indices of the `groups` (each a collection of
    distinct items) whose last item is set there.

    Next comes the item that completes the most groups among those already
    placed; ties go to the one touching the most partly placed groups, then
    to the largest `tiebreak(item)`, then to the order of `items`.  A heap
    picks each item, so the work grows with the groups' total size times
    its logarithm.
    """
    items = list(items)
    member_of = {x: [] for x in items}
    for g, group in enumerate(groups):
        for x in group:
            member_of[x].append(g)
    sizes = [len(group) for group in groups]
    placed = [0] * len(groups)
    # Per item, the groups it would complete and its partly placed groups.
    completes = {x: sum(sizes[g] == 1 for g in member_of[x]) for x in items}
    touches = dict.fromkeys(items, 0)
    rest = {x: (-tiebreak(x), i) for i, x in enumerate(items)}

    def entry(x):
        return (-completes[x], -touches[x], rest[x], x)

    # Counts only grow, so an item's newest heap entry is its smallest and
    # older ones come up after it is placed.
    heap = [entry(x) for x in items]
    heapq.heapify(heap)
    order, judged_at, done = [], [], set()
    while heap:
        x = heapq.heappop(heap)[-1]
        if x in done:
            continue
        done.add(x)
        changed = set()
        for g in member_of[x]:
            placed[g] += 1
            if placed[g] == 1:
                for y in groups[g]:
                    touches[y] += 1
                changed.update(groups[g])
            if placed[g] == sizes[g] - 1:
                for y in groups[g]:
                    completes[y] += 1
                changed.update(groups[g])
        for y in changed:
            if y not in done:
                heapq.heappush(heap, entry(y))
        order.append(x)
        judged_at.append([g for g in member_of[x] if placed[g] == sizes[g]])
    return order, judged_at


def backtrack(options: Sequence, checks: Sequence, budget: int, what: str, tiebreak=lambda i: 0):
    """Each pick of one of `options[i]` per item i that passes every check,
    as a tuple indexed by item, found depth first on an explicit stack.

    A check is `(items, test)`: `test` gets the tuple of the options picked
    at `items` once the last of them is set (so one over no items is never
    judged), read by a getter built once per check before the search.  Items
    are set in the `completion_order` of the checks' items, each trying its
    options in order.  Each option tried is a node; past
    `budget` nodes it raises ResourceError.  No items give one empty pick.
    """
    order, judged_at = completion_order(
        range(len(options)), [tuple(dict.fromkeys(items)) for items, _ in checks], tiebreak
    )
    if not order:
        yield ()
        return
    checks_at = [
        [(_reader(checks[c][0]), checks[c][1]) for c in completed] for completed in judged_at
    ]
    picked = [None] * len(options)
    stack, visited = [(0, v) for v in reversed(options[order[0]])], 0
    while stack:
        step, value = stack.pop()
        visited += 1
        if visited > budget:
            raise ResourceError(f"{what} visited over {budget} nodes")
        picked[order[step]] = value
        for read, test in checks_at[step]:  # each reads items set on the path here
            if not test(read(picked)):
                break
        else:
            if step + 1 == len(order):
                yield tuple(picked)
            else:
                stack.extend(zip(itertools.repeat(step + 1), reversed(options[order[step + 1]])))


def _reader(items: tuple):
    """The tuple of a list's entries at `items`, one item included."""
    if len(items) == 1:
        return lambda values, i=items[0]: (values[i],)
    return itemgetter(*items)


def chain_walk(length: int, children, move) -> Optional[tuple]:
    """The first broken chain of `length` members, as (members, steps) with
    steps[i] leading from members[i] to members[i + 1], or None.
    `children(path)` yields the members that may follow a path, the empty one
    first, as (step, member, image set); `move(g, step)` moves g one step."""
    stack = [(iter(children(())), (), (), frozenset())]
    while stack:
        nodes, path, steps, carried = stack[-1]
        for step, member, image in nodes:
            moved = {move(g, step) for g in carried}
            if moved.isdisjoint(image):  # else every chain through here has a pair
                path, steps = path + (member,), steps + (step,)
                if len(path) == length:
                    return path, steps[1:]
                stack.append((iter(children(path)), path, steps, image.union(moved)))
                break
        else:
            stack.pop()
    return None


def _subset_checks(phi: Instance, side: RelationalStructure, subset: Sequence[int]) -> list:
    """The constraints of phi inside a subset of its variable indices, in
    increasing order: in phi's order, each scope as positions within the
    subset and the tuples it may take.  The first malformed one is a
    StructuralError, numbered as in the induced sub-instance."""
    move = [-1] * len(phi.variables)
    for position, x in enumerate(subset):
        move[x] = position
    checks = []
    for name, scope in zip(phi.relation_names, phi.scopes):
        scope = tuple(map(move.__getitem__, scope))
        if -1 not in scope:
            checks.append((scope, _relation_tuples(len(checks), name, scope, side)))
    return checks


def partial_solution_table(
    phi: Instance, side: RelationalStructure, k: Sequence[int], budget: int = DEFAULT_BUDGET
) -> dict:
    """Map every k_i-subset of phi's variables to its partial solutions, as
    value tuples aligned with the subset, in lexicographic order.

    The arities, one or more, must be positive and non-increasing, the top one
    at most |V|.  Subsets appear in first-occurrence layer order: by arity as
    listed in k, then lexicographically.  An empty tuple marks a subset with no
    partial solution.  The lattice is walked on integer scopes
    (`_subset_checks`), with no sub-instance or assignment built, and
    `_restriction_maps` gives the maps between nested subsets.
    """
    k = tuple(int(x) for x in k)
    if not k or any(a < 1 for a in k):
        raise InputError(f"arities {list(k)} must be one or more positive integers")
    if any(a < b for a, b in zip(k, k[1:])):
        raise InputError(f"arities {list(k)} must be non-increasing")
    if k[0] > len(phi.variables):
        raise InputError(
            f"top arity {k[0]} exceeds the {len(phi.variables)} variables; pad the instance first"
        )
    table = {}
    for size in dict.fromkeys(k):
        for at in itertools.combinations(range(len(phi.variables)), size):
            checks = _subset_checks(phi, side, at)
            sols = tuple(_satisfying(checks, side.domain, size, budget))
            table[tuple(map(phi.variables.__getitem__, at))] = sols
    return table


def _restriction_maps(table: Mapping, k: Sequence[int]) -> dict:
    """For subsets u and w of a partial-solution table, u of arity k[i] and
    w inside u of arity k[j] with i < j: per solution on u, the index in
    table[w] of its restriction to w.  Keyed (u, w), in layer order; each
    subset's solutions are indexed once."""
    index_of, maps = {}, {}
    for i, j in itertools.combinations(range(len(k)), 2):
        for u, sols in table.items():
            if len(u) != k[i]:
                continue
            for where in itertools.combinations(range(k[i]), k[j]):
                w = tuple(map(u.__getitem__, where))
                if w not in index_of:
                    keys = map(_picker(range(k[j])), table[w])
                    index_of[w] = dict(zip(keys, itertools.count())).__getitem__
                maps[u, w] = list(map(index_of[w], map(_picker(where), sols)))
    return maps


def _picker(positions: Sequence[int]):
    """A value tuple's entries at `positions`: a tuple, or the entry itself
    at one position, the same for every value tuple it is applied to."""
    return itemgetter(*positions) if positions else lambda values: ()
