"""Partial assignment systems and the staged solution-extraction machinery.

A partial assignment system (PAS) of arity k over variables V and domain A
assigns to every k-subset of V a nonempty set of total maps from that subset
into A.  Entries are stored as value tuples aligned with the sorted subset.

The extraction algorithm recovers, from a consistent sequence of low-value
systems at suitable arities, a global assignment whose every m-subset
restriction is realized inside some system of the sequence.  All parameter
arithmetic uses exact integers; no floating point appears in this module.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import lru_cache, partial
from math import comb
from typing import Iterable, Mapping, Optional, Sequence

from .core import Assignment, _payload_field, chain_walk
from .errors import (
    InputError,
    InvariantError,
    ParameterError,
    ResourceError,
    StructuralError,
)

PARAMETER_LIMIT = 10**18


def _proj(values: tuple, key: tuple, subkey: tuple) -> tuple:
    """Restrict a value tuple aligned with `key` to the positions of `subkey`."""
    idx = {v: i for i, v in enumerate(key)}
    return tuple(values[idx[v]] for v in subkey)


@dataclass(frozen=True)
class Pas:
    """An arity-k map from k-subsets of the variables to nonempty sets of
    partial assignments on that subset."""

    variables: tuple
    domain: tuple
    arity: int
    entries: dict

    def __init__(self, variables, domain, arity, entries: Mapping):
        variables = tuple(sorted(set(variables)))
        domain = tuple(sorted(set(domain)))
        if not (1 <= arity <= len(variables)):
            raise InputError(f"arity {arity} out of range for {len(variables)} variables")
        canonical = {}
        for key, group in entries.items():
            key = tuple(sorted(key))
            group = frozenset(tuple(g) for g in group)
            if len(key) != arity or not set(key) <= set(variables):
                raise InputError(f"entry key {key} is not an arity-{arity} variable subset")
            if not group:
                raise InputError(f"entry for {key} is empty")
            for g in group:
                if len(g) != arity or not set(g) <= set(domain):
                    raise InputError(f"assignment {g} for {key} is malformed")
            canonical[key] = group
        expected = comb(len(variables), arity)
        if len(canonical) != expected:
            raise InputError(
                f"expected entries for all {expected} subsets, got {len(canonical)}"
            )
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "entries", canonical)

    def subsets(self):
        return itertools.combinations(self.variables, self.arity)

    def to_payload(self) -> dict:
        return {
            "arity": self.arity,
            "domain": list(self.domain),
            "variables": list(self.variables),
            "entries": [
                {
                    "set": list(key),
                    "assignments": [dict(zip(key, g)) for g in sorted(group)],
                }
                for key, group in sorted(self.entries.items())
            ],
        }

    @staticmethod
    def from_payload(payload: Mapping, path: str = "") -> "Pas":
        """Read from JSON; errors name the field under `path`."""
        field = partial(_payload_field, payload, path)
        entries = {}
        for i, item in enumerate(field("entries", list)):
            where = f"{path}.entries[{i}]" if path else f"entries[{i}]"
            key = tuple(sorted(_payload_field(item, where, "set", list, items=str)))
            if key in entries:
                raise InputError(f"{where}: repeats the set {list(key)}")
            entries[key] = frozenset(
                tuple(_payload_field(a, f"{where}.assignments[{j}]", v, str) for v in key)
                for j, a in enumerate(_payload_field(item, where, "assignments", list))
            )
        return Pas(
            field("variables", list, items=str),
            field("domain", list, items=str),
            field("arity", int),
            entries,
        )


def pas_from_assignment(f: Mapping[str, str], variables, domain, arity: int) -> Pas:
    """The PAS whose every entry is the single restriction of f."""
    variables = tuple(sorted(set(variables)))
    entries = {
        u: frozenset({tuple(f[v] for v in u)})
        for u in itertools.combinations(variables, arity)
    }
    return Pas(variables, domain, arity, entries)


@dataclass(frozen=True)
class PasSequence:
    """Systems over common variables and domain, with non-increasing arities."""

    systems: tuple

    def __init__(self, systems: Iterable[Pas]):
        systems = tuple(systems)
        if not systems:
            raise InputError("a sequence needs at least one system")
        v0, a0 = systems[0].variables, systems[0].domain
        for s in systems[1:]:
            if s.variables != v0 or s.domain != a0:
                raise StructuralError("systems disagree on variables or domain")
        arities = [s.arity for s in systems]
        if any(a < b for a, b in zip(arities, arities[1:])):
            raise StructuralError(f"arities {arities} are not non-increasing")
        object.__setattr__(self, "systems", systems)

    def __len__(self):
        return len(self.systems)

    def __getitem__(self, i) -> Pas:
        return self.systems[i]

    @property
    def arities(self) -> tuple:
        return tuple(s.arity for s in self.systems)

    def to_payload(self) -> dict:
        return {"systems": [s.to_payload() for s in self.systems]}

    @staticmethod
    def from_payload(payload: Mapping) -> "PasSequence":
        systems = _payload_field(payload, "", "systems", list)
        return PasSequence([Pas.from_payload(p, f"systems[{i}]") for i, p in enumerate(systems)])


def pas_value(system: Pas) -> int:
    """The maximal entry size."""
    return max(len(group) for group in system.entries.values())


def is_m_solution(f, system: Pas, m: int) -> bool:
    """True iff every m-subset restriction of f appears among the projections
    of some entry of the system; an f that misses a variable is an InputError."""
    if not 1 <= m <= system.arity:
        raise InputError(f"m={m}: expected 1 <= m <= the system arity {system.arity}")
    fmap = dict(f)
    missing = next((x for x in system.variables if x not in fmap), None)
    if missing is not None:
        raise InputError(f"assignment is not total: missing {missing!r}")
    for u in itertools.combinations(system.variables, m):
        if _first_superset(system, u, tuple(fmap[x] for x in u), (), extends=True) is None:
            return False
    return True


def _supersets(variables: tuple, base, size: int):
    """The size-`size` subsets of the sorted `variables` that contain `base`,
    in lexicographic order; none when base is larger than size."""
    base = set(base)
    if len(base) > size:
        return
    rest = [x for x in variables if x not in base]
    for extra in itertools.combinations(rest, size - len(base)):
        yield tuple(sorted(base.union(extra)))


def _first_superset(system: Pas, xs: tuple, f: tuple, need, extends: bool) -> Optional[tuple]:
    """Lexicographically-first arity-sized superset of X union `need` whose
    entry does (`extends`) or does not contain an extension of f on X, or None."""
    for u in _supersets(system.variables, set(xs) | set(need), system.arity):
        if any(_proj(g, u, xs) == f for g in system.entries[u]) == extends:
            return u
    return None


@dataclass(frozen=True)
class ConsistencyResult:
    ok: bool
    chain: Optional[tuple] = None

    def __bool__(self):
        return self.ok


def check_consistent(seq: PasSequence) -> ConsistencyResult:
    """For every nested subset chain there must be a pair i < j whose entries
    meet under projection; on failure, the lexicographically first violating
    chain, found by `core.chain_walk` with projection as the move."""
    systems, arities = seq.systems, seq.arities

    def children(chain: tuple):
        u = chain[-1] if chain else systems[0].variables
        entries = systems[len(chain)].entries
        for where in itertools.combinations(range(len(u)), arities[len(chain)]):
            w = tuple(map(u.__getitem__, where))
            yield where, w, entries[w]

    failed = chain_walk(len(systems), children, lambda g, where: tuple(map(g.__getitem__, where)))
    return ConsistencyResult(failed is None, failed and failed[0])


class LocalProperty(enum.Enum):
    """Quantified local properties of a pair (X, f) relative to a system.

    EXTENSION: every l-subset W admits a k-superset U of X union W whose entry
    contains some g extending f on X.
    AVOIDANCE: every l-subset W admits a k-superset U of X union W whose entry
    contains no g extending f on X.

    Their negations swap the quantifiers; the failing W returned below is
    exactly the witness of the negated property.
    """

    EXTENSION = "extension"
    AVOIDANCE = "avoidance"


@dataclass(frozen=True)
class PropertyCheck:
    holds: bool
    witness: Optional[tuple] = None

    def __bool__(self):
        return self.holds


def has_property(
    system: Pas, xs: Sequence[str], f: Sequence[str], l: int, which: LocalProperty
) -> PropertyCheck:
    """Evaluate a local property of (X, f); on failure the first (lexicographic)
    failing l-subset is reported as witness.

    If for some W no k-superset of X union W exists the inner existential is
    false and W already witnesses failure.
    """
    xs = tuple(sorted(xs))
    f = tuple(f)
    if len(xs) != len(set(xs)) or len(f) != len(xs):
        raise InputError("X must be a set and f must assign exactly its elements")
    if len(xs) > system.arity or l > system.arity:
        raise InputError("|X| and l must not exceed the system arity")
    wanted = which is LocalProperty.EXTENSION
    for w in itertools.combinations(system.variables, l):
        if _first_superset(system, xs, f, w, extends=wanted) is None:
            return PropertyCheck(False, w)
    return PropertyCheck(True, None)


def find_extendable_assignment(system: Pas, xs: Sequence[str], l: int) -> tuple:
    """First f on X (lexicographic) with the l-EXTENSION property.

    Requires k >= |A|^|X| * l + |X|; under that inequality such an f always
    exists, so not finding one is an internal error.
    """
    xs = tuple(sorted(xs))
    k, a = system.arity, len(system.domain)
    bound = a ** len(xs) * l + len(xs)
    if k < bound:
        raise ParameterError(
            f"extension search needs arity >= {bound}, system has {k}"
        )
    for f in itertools.product(system.domain, repeat=len(xs)):
        if has_property(system, xs, f, l, LocalProperty.EXTENSION):
            return f
    raise InvariantError("no assignment with the extension property despite valid parameters")


def solve_value_one(system: Pas, l: int, selector: Mapping[str, str]) -> Assignment:
    """Lift a verified per-variable selector of a value-1 system to a global
    assignment that is a floor(k/(l+1))-solution.

    The selector must map every variable v to a value a such that (v, a) has
    the negated l-AVOIDANCE property (every large enough entry extends it).
    """
    if pas_value(system) != 1:
        raise StructuralError("solve_value_one requires a value-1 system")
    for v in system.variables:
        if v not in selector:
            raise InputError(f"selector is missing variable {v!r}")
        if has_property(system, (v,), (selector[v],), l, LocalProperty.AVOIDANCE):
            raise InputError(f"selector value for {v!r} fails its verification")
    s = Assignment({v: selector[v] for v in system.variables})
    m = system.arity // (l + 1)
    if not is_m_solution(s, system, m):
        raise InvariantError("selector lift failed post-verification")
    return s


def refine(system: Pas, target_arity: int, ex: Mapping) -> Pas:
    """The lower-arity system J(U) = proj_U I(ex(U)) for an extension map ex
    with U contained in ex(U).  Never increases the value."""
    v = system.variables
    entries = {}
    for u in itertools.combinations(v, target_arity):
        if u not in ex:
            raise InputError(f"extension map is missing subset {u}")
        big = tuple(sorted(ex[u]))
        if not set(u) <= set(big):
            raise InputError(f"extension of {u} does not contain it")
        if len(big) != system.arity:
            raise InputError(f"extension of {u} has wrong size {len(big)}")
        entries[u] = frozenset(_proj(g, big, u) for g in system.entries[big])
    return Pas(v, system.domain, target_arity, entries)


def split_to_value_one(
    system: Pas, l: int, k_prime: int, k_dblprime: int, selector: Mapping
) -> tuple:
    """Split a system into a refinement of arity k'' and a value-1 system of
    arity k' whose pair passes the consistency check.

    The selector maps every k'-subset X to an f with the negated l-AVOIDANCE
    property; the refinement extends each k''-set past all selector witnesses.
    """
    k = system.arity
    if k < k_dblprime + comb(k_dblprime, k_prime) * l:
        raise ParameterError(
            f"split needs arity >= {k_dblprime + comb(k_dblprime, k_prime) * l}, got {k}"
        )
    v = system.variables
    witnesses = {}
    singles = {}
    for xs in itertools.combinations(v, k_prime):
        if xs not in selector:
            raise InputError(f"selector is missing subset {xs}")
        f = tuple(selector[xs])
        chk = has_property(system, xs, f, l, LocalProperty.AVOIDANCE)
        if chk.holds:
            raise InputError(f"selector assignment for {xs} fails its verification")
        witnesses[xs] = chk.witness
        singles[xs] = frozenset({f})
    value_one = Pas(v, system.domain, k_prime, singles)

    ex = {}
    for y in itertools.combinations(v, k_dblprime):
        need = set(y)
        for xs in itertools.combinations(y, k_prime):
            need |= set(witnesses[xs])
        ex[y] = next(_supersets(v, need, k), None)
        if ex[y] is None:
            raise InvariantError(f"cannot extend a {len(need)}-set to size {k}")
    refined = refine(system, k_dblprime, ex)

    pair = PasSequence([refined, value_one])
    if not check_consistent(pair):
        raise InvariantError("split produced an inconsistent pair")
    return refined, value_one


# -- parameter recursion ------------------------------------------------------

K0_MODES = ("compact", "conservative")


@dataclass(frozen=True)
class GapParameters:
    """Arity/threshold record driving the extraction recursion.

    `values` bounds the entry sizes per position, `k` the arities, `l` the
    local-property thresholds, `p` the arities of the refined sequence used by
    the recursive step, and `split[i]` the (k'', k') pair for positions where
    the splitting step applies.  `mode` selects the arity formula at position
    zero (see gap_parameters).
    """

    domain_size: int
    m: int
    values: tuple
    k: tuple
    l: tuple
    p: tuple
    split: tuple
    mode: str
    k0_raw: int
    trace: tuple

    @property
    def k_prime(self) -> tuple:
        return (None,) + tuple(split[1] if split else 1 for split in self.split[1:])

    def to_payload(self) -> dict:
        return {
            "domain_size": self.domain_size,
            "m": self.m,
            "values": list(self.values),
            "k": list(self.k),
            "l": list(self.l),
            "p": list(self.p),
            "split": [list(s) if s else None for s in self.split],
            "mode": self.mode,
            "k0_raw": self.k0_raw,
            "trace": list(self.trace),
        }

    @staticmethod
    def from_payload(payload: Mapping) -> "GapParameters":
        """The record gap_parameters computes from the payload's inputs
        (domain_size, m, values, mode); each derived field must equal it."""
        field = partial(_payload_field, payload, "")
        params = gap_parameters(
            field("domain_size", int),
            field("m", int),
            field("values", list, items=int),
            field("mode", str),
        )
        computed = params.to_payload()
        for name in ("k", "l", "p", "split", "k0_raw", "trace"):
            if field(name, type(computed[name])) != computed[name]:
                raise InputError(f"{name}: differs from the record gap_parameters computes")
        return params


def gap_parameters(
    domain_size: int, m: int, values: Sequence[int], mode: str = "compact"
) -> GapParameters:
    """Compute the arity sequence under which low-value consistent sequences
    are guaranteed extractable, by structural recursion on `values`.

    For position i >= 1 the threshold is
        l_i = p_i + sum_{j>i} C(p_i, p_j) (k_j - p_j)
    and the arity is (l_i + 1) m when values[i] == 1, else k''_i +
    C(k''_i, k'_i) l_i with (k''_i, k'_i) taken from the recursion on
    (values[i], 1).  Position zero uses
        compact mode:      k_0 = S + |A|^S            where S = sum k'_j,
        conservative mode: k_0 = S + |A|^S * l_0,
    in both cases raised to max(k_0, k_1) to keep arities non-increasing.
    The conservative form is the one that always satisfies the extension
    search precondition at position zero.
    """
    values = tuple(int(d) for d in values)
    if len(values) < 2:
        raise InputError("need at least two values")
    if any(d < 1 for d in values):
        raise InputError("all values must be at least 1")
    if domain_size < 1 or m < 1:
        raise InputError("domain size and m must be positive")
    if mode not in K0_MODES:
        raise InputError(f"unknown mode {mode!r}; expected one of {K0_MODES}")
    # From the smallest first value up, so that each record finds the one it
    # recurses on cached, and the depth stays one level whatever the values.
    for first in range(1, values[0]):
        _gap_parameters(domain_size, m, (first,) + values[1:], mode)
    return _gap_parameters(domain_size, m, values, mode)


def _priced(i: int, bits: int) -> None:
    """Refuse arity k[i] from `bits`, a lower bound on its bit length, when
    that is over 2**16; an arity priced below is built, so that its refusal
    states its exact size."""
    if bits > 1 << 16:
        raise ResourceError(
            f"arity k[{i}] has at least {bits} bits, over the limit {PARAMETER_LIMIT}"
        )


def _comb(n: int, c: int, i: int) -> int:
    """C(n, c) for 0 <= c <= n, where arity k[i] is at least C(n, c): priced
    first from (n / c)**c, which C(n, c) is at least."""
    c = min(c, n - c)
    _priced(i, c * ((n // c).bit_length() - 1) + 1 if c else 1)
    return comb(n, c)


@lru_cache(maxsize=None)
def _gap_parameters(domain_size: int, m: int, values: tuple, mode: str) -> GapParameters:
    r = len(values) - 1
    trace = [f"values={list(values)} domain_size={domain_size} m={m} mode={mode}"]

    if values[0] >= 2:
        sub = _gap_parameters(domain_size, m, (values[0] - 1,) + values[1:], mode)
        p = sub.k
        trace.append(f"p from recursion on {list(sub.values)}: {list(p)}")
    else:
        p = (1,) * (r + 1)
        trace.append("p = all ones (first value is 1; position 0 copies position 1)")

    k = [0] * (r + 1)
    l = [0] * (r + 1)
    split = [None] * (r + 1)
    # Each k[j] > p[j] >= 1 for j >= 1, so k[i] >= l[i] >= each term of l[i],
    # and a split's k[i] >= C(kdd, kd).
    for i in range(r, 0, -1):
        if values[i] > 1:
            kdd, kd = split[i] = gap_parameters(domain_size, m, (values[i], 1), mode).k
        l[i] = p[i] + sum(_comb(p[i], p[j], i) * (k[j] - p[j]) for j in range(i + 1, r + 1))
        if values[i] == 1:
            k[i] = (l[i] + 1) * m
        else:
            k[i] = kdd + _comb(kdd, kd, i) * l[i]
        if k[i] > PARAMETER_LIMIT:
            raise ResourceError(
                f"arity k[{i}] has {k[i].bit_length()} bits, over the limit {PARAMETER_LIMIT}"
            )
        trace.append(
            f"l[{i}]={l[i]} k[{i}]=(l+1)m={k[i]} k'[{i}]=1"
            if values[i] == 1
            else f"l[{i}]={l[i]} split[{i}]=({kdd},{kd}) k[{i}]={kdd}+C({kdd},{kd})*{l[i]}={k[i]}"
        )

    # In conservative mode k[0] >= l[0] too.
    comb0 = partial(_comb, i=0) if mode == "conservative" else comb
    l[0] = p[0] + sum(comb0(p[0], p[j]) * (k[j] - p[j]) for j in range(1, r + 1))
    s = sum(split[i][1] if split[i] else 1 for i in range(1, r + 1))
    _priced(0, s * (domain_size.bit_length() - 1) + 1)  # k[0] >= domain_size**s
    raw = s + domain_size**s * (l[0] if mode == "conservative" else 1)
    k[0] = max(raw, k[1])
    if k[0] > PARAMETER_LIMIT:
        raise ResourceError(
            f"arity k[0] has {k[0].bit_length()} bits, over the limit {PARAMETER_LIMIT}"
        )
    trace.append(f"l[0]={l[0]} sum k'={s} k0_raw={raw} k[0]=max(raw,k[1])={k[0]}")

    if any(a < b for a, b in zip(k, k[1:])):
        raise InvariantError(f"parameter recursion produced increasing arities {k}")
    if k[r] < m:
        raise InvariantError(f"final arity {k[r]} below m={m}")

    return GapParameters(
        domain_size=domain_size,
        m=m,
        values=values,
        k=tuple(k),
        l=tuple(l),
        p=tuple(p),
        split=tuple(split),
        mode=mode,
        k0_raw=raw,
        trace=tuple(trace),
    )


# -- extraction ---------------------------------------------------------------


@dataclass(frozen=True)
class Extraction:
    index: int
    assignment: Assignment


def extract_solution(seq: PasSequence, params: GapParameters, m: int) -> Extraction:
    """Recover (i, f) with f an m-solution of seq[i].

    Refuses inputs whose arities do not exactly match the parameter record,
    verifies consistency and the per-position value bounds up front, and
    post-verifies every result with is_m_solution before returning it.
    """
    if m != params.m:
        raise ParameterError(f"m={m} does not match the parameter record's m={params.m}")
    if seq.arities != params.k:
        raise StructuralError(
            f"sequence arities {seq.arities} do not match parameters {params.k}"
        )
    for i, system in enumerate(seq.systems):
        if pas_value(system) > params.values[i]:
            raise StructuralError(
                f"system {i} has value {pas_value(system)} > allowed {params.values[i]}"
            )
    cons = check_consistent(seq)
    if not cons:
        raise StructuralError(f"input sequence is inconsistent on chain {cons.chain}")
    return _extract(seq, params, m)


def _verified(seq: PasSequence, index: int, f: Assignment, m: int) -> Extraction:
    if not is_m_solution(f, seq[index], m):
        raise InvariantError(f"extracted assignment fails m-solution verification at {index}")
    return Extraction(index, f)


def _extract(seq: PasSequence, params: GapParameters, m: int) -> Extraction:
    r = len(seq) - 1
    v = seq[0].variables
    domain = seq[0].domain

    # Stage one: per position, either lift a selector (or split and recurse)
    # or record a subset on which every assignment has the avoidance property.
    blocked = {}
    for i in range(1, r + 1):
        system = seq[i]
        l_i = params.l[i]
        if params.values[i] == 1:
            selector, bad = _subset_selector(system, l_i, 1)
            if bad is None:
                s = solve_value_one(system, l_i, {x: a for (x,), (a,) in selector.items()})
                if system.arity // (l_i + 1) < m:
                    raise InvariantError("selector lift solves for too small an m")
                return _verified(seq, i, s, m)
            blocked[i] = bad
        else:
            sub = gap_parameters(len(domain), m, (params.values[i], 1), params.mode)
            kdd, kd = sub.k
            if params.split[i] != (kdd, kd):
                raise InvariantError("split record disagrees with its recursion")
            selector, bad = _subset_selector(system, l_i, kd)
            if bad is None:
                refined, singles = split_to_value_one(system, l_i, kd, kdd, selector)
                inner = extract_solution(PasSequence([refined, singles]), sub, m)
                return _verified(seq, i, inner.assignment, m)
            blocked[i] = bad

    # Stage two: an assignment on the union of blocked subsets that the top
    # system extends densely.
    xs = tuple(sorted(set(itertools.chain.from_iterable(blocked.values()))))
    f = find_extendable_assignment(seq[0], xs, params.l[0])
    fmap = dict(zip(xs, f))

    # Stage three: refine every system down to the p-arities, choosing
    # extension sets through the avoidance/extension properties, strip the
    # extensions of f from position zero, and recurse on the reduced values.
    p = params.p
    ex = {i: {} for i in range(r + 1)}

    def need(y: tuple, i: int) -> set:
        # y, plus the extension sets chosen at the positions after i for y's subsets
        out = set(y)
        for j in range(i + 1, r + 1):
            for z in itertools.combinations(y, p[j]):
                out |= set(ex[j][z])
        return out

    for i in range(r, 0, -1):
        x_i = blocked[i]
        f_i = tuple(fmap[x] for x in x_i)
        for y in itertools.combinations(v, p[i]):
            ex[i][y] = _first_superset(seq[i], x_i, f_i, need(y, i), extends=False)
            if ex[i][y] is None:
                raise InvariantError(f"no avoiding superset for {x_i}; avoidance property broken")

    stripped = {}
    for y in itertools.combinations(v, p[0]):
        u = _first_superset(seq[0], xs, f, need(y, 0), extends=True)
        if u is None:
            raise InvariantError(f"no extending superset for {xs}; extension property broken")
        survivors = frozenset(
            _proj(g, u, y) for g in seq[0].entries[u] if _proj(g, u, xs) != f
        )
        if not survivors:
            raise InvariantError(
                "stripping emptied an entry; the input cannot have been a "
                f"consistent sequence within its value bounds (subset {y})"
            )
        stripped[y] = survivors

    head = Pas(v, domain, p[0], stripped)
    if pas_value(head) > params.values[0] - 1:
        raise InvariantError("stripped system exceeds its reduced value bound")
    tail = [refine(seq[i], p[i], ex[i]) for i in range(1, r + 1)]
    sub = gap_parameters(len(domain), m, (params.values[0] - 1,) + params.values[1:], params.mode)
    if sub.k != p:
        raise InvariantError("refined arities disagree with the recursion record")
    inner = extract_solution(PasSequence([head] + tail), sub, m)
    return _verified(seq, inner.index, inner.assignment, m)


def _subset_selector(system: Pas, l: int, size: int):
    """Per size-`size` subset, the first value tuple with the negated avoidance
    property.  Returns (selector, None) on full success or (partial, xs) where
    xs is the first subset on which every value tuple has the property."""
    selector = {}
    for xs in itertools.combinations(system.variables, size):
        for f in itertools.product(system.domain, repeat=size):
            if not has_property(system, xs, f, l, LocalProperty.AVOIDANCE):
                selector[xs] = f
                break
        else:
            return selector, xs
    return selector, None

