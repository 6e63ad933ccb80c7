"""Layered label cover instances, the subset reduction from bounded-scope CSPs,
and the exact value decision through the reduction.

Variables live in ordered layers; constraints are total maps that only point
from lower to higher layer index, at most one per ordered pair.  A chain picks
one variable per layer with every pairwise constraint present; a set-valued
assignment weakly satisfies a chain when at least one of those constraint maps
carries its source set into the target set; chains grow through successors.
One integer chain search decides both values: the layered value converts its
instance once, and the value oracle builds no label cover at all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from math import comb
from typing import Mapping, Optional, Sequence

from .core import (
    DEFAULT_BUDGET,
    Instance,
    RelationalStructure,
    _payload_field,
    _restriction_maps,
    _subset_checks,
    backtrack,
    partial_solution_table,
)
from .errors import InputError, ResourceError, StructuralError
from .minion import tuple_label
from .pas import Pas, PasSequence, check_consistent


@dataclass(frozen=True)
class LlcInstance:
    layers: tuple  # tuple of tuples of variable names
    domains: dict  # variable -> tuple of atoms (possibly empty)
    constraints: dict  # (x, y) -> dict mapping A_x -> A_y
    has_empty_domain: bool = False

    def __init__(self, layers, domains, constraints):
        layers = tuple(tuple(layer) for layer in layers)
        seen = set()
        for layer in layers:
            for x in layer:
                if x in seen:
                    raise InputError(f"variable {x!r} appears in two layers")
                seen.add(x)
        missing = [x for layer in layers for x in layer if x not in domains]
        if missing:
            raise InputError(f"variable {missing[0]!r} has no domain")
        domains = {x: tuple(domains[x]) for layer in layers for x in layer}
        index = {x: i for i, layer in enumerate(layers) for x in layer}
        cmap = {}
        for (x, y), psi in dict(constraints).items():
            if x not in index or y not in index:
                raise InputError(f"constraint {x}->{y} names a variable outside the layers")
            if index[x] >= index[y]:
                raise StructuralError(f"constraint {x}->{y} does not go to a higher layer")
            psi = dict(psi)
            if set(psi) != set(domains[x]):
                raise InputError(f"constraint {x}->{y} is not total on the source domain")
            try:
                inside = set(psi.values()).issubset(domains[y])
            except TypeError:  # an unhashable image or atom
                inside = all(value in domains[y] for value in psi.values())
            if not inside:
                raise InputError(f"constraint {x}->{y} leaves the target domain")
            cmap[(x, y)] = psi
        _set_llc(self, layers, domains, cmap)

    @classmethod
    def _of(cls, layers: tuple, domains: dict, constraints: dict) -> "LlcInstance":
        """An instance from parts already checked, as the subset reduction has them."""
        return _set_llc(object.__new__(cls), layers, domains, constraints)

    def to_payload(self) -> dict:
        return {
            "layers": [list(layer) for layer in self.layers],
            "domains": {x: list(dom) for x, dom in self.domains.items()},
            "constraints": [
                {"from": x, "to": y, "map": dict(psi)}
                for (x, y), psi in sorted(self.constraints.items())
            ],
            "has_empty_domain": self.has_empty_domain,
        }

    @staticmethod
    def from_payload(payload: Mapping) -> "LlcInstance":
        """Read from JSON; errors name the field's JSON path."""
        field = partial(_payload_field, payload, "")
        layers = field("layers", list, items=list)
        for i, layer in enumerate(layers):
            for j, x in enumerate(layer):
                if not isinstance(x, str):
                    raise InputError(f"layers[{i}][{j}]: expected a string")
        domains = field("domains", Mapping)
        for x in domains:
            _payload_field(domains, "domains", x, list, items=str)
        constraints = {}
        for i, c in enumerate(field("constraints", list)):
            at = partial(_payload_field, c, f"constraints[{i}]")
            pair = at("from", str), at("to", str)
            if pair in constraints:
                raise InputError(f"constraints[{i}]: repeats the pair {pair[0]}->{pair[1]}")
            constraints[pair] = at("map", Mapping, items=str)
        stated = field("has_empty_domain", bool) if "has_empty_domain" in payload else None
        inst = LlcInstance(layers, domains, constraints)
        if stated not in (None, inst.has_empty_domain):
            raise InputError("has_empty_domain flag disagrees with the domains")
        return inst


def _set_llc(inst: LlcInstance, layers: tuple, domains: dict, constraints: dict):
    object.__setattr__(inst, "layers", layers)
    object.__setattr__(inst, "domains", domains)
    object.__setattr__(inst, "constraints", constraints)
    object.__setattr__(inst, "has_empty_domain", not all(domains.values()))
    return inst


@dataclass(frozen=True)
class DAssignment:
    """Maps each variable to a nonempty subset of its domain of size <= d."""

    choices: tuple

    def __init__(self, choices: Mapping[str, Sequence[str]]):
        normalized = tuple(
            (x, tuple(sorted(set(vals)))) for x, vals in sorted(dict(choices).items())
        )
        for x, vals in normalized:
            if not vals:
                raise InputError(f"choice set for {x!r} is empty")
        object.__setattr__(self, "choices", normalized)

    @property
    def mapping(self) -> dict:
        return {x: set(vals) for x, vals in self.choices}

    @property
    def width(self) -> int:
        return max(len(vals) for _, vals in self.choices)

    def to_payload(self) -> dict:
        return {"choices": {x: list(vals) for x, vals in self.choices}}

    @staticmethod
    def from_payload(payload: Mapping) -> "DAssignment":
        """Read from JSON; errors name the field's JSON path."""
        choices = _payload_field(payload, "", "choices", Mapping)
        for x in choices:
            _payload_field(choices, "choices", x, list, items=str)
        return DAssignment(choices)


def enumerate_chains(inst: LlcInstance) -> tuple:
    """All cross-layer tuples with every pairwise constraint present, in layer
    order, each grown through its last member's successors in the next layer."""
    at = {x: (i, n) for i, layer in enumerate(inst.layers) for n, x in enumerate(layer)}
    successors = {x: [] for x in at}
    for x, y in sorted(inst.constraints, key=lambda pair: at[pair[1]]):
        if at[y][0] == at[x][0] + 1:
            successors[x].append(y)
    chains = [()]
    for layer in inst.layers:
        chains = [
            c + (y,) for c in chains for y in (successors[c[-1]] if c else layer)
            if all((p, y) in inst.constraints for p in c[:-1])
        ]
    return tuple(chains)


def weakly_satisfies(f: DAssignment, chain: Sequence[str], inst: LlcInstance) -> bool:
    """Does some constraint along the chain carry f's source set into the target?"""
    choice = f.mapping
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            psi = inst.constraints[(chain[i], chain[j])]
            if {psi[a] for a in choice[chain[i]]} & choice[chain[j]]:
                return True
    return False


def _llc_variable(layer: int, subset) -> str:
    return f"L{layer}|{','.join(subset)}"


def _decode_partial(atom: str) -> tuple:
    return tuple(atom.split(","))


def reduce_mcsp_to_llc(
    phi: Instance,
    side: RelationalStructure,
    k: Sequence[int],
    budget: int = DEFAULT_BUDGET,
) -> LlcInstance:
    """Layer i holds one variable per k_i-subset of the original variables,
    whose domain is the set of partial solutions on that subset; each nested
    pair across layers gets the restriction map as its constraint.

    The reduction is total: subsets with no partial solution produce empty
    domains and the instance is flagged instead of rejected.  Each nested
    pair's constraint relabels its `core._restriction_maps` entry, and the
    instance is built trusted.
    """
    k = tuple(int(x) for x in k)
    table = partial_solution_table(phi, side, k, budget=budget)
    labels = {u: tuple(map(tuple_label, sols)) for u, sols in table.items()}
    maps = _restriction_maps(table, k)
    layers = [[u for u in table if len(u) == size] for size in k]
    names = [{u: _llc_variable(i, u) for u in layer} for i, layer in enumerate(layers)]
    domains = {names[i][u]: labels[u] for i, layer in enumerate(layers) for u in layer}
    constraints = {}
    for i, j in itertools.combinations(range(len(k)), 2):
        for u in layers[i]:
            for w in itertools.combinations(u, k[j]):
                relabel = map(labels[w].__getitem__, maps[u, w])
                constraints[names[i][u], names[j][w]] = dict(zip(labels[u], relabel))
    return LlcInstance._of(tuple(tuple(layer.values()) for layer in names), domains, constraints)


@dataclass(frozen=True)
class LayeredValueResult:
    """Exact combinatorial layered value up to a cap; value is None when every
    width up to the cap fails."""

    value: Optional[int]
    witness: Optional[DAssignment]

    def __bool__(self):
        return self.value is not None


def combinatorial_layered_value(
    inst: LlcInstance, max_d: int, budget: int = DEFAULT_BUDGET
) -> LayeredValueResult:
    """Smallest d <= max_d admitting a d-assignment that weakly satisfies every
    chain, found by exhaustive backtracking."""
    if max_d < 1:
        raise InputError(f"max_d={max_d}: expected a width of at least 1")
    if inst.has_empty_domain:
        return LayeredValueResult(None, None)
    domains = inst.domains  # in layer order
    item = dict(zip(domains, itertools.count()))
    maps = {}
    for (x, y), psi in inst.constraints.items():
        at = dict(zip(domains[y], itertools.count()))
        maps[item[x], item[y]] = [at[psi[a]] for a in domains[x]]
    chains = [tuple(map(item.__getitem__, chain)) for chain in enumerate_chains(inst)]
    for d in range(1, max_d + 1):
        picked = _chain_search(list(map(len, domains.values())), maps, chains, d, budget)
        if picked is not None:
            bits = zip(domains.items(), picked)
            choices = {x: [a for n, a in enumerate(dom) if opt >> n & 1] for (x, dom), opt in bits}
            return LayeredValueResult(d, DAssignment(choices))
    return LayeredValueResult(None, None)


def csp_value_oracle(
    phi: Instance,
    side: RelationalStructure,
    k: Sequence[int],
    d: int,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Exact decision: does a consistent sequence with arities `k`, entries
    drawn from partial solutions of phi, and entry sizes at most d exist?

    Such a sequence is a d-assignment of the subset reduction that weakly
    satisfies every chain: one chain search at width d, with no label cover
    built.  Its items are the table's (layer, subset) pairs, its maps the
    restriction maps, its chains the nested subsets.  A subset with no
    partial solution is an exact no before any search."""
    if d < 1:
        raise InputError(f"d={d}: expected a width of at least 1")
    k = tuple(int(x) for x in k)
    table = partial_solution_table(phi, side, k, budget=budget)
    if not all(table.values()):
        return False
    keys = [(i, u) for i, size in enumerate(k) for u in table if len(u) == size]
    item, rmaps = dict(zip(keys, itertools.count())), _restriction_maps(table, k)
    chains = [(u,) for u in table if len(u) == k[0]]
    for size in k[1:]:
        chains = [c + (w,) for c in chains for w in itertools.combinations(c[-1], size)]
    chains = [tuple(map(item.__getitem__, enumerate(c))) for c in chains]
    pairs = (pair for c in chains for pair in itertools.combinations(c, 2))
    maps = {(a, b): rmaps[keys[a][1], keys[b][1]] for a, b in pairs}
    return _chain_search([len(table[u]) for _, u in keys], maps, chains, d, budget) is not None


def _width_options(size: int, d: int, budget: int) -> list:
    """The nonempty sets of at most d of a domain's `size` atoms, as bitmasks
    over the atoms' indices, counted against `budget` before any is built."""
    widths = range(1, min(d, size) + 1)
    if sum(comb(size, n) for n in widths) > budget:
        raise ResourceError(
            f"chain search at d={d} has a slot with over {budget} candidate entries"
        )
    return [
        sum(1 << a for a in combo)
        for n in widths
        for combo in itertools.combinations(range(size), n)
    ]


def _chain_search(sizes: list, maps: dict, chains: list, d: int, budget: int) -> Optional[tuple]:
    """Per item, the option of a d-assignment weakly satisfying every chain,
    or None.  Item i has `sizes[i]` labels, `maps[i, j]` sends label indices
    on i to those on j, and a chain is a tuple of items.  `core.backtrack`
    sets the items, fewer options first among ties, and judges a chain once
    its last item is set.  Options are bitmasks over label indices; an
    option's image is its image without its lowest label plus that label's."""
    widths = {n: _width_options(n, d, budget) for n in set(sizes)}
    options = [widths[n] for n in sizes]  # shared by equal sizes
    images = {}
    for (i, j), to in maps.items():
        image = images[i, j] = {0: 0}
        for opt in options[i]:
            low = opt & -opt
            image[opt] = image[opt ^ low] | 1 << to[low.bit_length() - 1]
    checks = [(chain, _weakly(chain, images)) for chain in chains]
    picks = backtrack(options, checks, budget, "chain search", lambda i: -len(options[i]))
    return next(picks, None)


def _weakly(chain: tuple, images: Mapping):
    """The test of a chain on the options picked along it: does some
    constraint along it carry its source option's image into its target's?"""
    steps = itertools.combinations(enumerate(chain), 2)
    pairs = [(i, images[a, b], j) for (i, a), (j, b) in steps]

    def test(picks) -> bool:
        for i, image, j in pairs:
            if image[picks[i]] & picks[j]:
                return True
        return False

    return test


def d_assignment_to_pas(
    f: DAssignment, phi: Instance, side: RelationalStructure, k: Sequence[int]
) -> PasSequence:
    """Read a weakly satisfying d-assignment of the reduced instance back as a
    sequence of partial assignment systems over the original variables.

    Every decoded entry must be a partial solution of phi on its subset, so
    the choices lie in the reduced instance's domains; the assignment must
    weakly satisfy all of its chains, which is exactly the consistency of the
    decoded sequence.
    """
    k = tuple(int(x) for x in k)
    mapping = f.mapping
    systems = []
    for i, size in enumerate(k):
        entries = {}
        for at in itertools.combinations(range(len(phi.variables)), size):
            u = tuple(map(phi.variables.__getitem__, at))
            name = _llc_variable(i, u)
            if name not in mapping:
                raise InputError(f"assignment is missing variable {name!r}")
            entries[u] = frozenset(_decode_partial(atom) for atom in mapping[name])
            checks = _subset_checks(phi, side, at)
            for g in entries[u]:
                if len(g) < size:
                    raise InputError(f"assignment is not total: missing {u[len(g)]!r}")
                value = g.__getitem__
                if any(tuple(map(value, scope)) not in tuples for scope, tuples in checks):
                    raise InputError(f"assignment for {name!r} leaves its domain")
        systems.append(Pas(phi.variables, side.domain, size, entries))
    seq = PasSequence(systems)
    cons = check_consistent(seq)
    if not cons:
        raise InputError(f"assignment fails weak satisfaction on the subset chain {cons.chain}")
    return seq
