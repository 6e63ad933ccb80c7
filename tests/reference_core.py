"""Name-based instance walks, kept as oracles for the integer-scope core.

These read an instance only through its `constraints` view, by variable
name, as the core did before its scopes became integers.  The subset
lattice below is built the same way: one induced instance per subset,
brute-forced into assignments, with each nested pair's restriction map
worked out again for each reduction.

`first_broken_chain` is the oracle for `core.chain_walk`: it lists every
chain in full and tests every pair of its members, with no pruning.

`has_homomorphism` is the oracle for `core._has_homomorphism`, the template
check: every map tried in product order, with no pruning and no budget.
"""

from __future__ import annotations

import itertools

from pcspkit.core import Assignment, Instance
from pcspkit.errors import InputError, ResourceError, StructuralError
from pcspkit.labelcover import LlcInstance
from pcspkit.reduction import PsiConstraint


def _validate(instance, side) -> None:
    for i, c in enumerate(instance.constraints):
        rel = side.relations.get(c.relation)
        if rel is None:
            raise StructuralError(f"constraint {i} names unknown relation {c.relation!r}")
        if len(c.scope) != rel.arity:
            raise StructuralError(
                f"constraint {i} scope length {len(c.scope)} != arity {rel.arity}"
            )


def evaluate(instance, side, f) -> list:
    """Indices of the constraints f violates: every constraint is validated
    first, then the assignment must be total."""
    _validate(instance, side)
    mapping = dict(f.items())
    for v in instance.variables:
        if v not in mapping:
            raise InputError(f"assignment is not total: missing {v!r}")
    return [
        i
        for i, c in enumerate(instance.constraints)
        if tuple(mapping[v] for v in c.scope) not in side.relations[c.relation].tuples
    ]


def induced(instance, subset) -> Instance:
    """The constraints whose scope lies inside `subset`, as a new instance."""
    sub = set(subset)
    if not sub <= set(instance.variables):
        raise InputError("subset is not contained in the variable set")
    return Instance(subset, [c for c in instance.constraints if set(c.scope) <= sub])


def all_solutions(instance, side, budget=None) -> tuple:
    """Every solution, a dict per candidate in lexicographic order; with a
    budget, the candidates are priced after the constraints are validated."""
    _validate(instance, side)
    total = len(side.domain) ** len(instance.variables)
    if budget is not None and total > budget:
        raise ResourceError(
            f"brute force would enumerate {total} candidates, over the budget of {budget}"
        )
    found = []
    for values in itertools.product(side.domain, repeat=len(instance.variables)):
        mapping = dict(zip(instance.variables, values))
        if not evaluate(instance, side, mapping):
            found.append(Assignment(mapping))
    return tuple(found)


def partial_solution_table(phi, side, k, budget) -> dict:
    """Every k_i-subset's partial solutions, from its induced instance."""
    k = tuple(int(x) for x in k)
    if any(a < b for a, b in zip(k, k[1:])):
        raise InputError(f"arities {list(k)} must be non-increasing")
    if k[0] > len(phi.variables):
        raise InputError(
            f"top arity {k[0]} exceeds the {len(phi.variables)} variables; pad the instance first"
        )
    table = {}
    for size in dict.fromkeys(k):
        for u in itertools.combinations(phi.variables, size):
            sols = all_solutions(induced(phi, u), side, budget)
            table[u] = tuple(tuple(s.mapping[x] for x in u) for s in sols)
    return table


def _llc_variable(layer, subset) -> str:
    return f"L{layer}|{','.join(subset)}"


def llc_from_table(table, k) -> LlcInstance:
    """The subset reduction, each nested pair's label map joined afresh."""
    layers = [[u for u in table if len(u) == size] for size in k]
    domains = {}
    constraints = {}
    for i, layer in enumerate(layers):
        for u in layer:
            domains[_llc_variable(i, u)] = tuple(",".join(g) for g in table[u])
            for j in range(i + 1, len(k)):
                for w in itertools.combinations(u, k[j]):
                    idx = [u.index(x) for x in w]
                    constraints[(_llc_variable(i, u), _llc_variable(j, w))] = {
                        ",".join(g): ",".join(tuple(g[p] for p in idx)) for g in table[u]
                    }
    names = [[_llc_variable(i, u) for u in layer] for i, layer in enumerate(layers)]
    return LlcInstance(names, domains, constraints)


def auxiliary_constraints(phi, table, k) -> tuple:
    """The subset instance's constraints, each index map worked out from the
    solution lists of its two subsets."""
    pairs = set()
    for i in range(len(k)):
        for j in range(i + 1, len(k)):
            for u in itertools.combinations(phi.variables, k[i]):
                for w in itertools.combinations(u, k[j]):
                    pairs.add((u, w))
    constraints = []
    for u, w in sorted(pairs):
        idx = [u.index(x) for x in w]
        index_of = {h: n for n, h in enumerate(table[w])}
        cmap = {n: index_of[tuple(g[p] for p in idx)] for n, g in enumerate(table[u])}
        constraints.append(PsiConstraint(",".join(u), ",".join(w), cmap))
    return tuple(constraints)


def first_broken_chain(length, children, move):
    """Every chain of `length` members in the order `children` lists them,
    each pair i < j tested through the composed moves: the first chain where
    no element of member i's image, moved along every step up to member j,
    lies in member j's image, as (members, steps between them), or None."""

    def chains(path, steps, images):
        if len(path) == length:
            yield path, steps, images
            return
        for step, member, image in children(path):
            yield from chains(path + (member,), steps + (step,), images + (image,))

    for path, steps, images in chains((), (), ()):
        pairs = itertools.combinations(range(length), 2)
        if not any(_meets(images[i], images[j], steps[i + 1 : j + 1], move) for i, j in pairs):
            return path, steps[1:]
    return None


def _meets(first, later, steps, move) -> bool:
    for g in first:
        for step in steps:
            g = move(g, step)
        if g in later:
            return True
    return False


def has_homomorphism(src, dst) -> bool:
    """Is some map src -> dst, in lexicographic product order over dst's
    domain, a homomorphism?  Each map is tested on every tuple of src."""
    for images in itertools.product(dst.domain, repeat=len(src.domain)):
        h = dict(zip(src.domain, images))
        if all(
            tuple(h[a] for a in t) in dst.relations[name].tuples
            for name, rel in src.relations.items()
            for t in rel.tuples
        ):
            return True
    return False
