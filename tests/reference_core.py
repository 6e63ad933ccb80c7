"""Name-based instance walks, kept as oracles for the integer-scope core.

These read an instance only through its `constraints` view, by variable
name, as the core did before its scopes became integers.
"""

from __future__ import annotations

import itertools

from pcspkit.core import Assignment, Instance
from pcspkit.errors import InputError, StructuralError


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


def all_solutions(instance, side) -> tuple:
    """Every solution, a dict per candidate in lexicographic order."""
    _validate(instance, side)
    found = []
    for values in itertools.product(side.domain, repeat=len(instance.variables)):
        mapping = dict(zip(instance.variables, values))
        if not evaluate(instance, side, mapping):
            found.append(Assignment(mapping))
    return tuple(found)
