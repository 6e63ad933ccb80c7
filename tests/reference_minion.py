"""The function kernel as it was before index arithmetic, kept as a test oracle.

`apply`, `minor`, `is_polymorphism` and `enumerate_polymorphisms` are the
former `FiniteFunction.apply`, `minor`, `is_polymorphism` and
`enumerate_polymorphisms`, unchanged except that the method became a function
of the evaluated `FiniteFunction`, and `index_of` and `function_from_callable`
(which they call) came along with them.  Only the property tests in
tests/test_minion.py use this module.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Optional, Sequence

from pcspkit.core import DEFAULT_BUDGET, PcspTemplate
from pcspkit.errors import InputError, ResourceError, StructuralError
from pcspkit.minion import FiniteFunction


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
