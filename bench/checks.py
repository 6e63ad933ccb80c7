"""Output checks that share no code with pcspkit.

Every function here works on plain Python data: JSON payloads as the CLI
would write them, edge lists and dicts.  None of them imports pcspkit, so a
fault in the library cannot also hide in the check that should catch it.
Each returns True when the output is right.
"""

from __future__ import annotations

import itertools
from collections import deque


def neq(n: int) -> frozenset:
    """The edge tuples of the complete graph K_n on atoms "0" .. "n-1"."""
    return frozenset((str(a), str(b)) for a in range(n) for b in range(n) if a != b)


K2_NEQ = neq(2)


def satisfies_every_constraint(instance_payload: dict, values: dict, relations: dict) -> bool:
    """A plain loop over the emitted scopes: every constraint's tuple of values
    lies in its relation, and every emitted variable has a value."""
    for variable in instance_payload["variables"]:
        if variable not in values:
            return False
    for constraint in instance_payload["constraints"]:
        tuples = relations.get(constraint["relation"])
        if tuples is None:
            return False
        if tuple(values[x] for x in constraint["scope"]) not in tuples:
            return False
    return True


def two_colouring(vertices, edges) -> dict | None:
    """A proper 2-colouring by breadth-first search, or None if the graph has
    an odd cycle."""
    neighbours = {v: [] for v in vertices}
    for a, b in edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    colour = {}
    for start in vertices:
        if start in colour:
            continue
        colour[start] = "0"
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in neighbours[x]:
                if y not in colour:
                    colour[y] = "1" if colour[x] == "0" else "0"
                    queue.append(y)
                elif colour[y] == colour[x]:
                    return None
    return colour


def properly_colours(vertices, edges, values: dict) -> bool:
    """values gives every vertex a colour in {0, 1} and no edge two equal ends."""
    if any(values.get(v) not in ("0", "1") for v in vertices):
        return False
    return all(values[a] != values[b] for a, b in edges)


def sequence_is_restrictions(sequence_payload: dict, arities, values: dict) -> bool:
    """Each system of the sequence holds, on every subset of its arity, exactly
    the one restriction of `values` to that subset."""
    systems = sequence_payload["systems"]
    if [s["arity"] for s in systems] != list(arities):
        return False
    for system in systems:
        variables = system["variables"]
        expected = {
            tuple(subset): [{x: values[x] for x in subset}]
            for subset in itertools.combinations(sorted(variables), system["arity"])
        }
        got = {tuple(entry["set"]): entry["assignments"] for entry in system["entries"]}
        if got != expected:
            return False
    return True


def table_is_polymorphism(function_payload: dict, strict: dict, relaxed: dict) -> bool:
    """Per-matrix check of one function table.

    The table lists values in mixed-radix order over the sorted arity set and
    sorted input domain.  For every relation and every choice of one strict
    tuple per coordinate, the rows of that matrix must map into the relaxed
    relation.  strict and relaxed map a relation name to a set of tuples.
    """
    n = len(function_payload["arity_set"])
    domain = function_payload["in_domain"]
    table = function_payload["table"]
    digit = {a: i for i, a in enumerate(domain)}
    if len(table) != len(domain) ** n:
        return False
    for name, tuples in strict.items():
        arity = len(next(iter(tuples)))
        for columns in itertools.product(sorted(tuples), repeat=n):
            image = []
            for row in range(arity):
                index = 0
                for column in columns:
                    index = index * len(domain) + digit[column[row]]
                image.append(table[index])
            if tuple(image) not in relaxed[name]:
                return False
    return True


def graph_polymorphism_count(strict_colours: int, relaxed_colours: int, arity: int) -> int:
    """Closed forms for the polymorphism counts of (K2,K2), (K2,K3), (K3,K3).

    A polymorphism K2^n -> K is fixed by its values on one tuple of each
    complementary pair: 2^(n-1) free pairs, each sent to an edge of K, so
    2^(2^(n-1)) for K=K2 and 6^(2^(n-1)) for K=K3.  Polymorphisms K3^n -> K3
    are essentially unary: a coordinate (n) composed with a permutation (6).
    """
    if strict_colours == 2:
        edges = relaxed_colours * (relaxed_colours - 1)
        return edges ** (2 ** (arity - 1))
    if (strict_colours, relaxed_colours) == (3, 3):
        return 6 * arity
    raise ValueError(f"no closed form for K{strict_colours} -> K{relaxed_colours}")
