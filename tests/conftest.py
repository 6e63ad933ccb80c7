"""Shared fixtures, generators, and the acceptance-line reporter."""

from __future__ import annotations

import itertools
import math
import random

import pytest

import pcspkit as pk

ACCEPTANCE_LINES = []


def record_criterion(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"{status}  {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name} failed: {detail}"


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def k2():
    return pk.complete_graph(2)


@pytest.fixture(scope="session")
def k3():
    return pk.complete_graph(3)


@pytest.fixture(scope="session")
def t22(k2):
    return pk.PcspTemplate(k2, k2)


@pytest.fixture(scope="session")
def t23(k2, k3):
    return pk.PcspTemplate(k2, k3)


@pytest.fixture(scope="session")
def unary_side():
    """Template side for single-variable constraints over {0,1}."""
    return pk.structure(["0", "1"], only0=(1, {("0",)}), only1=(1, {("1",)}))


def cycle_instance(n: int) -> pk.Instance:
    variables = [f"v{i}" for i in range(n)]
    return pk.Instance(
        variables, [((f"v{i}", f"v{(i + 1) % n}"), "neq") for i in range(n)]
    )


def path_instance(n: int) -> pk.Instance:
    """The path v0 - v1 - ... - v(n-1)."""
    variables = [f"v{i}" for i in range(n)]
    return pk.Instance(variables, [((f"v{i}", f"v{i + 1}"), "neq") for i in range(n - 1)])


def bipartite_instance(n: int) -> pk.Instance:
    """K_{n,n}: every a_i is joined to every b_j."""
    left, right = [f"a{i}" for i in range(n)], [f"b{i}" for i in range(n)]
    return pk.Instance(left + right, [((a, b), "neq") for a in left for b in right])


def triangle_instance() -> pk.Instance:
    return pk.Instance(
        ["x", "y", "z"], [(("x", "y"), "neq"), (("y", "z"), "neq"), (("x", "z"), "neq")]
    )


ALLOWED_SETS = (frozenset(), frozenset({"0"}), frozenset({"1"}), frozenset({"0", "1"}))


def unary_instance(variables, allowed) -> pk.Instance:
    """Canonical single-variable-constraint instance: one effective allowed set
    per variable, realized with the only0/only1 relations."""
    constraints = []
    for v, vals in zip(variables, allowed):
        if vals == frozenset():
            constraints += [((v,), "only0"), ((v,), "only1")]
        elif vals == frozenset({"0"}):
            constraints.append(((v,), "only0"))
        elif vals == frozenset({"1"}):
            constraints.append(((v,), "only1"))
    return pk.Instance(variables, constraints)


def all_unary_instances(n_vars: int = 4):
    """Every canonical single-variable-constraint instance over {0,1}."""
    variables = [f"x{i}" for i in range(n_vars)]
    for combo in itertools.product(ALLOWED_SETS, repeat=n_vars):
        yield unary_instance(variables, combo)


def all_graph_instances(max_vars: int = 3):
    """Every disequality instance on at most max_vars variables, up to the
    canonical form: a set of unordered scopes, self-loops included."""
    for n in range(1, max_vars + 1):
        variables = [f"x{i}" for i in range(n)]
        pairs = [
            (variables[i], variables[j]) for i in range(n) for j in range(i, n)
        ]
        for mask in range(2 ** len(pairs)):
            chosen = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            yield pk.Instance(variables, [(scope, "neq") for scope in chosen])


def seeded_value1_sequence(seed: int, arities=(3, 2)) -> pk.PasSequence:
    """A consistent value-1 sequence: restrictions of a random assignment,
    then random single-entry rewrites kept only when consistency survives."""
    rng = random.Random(seed)
    n = rng.randint(max(arities[0], 4), 6)
    variables = [f"v{i}" for i in range(n)]
    domain = ["0", "1"]
    base = {v: rng.choice(domain) for v in variables}
    systems = [pk.pas_from_assignment(base, variables, domain, k) for k in arities]
    seq = pk.PasSequence(systems)
    for _ in range(rng.randint(0, 6)):
        i = rng.randrange(len(arities))
        system = seq[i]
        subset = rng.choice(list(system.subsets()))
        entries = dict(system.entries)
        entries[subset] = frozenset({tuple(rng.choice(domain) for _ in subset)})
        candidate_list = list(seq.systems)
        candidate_list[i] = pk.Pas(variables, domain, system.arity, entries)
        candidate = pk.PasSequence(candidate_list)
        if pk.check_consistent(candidate):
            seq = candidate
    return seq


def deep_inconsistent_sequence(n: int) -> pk.PasSequence:
    """n arity-2 systems over {x, y}, each with one entry, a pair of atoms
    that no other system holds: no two entries meet, so the one chain of n
    members is broken."""
    atoms = [f"a{i}" for i in range(math.isqrt(n - 1) + 1)]
    pairs = itertools.islice(itertools.product(atoms, repeat=2), n)
    return pk.PasSequence([pk.Pas("xy", atoms, 2, {("x", "y"): {pair}}) for pair in pairs])
