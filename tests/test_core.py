"""Structures, templates, instances, and the brute-force solvers."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import pcspkit as pk
from pcspkit.errors import InputError, ResourceError, StructuralError

from pcspkit.core import (
    _has_homomorphism,
    backtrack,
    chain_walk,
    completion_order,
    partial_solution_table,
)

import reference_core
from conftest import cycle_instance, triangle_instance


class TestStructures:
    def test_domain_and_relations_are_sorted(self):
        s = pk.structure(["1", "0"], neq=(2, {("1", "0"), ("0", "1")}))
        assert s.domain == ("0", "1")
        assert s.relations["neq"].sorted_tuples == (("0", "1"), ("1", "0"))

    def test_empty_relation_rejected(self):
        with pytest.raises(InputError):
            pk.structure(["0"], bad=(1, set()))

    def test_tuple_outside_domain_rejected(self):
        with pytest.raises(InputError):
            pk.structure(["0"], bad=(1, {("2",)}))

    def test_template_requires_similarity(self, k2):
        other = pk.structure(["0", "1"], eq=(2, {("0", "0"), ("1", "1")}))
        with pytest.raises(StructuralError):
            pk.PcspTemplate(k2, other)

    def test_template_requires_homomorphism(self, k2):
        # K3 -> K2 has no homomorphism: a triangle is not 2-colorable.
        with pytest.raises(StructuralError):
            pk.PcspTemplate(pk.complete_graph(3), k2)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_a_template_is_built_exactly_when_a_homomorphism_exists(self, data):
        sides = []
        for _ in range(2):
            domain = "012"[: data.draw(st.integers(1, 3))]
            rel = {
                name: (arity, data.draw(st.sets(st.tuples(*[st.sampled_from(domain)] * arity),
                                                min_size=1, max_size=4)))
                for name, arity in (("e", 2), ("u", 1))
            }
            sides.append(pk.structure(domain, **rel))
        strict, relaxed = sides
        exists = any(
            all(tuple(h[a] for a in t) in relaxed.relations[name].tuples
                for name, rel in strict.relations.items() for t in rel.tuples)
            for h in (dict(zip(strict.domain, images))
                      for images in itertools.product(relaxed.domain, repeat=len(strict.domain)))
        )
        try:
            pk.PcspTemplate(strict, relaxed)
        except StructuralError:
            assert not exists
        else:
            assert exists

    def test_payload_round_trip(self, k2):
        assert pk.RelationalStructure.from_payload(k2.to_payload()) == k2

    def test_unary_tuples_as_a_string_are_refused(self):
        # "01" used to be read as the two tuples ("0",) and ("1",)
        payload = {"domain": ["0", "1"], "relations": {"u": {"arity": 1, "tuples": "01"}}}
        with pytest.raises(InputError, match="^relations.u.tuples: expected a list$"):
            pk.RelationalStructure.from_payload(payload)
        with pytest.raises(InputError, match="^relations.u.tuples: expected a list of lists"):
            pk.RelationalStructure.from_payload({**payload, "relations": {"u": {"arity": 1, "tuples": ["01"]}}})

    def test_template_fields_are_named_with_their_side(self, k2):
        payload = pk.PcspTemplate(k2, k2).to_payload()
        with pytest.raises(InputError, match="^relaxed: missing$"):
            pk.PcspTemplate.from_payload({"strict": payload["strict"]})
        payload["strict"]["relations"]["neq"]["arity"] = "2"
        with pytest.raises(InputError, match=r"^strict\.relations\.neq\.arity: expected an integer$"):
            pk.PcspTemplate.from_payload(payload)

    def test_a_boolean_arity_is_refused(self, k2):
        # true is an int to isinstance, and used to be read as arity 1
        payload = {"domain": ["0", "1"], "relations": {"u": {"arity": True, "tuples": [["1"]]}}}
        with pytest.raises(InputError, match=r"^relations\.u\.arity: expected an integer$"):
            pk.RelationalStructure.from_payload(payload)

    def test_an_assignment_without_values_is_refused(self):
        with pytest.raises(InputError, match="^values: missing$"):
            pk.Assignment.from_payload({})


@st.composite
def similar_structures(draw):
    """Two similar structures on 1-4 atoms, with one to three relations of
    arity 1-3, each holding one to six tuples."""
    arities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    sides = []
    for _ in range(2):
        domain = "0123"[: draw(st.integers(1, 4))]
        atoms = st.sampled_from(domain)
        sides.append(pk.structure(domain, **{
            f"r{i}": (arity, draw(st.sets(st.tuples(*[atoms] * arity), min_size=1, max_size=6)))
            for i, arity in enumerate(arities)
        }))
    return sides


class TestHomomorphismSearch:
    """The template check is one `backtrack` search under a node budget."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(sides=similar_structures())
    def test_same_verdict_as_the_product_search(self, sides):
        assert _has_homomorphism(*sides) == reference_core.has_homomorphism(*sides)

    def test_k8_to_k7_is_decided(self):
        # the product search tries all 7**8 = 5,764,801 maps
        assert not _has_homomorphism(pk.complete_graph(8), pk.complete_graph(7))
        assert _has_homomorphism(pk.complete_graph(7), pk.complete_graph(8))

    def test_past_the_budget_is_a_resource_error(self, monkeypatch):
        # (K12,K11) reaches the default budget of 10**7 nodes in about 16 s
        monkeypatch.setattr(pk.core, "DEFAULT_BUDGET", 100)
        with pytest.raises(ResourceError, match="^homomorphism search visited over 100 nodes$"):
            pk.PcspTemplate(pk.complete_graph(5), pk.complete_graph(4))


class TestCheckHomomorphism:
    def test_identity_on_k2(self, k2):
        assert pk.check_homomorphism({"0": "0", "1": "1"}, k2, k2)

    def test_constant_map_fails(self, k2):
        assert not pk.check_homomorphism({"0": "0", "1": "0"}, k2, k2)

    def test_inclusion_into_k3(self, k2, k3):
        assert pk.check_homomorphism({"0": "0", "1": "1"}, k2, k3)

    def test_partial_map_rejected(self, k2):
        with pytest.raises(InputError):
            pk.check_homomorphism({"0": "0"}, k2, k2)


class TestEvaluate:
    def test_proper_coloring_of_triangle(self, k3):
        f = pk.Assignment({"x": "0", "y": "1", "z": "2"})
        assert pk.evaluate(triangle_instance(), k3, f) == []

    def test_violation_reports_index(self, k3):
        f = pk.Assignment({"x": "0", "y": "0", "z": "1"})
        assert pk.evaluate(triangle_instance(), k3, f) == [0]

    def test_no_constraints_vacuous(self, k2):
        inst = pk.Instance(["x"], [])
        assert pk.evaluate(inst, k2, pk.Assignment({"x": "1"})) == []

    def test_partial_assignment_rejected(self, k2):
        inst = pk.Instance(["x", "y"], [(("x", "y"), "neq")])
        with pytest.raises(InputError):
            pk.evaluate(inst, k2, pk.Assignment({"x": "0"}))


class TestBruteForce:
    def test_odd_cycle_not_two_colorable(self, k2):
        assert pk.brute_force_solve(cycle_instance(5), k2) is None

    def test_odd_cycle_three_colorable(self, k3):
        found = pk.brute_force_solve(cycle_instance(5), k3)
        assert found is not None
        assert pk.evaluate(cycle_instance(5), k3, found) == []

    def test_lexicographic_first(self, k2):
        inst = pk.Instance(["x"], [])
        found = pk.brute_force_solve(inst, k2)
        assert found.mapping == {"x": "0"}

    def test_budget_error_names_bound(self, k2):
        inst = pk.Instance([f"v{i}" for i in range(10)], [])
        with pytest.raises(ResourceError, match="4"):
            pk.brute_force_solve(inst, k2, budget=4)

    @pytest.mark.parametrize(
        "n, count", [(63, str(2**63)), (64, "a 65-bit number of"), (15000, "a 15001-bit number of")]
    )
    def test_budget_error_gives_a_count_past_64_bits_by_its_length(self, k2, n, count):
        # Python formats no integer past 4,300 digits, and 2^15000 has 4,516
        inst = pk.Instance([f"v{i}" for i in range(n)], [])
        with pytest.raises(ResourceError, match=f"enumerate {count} candidates,"):
            pk.brute_force_solve(inst, k2, budget=4)

    def test_all_solutions_of_an_edge(self, k2):
        inst = pk.Instance(["x", "y"], [(("x", "y"), "neq")])
        sols = {s.mapping["x"] + s.mapping["y"] for s in pk.all_solutions(inst, k2)}
        assert sols == {"01", "10"}

    def test_all_solutions_triangle_over_k2_empty(self, k2):
        assert pk.all_solutions(triangle_instance(), k2) == ()

    def test_all_solutions_unconstrained(self, k2):
        inst = pk.Instance(["x", "y"], [])
        assert len(pk.all_solutions(inst, k2)) == 4


@st.composite
def small_instances(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    variables = [f"v{i}" for i in range(n)]
    n_cons = draw(st.integers(min_value=0, max_value=5))
    constraints = []
    for _ in range(n_cons):
        x = draw(st.sampled_from(variables))
        y = draw(st.sampled_from(variables))
        constraints.append(((x, y), "neq"))
    return pk.Instance(variables, constraints)


class TestSolverProperties:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(inst=small_instances())
    def test_solutions_pass_evaluate(self, inst, k2):
        found = pk.brute_force_solve(inst, k2)
        if found is not None:
            assert pk.evaluate(inst, k2, found) == []

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(inst=small_instances())
    def test_automorphism_closure(self, inst, k2):
        # negation is an automorphism of the disequality structure
        swap = {"0": "1", "1": "0"}
        assert pk.check_homomorphism(swap, k2, k2)
        sols = set(pk.all_solutions(inst, k2))
        for f in sols:
            mapped = pk.Assignment({v: swap[a] for v, a in f.values})
            assert mapped in sols

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(inst=small_instances())
    def test_promise_soundness(self, inst, k2, k3):
        # composing a strict solution with a template homomorphism solves the
        # relaxed side
        h = {"0": "0", "1": "1"}
        found = pk.brute_force_solve(inst, k2)
        if found is not None:
            lifted = pk.Assignment({v: h[a] for v, a in found.values})
            assert pk.evaluate(inst, k3, lifted) == []


class TestInstances:
    def test_repeated_scope_variables_allowed(self, k2):
        inst = pk.Instance(["x"], [(("x", "x"), "neq")])
        assert pk.brute_force_solve(inst, k2) is None

    def test_unknown_scope_variable_rejected(self):
        with pytest.raises(InputError):
            pk.Instance(["x"], [(("x", "y"), "neq")])

    def test_induced_keeps_inner_constraints(self, k2):
        inst = triangle_instance()
        sub = inst.induced(("x", "y"))
        assert len(sub.constraints) == 1

    def test_payload_round_trip(self):
        inst = triangle_instance()
        assert pk.Instance.from_payload(inst.to_payload()) == inst

    @staticmethod
    def _walked(variables, scopes):
        """The first fault the item-by-item checks name: variables in sorted
        order, then scope entries in order."""
        for v in sorted(set(variables)):
            if not isinstance(v, str) or not v:
                return f"variable must be a nonempty string, got {v!r}"
            for ch in (",", "|", "#", ">"):
                if ch in v:
                    return f"variable {v!r} contains reserved character {ch!r}"
        known = set(variables)
        for scope in scopes:
            for v in scope:
                if v not in known:
                    return f"constraint scope uses unknown variable {v!r}"
        return None

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.text(alphabet="ab,|#>", max_size=3), max_size=5),
        st.lists(st.lists(st.text(alphabet="ab,", max_size=2), min_size=1, max_size=2), max_size=4),
    )
    def test_bulk_checks_name_the_fault_the_walk_names(self, variables, scopes):
        expected = self._walked(variables, scopes)
        constraints = [(scope, "neq") for scope in scopes]
        if expected is None:
            assert pk.Instance(variables, constraints).variables == tuple(sorted(set(variables)))
        else:
            with pytest.raises(InputError) as info:
                pk.Instance(variables, constraints)
            assert str(info.value) == expected

    def test_a_variable_that_is_not_a_string(self):
        with pytest.raises(InputError, match="^variable must be a nonempty string, got 3$"):
            pk.Instance([4, 3], [])


# neq and only0 over {0,1}; "other" names no relation of it
SIDE = pk.structure(["0", "1"], neq=(2, {("0", "1"), ("1", "0")}), only0=(1, {("0",)}))
NAMES = ["a", "b", "c", "d", "e"]


@st.composite
def named_instances(draw):
    """Variables in any order and constraints of any length over them,
    some naming no relation of SIDE or of another arity than theirs."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=True))
    scopes = st.lists(st.sampled_from(names), min_size=1, max_size=3).map(tuple)
    relations = st.sampled_from(["neq", "neq", "only0", "other"])
    return names, draw(st.lists(st.tuples(scopes, relations), max_size=6))


def _outcome(fn, *args):
    """What a call returns, or the kind and message of what it raises."""
    try:
        return "returned", fn(*args)
    except (InputError, StructuralError) as exc:
        return type(exc).__name__, str(exc)


class TestIntegerScopesAgainstReference:
    """The integer-scope instance against the name-based walks of
    tests/reference_core."""

    @settings(max_examples=300, deadline=None)
    @given(named_instances(), st.dictionaries(st.sampled_from(NAMES), st.sampled_from("01")))
    def test_evaluate_reports_the_same_indices_and_faults(self, case, values):
        inst = pk.Instance(*case)
        f = pk.Assignment(values)
        assert _outcome(pk.evaluate, inst, SIDE, f) == _outcome(
            reference_core.evaluate, inst, SIDE, f
        )

    @settings(max_examples=300, deadline=None)
    @given(named_instances(), st.lists(st.sampled_from(NAMES), max_size=4))
    def test_induced_is_the_same_sub_instance(self, case, subset):
        inst = pk.Instance(*case)
        got = _outcome(inst.induced, subset)
        assert got == _outcome(reference_core.induced, inst, subset)
        if got[0] == "returned":
            sub = got[1]
            assert _outcome(pk.all_solutions, sub, SIDE) == _outcome(
                reference_core.all_solutions, sub, SIDE
            )

    @settings(max_examples=200, deadline=None)
    @given(named_instances(), named_instances())
    def test_payload_equality_hash_and_order(self, case, other):
        names, constraints = case
        inst = pk.Instance(names, constraints)
        assert pk.Instance.from_payload(inst.to_payload()) == inst
        assert [(c.scope, c.relation) for c in inst.constraints] == constraints
        assert all(type(c) is pk.Constraint for c in inst.constraints)
        same = pk.Instance(reversed(names), [pk.Constraint(*c) for c in constraints])
        assert same == inst and hash(same) == hash(inst)
        second = pk.Instance(*other)
        pairs_equal = (inst.variables, inst.constraints) == (second.variables, second.constraints)
        assert (inst == second) == pairs_equal
        if pairs_equal:
            assert hash(inst) == hash(second)

    def test_scopes_are_indices_into_the_sorted_variables(self):
        inst = pk.Instance(["y", "x"], [(("y", "x"), "neq"), (("x", "x"), "neq")])
        assert inst.variables == ("x", "y")
        assert inst.relation_names == ("neq", "neq")
        assert inst.scopes == ((1, 0), (0, 0))


# K2 and K3 with a unary relation each; "other" names no relation of them
LATTICE_SIDES = [
    pk.structure(["0", "1"], neq=(2, {("0", "1"), ("1", "0")}), only0=(1, {("0",)})),
    pk.structure(
        ["0", "1", "2"],
        neq=(2, {(a, b) for a in "012" for b in "012" if a != b}),
        only0=(1, {("0",), ("1",)}),
    ),
]


@st.composite
def lattice_cases(draw):
    """An instance over 2-5 variables, a side, arities and a budget.  Most
    constraints are graph edges or unary; some repeat a variable, name a
    relation the side lacks or have a scope whose length is not the arity."""
    names = NAMES[: draw(st.integers(2, 5))]
    edge = st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True).map(
        lambda scope: (tuple(scope), "neq")
    )
    unary = st.sampled_from(names).map(lambda x: ((x,), "only0"))
    wild = st.tuples(
        st.lists(st.sampled_from(names), min_size=1, max_size=3).map(tuple),
        st.sampled_from(["neq", "only0", "other"]),
    )
    kinds = st.one_of(edge, edge, unary, wild)
    phi = pk.Instance(names, draw(st.lists(kinds, max_size=6)))
    side = draw(st.sampled_from(LATTICE_SIDES))
    k = draw(st.sampled_from([(2, 1), (3, 2), (3, 3), (3, 2, 1)]))
    return phi, side, k, draw(st.sampled_from([4, 30, 300, 3000]))


def _returned_or_class(fn, *args):
    """What a call returns, or only the class of what it raises."""
    try:
        return "returned", fn(*args)
    except pk.PcspkitError as exc:
        return type(exc).__name__


def _reference_auxiliary(phi, side, k, budget):
    table = reference_core.partial_solution_table(phi, side, k, budget)
    if not all(table.values()):
        raise pk.PromiseViolationError("a subset has no partial solution")
    return reference_core.auxiliary_constraints(phi, table, k)


class TestSubsetLatticeAgainstReference:
    """The partial-solution table on integer scopes, and the restriction maps
    both subset reductions share, against the name-based walks of
    tests/reference_core."""

    @settings(max_examples=300, deadline=None)
    @given(lattice_cases())
    def test_same_table_subset_instance_and_label_cover(self, case):
        phi, side, k, budget = case
        table = _returned_or_class(partial_solution_table, phi, side, k, budget)
        expected = _returned_or_class(reference_core.partial_solution_table, *case)
        assert table == expected
        if isinstance(table, tuple):  # the same subsets, in the same order
            assert list(table[1]) == list(expected[1])
            llc = _returned_or_class(pk.reduce_mcsp_to_llc, phi, side, k, budget)
            assert llc == ("returned", reference_core.llc_from_table(table[1], k))
        aux = _returned_or_class(pk.build_auxiliary, phi, side, k, budget)
        if isinstance(aux, tuple):
            aux = ("returned", aux[1].constraints)
        assert aux == _returned_or_class(_reference_auxiliary, *case)

    @pytest.mark.parametrize("k", [(2, -1), (2, 0), (0,), ()])
    def test_arities_below_one_or_none_are_refused(self, k):
        phi = pk.Instance(["x", "y"], [(("x", "y"), "neq")])
        with pytest.raises(InputError, match=r"must be one or more positive integers"):
            partial_solution_table(phi, pk.complete_graph(2), k)


class TestAssignments:
    def test_one_sorted_mapping(self):
        f = pk.Assignment({"y": "1", "x": "0"}, side="strict")
        assert f.values == (("x", "0"), ("y", "1"))
        assert list(f) == ["x", "y"] and dict(f) == {"x": "0", "y": "1"}
        assert f["y"] == "1" and "x" in f and "z" not in f
        assert f.to_payload() == {"values": {"x": "0", "y": "1"}, "side": "strict"}
        # the mapping is stored once, whether or not it was read by key
        assert [k for k in vars(f) if k != "side"] == ["_mapping"]

    def test_equality_and_hashing(self):
        f = pk.Assignment({"y": "1", "x": "0"})
        g = pk.Assignment({"x": "0", "y": "1"})
        assert f == g and hash(f) == hash(g) == hash(((("x", "0"), ("y", "1")), None))
        assert f != pk.Assignment({"x": "0", "y": "1"}, side="strict")
        assert f != pk.Assignment({"x": "0", "y": "0"})
        assert f != {"x": "0", "y": "1"}
        assert len({f, g}) == 1

    def test_handing_out_the_mapping_does_not_change_it(self):
        f = pk.Assignment({"x": "0"})
        f.mapping["x"] = "1"
        f.to_payload()["values"]["x"] = "1"
        assert f["x"] == "0"


@st.composite
def backtrack_cases(draw):
    """Up to four items, each with up to three options from 0-2, checks over
    one to three of them (repeats allowed), each allowing a drawn set of
    tuples, and a tiebreak per item."""
    n = draw(st.integers(0, 4))
    options = [draw(st.lists(st.integers(0, 2), unique=True, max_size=3)) for _ in range(n)]
    checks = []
    for _ in range(draw(st.integers(0, 4)) if n else 0):
        items = tuple(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)))
        value = st.integers(0, 2)
        allowed = frozenset(draw(st.sets(st.tuples(*[value] * len(items)), max_size=12)))
        checks.append((items, allowed.__contains__))
    ties = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    return options, checks, ties.__getitem__


def _brute_force_backtrack(options, checks, tiebreak):
    """The picks passing every check, in product order over the items'
    completion order, and the nodes a depth-first search tries: per prefix
    of that order passing the checks inside it, the next item's options."""
    groups = [tuple(dict.fromkeys(items)) for items, _ in checks]
    order, _ = completion_order(range(len(options)), groups, tiebreak)

    def passing(length):
        for values in itertools.product(*(options[x] for x in order[:length])):
            picked = dict(zip(order, values))
            if all(test(tuple(map(picked.get, items))) for items, test in checks
                   if set(items) <= picked.keys()):
                yield tuple(map(picked.get, range(len(options))))

    nodes = sum(
        len(list(passing(length))) * len(options[order[length]]) for length in range(len(order))
    )
    return list(passing(len(order))), nodes


class TestBacktrackAgainstBruteForce:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(case=backtrack_cases())
    def test_same_picks_in_the_same_order_and_the_same_budgets(self, case):
        options, checks, tiebreak = case
        expected, nodes = _brute_force_backtrack(options, checks, tiebreak)
        assert list(backtrack(options, checks, nodes, "search", tiebreak)) == expected
        if nodes:
            picks = []
            with pytest.raises(ResourceError, match=f"^search visited over {nodes - 1} nodes$"):
                for pick in backtrack(options, checks, nodes - 1, "search", tiebreak):
                    picks.append(pick)
            assert picks == expected[: len(picks)]

    def test_the_empty_search_succeeds_once(self):
        assert list(backtrack([], [], 0, "search")) == [()]


@st.composite
def chain_trees(draw):
    """Chains of one to four members in a tree whose nodes have up to three
    children, each with an image of at most two elements of 0-3 and, as the
    step into it, a map of 0-3 into itself."""
    length = draw(st.integers(1, 4))
    element = st.integers(0, 3)
    tree, frontier = {}, [()]
    for _ in range(length):
        deeper = []
        for path in frontier:
            tree[path] = []
            for member in range(draw(st.integers(0, 3))):
                step = tuple(draw(st.lists(element, min_size=4, max_size=4)))
                tree[path].append((step, member, draw(st.frozensets(element, max_size=2))))
                deeper.append(path + (member,))
        frontier = deeper
    return length, tree


class TestChainWalkAgainstBruteForce:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(case=chain_trees())
    def test_same_first_broken_chain(self, case):
        length, tree = case

        def move(g, step):
            return step[g]

        expected = reference_core.first_broken_chain(length, tree.__getitem__, move)
        assert chain_walk(length, tree.__getitem__, move) == expected
