"""Layered label cover: chains, weak satisfaction, the subset reduction."""

import hashlib
import itertools
import re

import pytest
from hypothesis import example, given, settings, strategies as st

import pcspkit as pk
from pcspkit import jsonio, labelcover
from pcspkit.errors import InputError, ResourceError, StructuralError

from pcspkit.core import DEFAULT_BUDGET, completion_order, partial_solution_table
from pcspkit.labelcover import _width_options

import reference_oracle as oracle_module
from conftest import ALLOWED_SETS, cycle_instance, path_instance, triangle_instance, unary_instance
from reference_oracle import csp_value_oracle as reference_oracle


def tiny_llc():
    return pk.LlcInstance(
        layers=[("a0", "a1"), ("b0",)],
        domains={"a0": ("x", "y"), "a1": ("x",), "b0": ("u", "v")},
        constraints={
            ("a0", "b0"): {"x": "u", "y": "v"},
            ("a1", "b0"): {"x": "u"},
        },
    )


class TestLlcInstance:
    def test_constraint_must_go_up(self):
        with pytest.raises(StructuralError):
            pk.LlcInstance(
                layers=[("a",), ("b",)],
                domains={"a": ("0",), "b": ("0",)},
                constraints={("b", "a"): {"0": "0"}},
            )

    def test_non_total_constraint_rejected(self):
        with pytest.raises(InputError):
            pk.LlcInstance(
                layers=[("a",), ("b",)],
                domains={"a": ("0", "1"), "b": ("0",)},
                constraints={("a", "b"): {"0": "0"}},
            )

    @pytest.mark.parametrize("image", ["2", ["0"]], ids=["outside", "unhashable"])
    def test_an_image_outside_the_target_domain_is_refused(self, image):
        with pytest.raises(InputError, match="^constraint a->b leaves the target domain$"):
            pk.LlcInstance(
                layers=[("a",), ("b",)],
                domains={"a": ("0", "1"), "b": ("0", "1")},
                constraints={("a", "b"): {"0": "0", "1": image}},
            )

    def test_a_repeated_domain_label_is_refused(self):
        # read, written back with the repeat and given layered value 1 before
        payload = {"layers": [["a"], ["b"]], "domains": {"a": ["0", "0"], "b": ["1", "1"]},
                   "constraints": []}
        with pytest.raises(InputError, match="^variable 'a' repeats the label '0' in its domain$"):
            pk.LlcInstance.from_payload(payload)

    def test_payload_round_trip(self):
        inst = tiny_llc()
        assert pk.LlcInstance.from_payload(inst.to_payload()) == inst

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p.clear(), "layers: missing"),
            (lambda p: p["constraints"][1].pop("to"), "constraints[1].to: missing"),
            (lambda p: p["layers"][1].append(5), "layers[1][1]: expected a string"),
            (lambda p: p["domains"].update(a1="x"), "domains.a1: expected a list"),
            (lambda p: p["constraints"][0]["map"].update(x=["u"]),
             "constraints[0].map.x: expected a string"),
            (lambda p: p.update(has_empty_domain="no"), "has_empty_domain: expected a boolean"),
            (lambda p: p.update(has_empty_domain=True),
             "has_empty_domain flag disagrees with the domains"),
            (lambda p: p["domains"].pop("b0"), "variable 'b0' has no domain"),
            (lambda p: p["constraints"][0].update({"to": "q"}),
             "constraint a0->q names a variable outside the layers"),
        ],
    )
    def test_payload_faults_name_the_field(self, edit, message):
        payload = tiny_llc().to_payload()
        edit(payload)
        with pytest.raises(InputError, match=re.escape(message)):
            pk.LlcInstance.from_payload(payload)


    def test_a_repeated_pair_is_refused(self):
        # the later map used to replace the earlier one without a word
        payload = tiny_llc().to_payload()
        payload["constraints"].append({**payload["constraints"][0], "map": {"x": "v", "y": "v"}})
        with pytest.raises(InputError, match=re.escape("constraints[2]: repeats the pair a0->b0")):
            pk.LlcInstance.from_payload(payload)


class TestDAssignmentPayload:
    def test_round_trip(self):
        f = pk.DAssignment({"x": ["1", "0"], "y": ["0"]})
        assert pk.DAssignment.from_payload(f.to_payload()) == f

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({}, "choices: missing"),
            ({"choices": ["x"]}, "choices: expected an object"),
            ({"choices": {"x": 5}}, "choices.x: expected a list"),
            ({"choices": {"x": ["0", 1]}}, "choices.x[1]: expected a string"),
        ],
    )
    def test_faults_name_the_field(self, payload, message):
        with pytest.raises(InputError, match=re.escape(message)):
            pk.DAssignment.from_payload(payload)


class TestChains:
    def test_reduced_instance_chain_count(self, k2):
        phi = pk.Instance(["x", "y", "z"], [(("x", "y"), "neq")])
        inst = pk.reduce_mcsp_to_llc(phi, k2, (2, 1))
        # each 2-subset pairs with each of its two singletons
        assert len(pk.enumerate_chains(inst)) == 6

    def test_missing_constraint_excludes_tuple(self):
        inst = tiny_llc()
        chains = pk.enumerate_chains(inst)
        assert ("a0", "b0") in chains and ("a1", "b0") in chains

    def test_single_layer_chains_are_variables(self):
        inst = pk.LlcInstance(layers=[("a", "b")], domains={"a": ("0",), "b": ("0",)}, constraints={})
        assert pk.enumerate_chains(inst) == (("a",), ("b",))


class TestWeakSatisfaction:
    def test_solution_lift_satisfies_every_chain(self, k2):
        phi = pk.Instance(["x", "y", "z"], [(("x", "y"), "neq")])
        inst = pk.reduce_mcsp_to_llc(phi, k2, (2, 1))
        h = pk.brute_force_solve(phi, k2)
        choice = {}
        for layer_idx, layer in enumerate(inst.layers):
            for name in layer:
                subset = tuple(name.split("|")[1].split(","))
                choice[name] = {",".join(h.mapping[x] for x in subset)}
        f = pk.DAssignment(choice)
        assert all(pk.weakly_satisfies(f, c, inst) for c in pk.enumerate_chains(inst))

    def test_disjoint_orbits_fail(self):
        inst = pk.LlcInstance(
            layers=[("a",), ("b",)],
            domains={"a": ("0", "1"), "b": ("0", "1")},
            constraints={("a", "b"): {"0": "0", "1": "1"}},
        )
        f = pk.DAssignment({"a": {"0"}, "b": {"1"}})
        assert not pk.weakly_satisfies(f, ("a", "b"), inst)

    def test_full_subsets_always_satisfy(self):
        inst = tiny_llc()
        f = pk.DAssignment({x: set(inst.domains[x]) for x in inst.domains})
        assert all(pk.weakly_satisfies(f, c, inst) for c in pk.enumerate_chains(inst))

    def test_monotone_in_the_assignment(self):
        inst = tiny_llc()
        small = pk.DAssignment({"a0": {"x"}, "a1": {"x"}, "b0": {"u"}})
        big = pk.DAssignment({"a0": {"x", "y"}, "a1": {"x"}, "b0": {"u", "v"}})
        for chain in pk.enumerate_chains(inst):
            if pk.weakly_satisfies(small, chain, inst):
                assert pk.weakly_satisfies(big, chain, inst)


class TestReduction:
    def test_domain_sizes_for_an_edge(self, k2):
        phi = pk.Instance(["x", "y", "z"], [(("x", "y"), "neq")])
        inst = pk.reduce_mcsp_to_llc(phi, k2, (2, 1))
        sizes = {name: len(dom) for name, dom in inst.domains.items()}
        assert sizes["L0|x,y"] == 2
        assert sizes["L0|x,z"] == 4
        assert all(sizes[f"L1|{v}"] == 2 for v in ("x", "y", "z"))

    def test_unsolvable_instance_is_flagged(self, k2):
        inst = pk.reduce_mcsp_to_llc(triangle_instance(), k2, (3, 2))
        assert inst.has_empty_domain

    def test_increasing_arities_rejected(self, k2):
        with pytest.raises(InputError):
            pk.reduce_mcsp_to_llc(triangle_instance(), k2, (2, 3))


class TestLayeredValue:
    def test_solvable_source_has_value_one(self, k2):
        phi = pk.Instance(["x", "y", "z"], [(("x", "y"), "neq")])
        inst = pk.reduce_mcsp_to_llc(phi, k2, (2, 1))
        result = pk.combinatorial_layered_value(inst, 2)
        assert result.value == 1
        assert all(
            pk.weakly_satisfies(result.witness, c, inst) for c in pk.enumerate_chains(inst)
        )

    def test_flagged_instance_exceeds_every_width(self, k2):
        inst = pk.reduce_mcsp_to_llc(triangle_instance(), k2, (3, 2))
        for max_d in (1, 2, 3):
            assert pk.combinatorial_layered_value(inst, max_d).value is None

    def test_gap_at_the_right_parameters(self, unary_side):
        # an unsolvable single-variable-constraint instance has no witnessing
        # assignment at width one
        phi = unary_instance(["x0", "x1", "x2", "x3"], [frozenset(), frozenset({"0"}), frozenset({"0", "1"}), frozenset({"0", "1"})])
        inst = pk.reduce_mcsp_to_llc(phi, unary_side, (3, 2))
        assert pk.combinatorial_layered_value(inst, 1).value is None


UNARY_SIDE = pk.structure(["0", "1"], only0=(1, {("0",)}), only1=(1, {("1",)}))


@st.composite
def oracle_cases(draw, arities=((2, 1), (3, 2), (3, 3))):
    """A graph or unary instance on at most 5 variables, arities, a width and
    a budget, small enough that some draws run out of budget."""
    n = draw(st.integers(2, 5))
    k = draw(st.sampled_from([k for k in arities if k[0] <= n]))
    variables = [f"x{i}" for i in range(n)]
    if draw(st.booleans()):
        pairs = [(a, b) for i, a in enumerate(variables) for b in variables[i:]]
        scopes = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6))
        phi, side = pk.Instance(variables, [(s, "neq") for s in scopes]), pk.complete_graph(2)
    else:
        allowed = draw(st.lists(st.sampled_from(ALLOWED_SETS), min_size=n, max_size=n))
        phi, side = unary_instance(variables, allowed), UNARY_SIDE
    d = draw(st.sampled_from((1, 2)))
    budget = draw(st.sampled_from((4, 30, 300, 3000)))
    return phi, side, k, d, budget


# The first 3-subset has 8 partial solutions, so 36 candidate entries at d=2,
# over a budget of 30, while a later subset has none: the empty subset is an
# exact no before any slot is priced.
PRICED_BEFORE_EMPTY = (
    unary_instance(["x0", "x1", "x2", "x3"], [ALLOWED_SETS[3]] * 3 + [ALLOWED_SETS[0]]),
    UNARY_SIDE,
    (3, 2),
    2,
    30,
)


def _decide(oracle, phi, side, k, d, budget):
    try:
        return oracle(phi, side, k, d, budget=budget)
    except ResourceError:
        return "over budget"


def _layered(phi, side, k, d, budget):
    try:
        inst = pk.reduce_mcsp_to_llc(phi, side, k, budget=budget)
        return bool(pk.combinatorial_layered_value(inst, d, budget=budget))
    except ResourceError:
        return "over budget"


# The fixed cases the agreement property has always covered, at d = 1 and 2.
AGREEMENT_CASES = [
    (unary_instance(["x0", "x1", "x2", "x3"], [frozenset({"0"})] * 4), UNARY_SIDE),
    (unary_instance(
        ["x0", "x1", "x2", "x3"],
        [frozenset(), frozenset({"0", "1"}), frozenset({"1"}), frozenset({"0", "1"})],
    ), UNARY_SIDE),
    (pk.Instance(["x0", "x1", "x2", "x3"], [(("x0", "x1"), "neq"), (("x1", "x2"), "neq")]),
     pk.complete_graph(2)),
    (triangle_instance(), pk.complete_graph(2)),
]


def _with_agreement_cases(test):
    for (phi, side), d in itertools.product(AGREEMENT_CASES, (1, 2)):
        test = example(case=(phi, side, (3, 2), d, DEFAULT_BUDGET))(test)
    return example(case=PRICED_BEFORE_EMPTY)(test)


class TestValueAgreement:
    # The width-d layered value of the reduced instance and the direct
    # sequence-value decision coincide wherever both finish.
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(case=oracle_cases())
    @_with_agreement_cases
    def test_oracle_and_layered_value_agree_at_small_widths(self, case):
        oracle, layered = _decide(pk.csp_value_oracle, *case), _layered(*case)
        if "over budget" not in (oracle, layered):
            assert oracle == layered


class TestOracleAgainstReference:
    # The search visits variables in another order than the reference, so it
    # may finish where the reference runs out of budget, but never the other
    # way round.
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(case=oracle_cases())
    @example(case=PRICED_BEFORE_EMPTY)
    def test_same_answer_wherever_the_reference_finishes(self, case):
        expected = _decide(reference_oracle, *case)
        if expected != "over budget":
            assert _decide(pk.csp_value_oracle, *case) == expected

    def test_an_empty_subset_answers_no_before_pricing(self):
        phi, side, k, d, budget = PRICED_BEFORE_EMPTY
        answer = pk.csp_value_oracle(phi, side, k, d, budget=budget)
        assert answer is False
        inst = pk.reduce_mcsp_to_llc(phi, side, k)
        assert answer == bool(pk.combinatorial_layered_value(inst, d, budget=budget))


def _five_vertex_graph(edges):
    names = [f"v{i}" for i in range(5)]
    return pk.Instance(names, [((names[a], names[b]), "neq") for a, b in edges])


# The reference needs about 155,000 nodes here, so it too finishes.
C5_AT_K32 = (cycle_instance(5), pk.complete_graph(2), (3, 2), 1, 200_000)

# Three layers give chains with more than one pair to judge.
CHAIN_ARITIES = ((2, 1), (3, 2), (3, 3), (3, 2, 1))


class TestChainSearch:
    # Two disjoint edges plus an isolated vertex (a yes-instance) and C5 (a
    # no-instance, searched to the end) each need over 150,000 nodes unless
    # chains are judged early.  Budgets count nodes, not time.
    @pytest.mark.parametrize(
        "phi, expected",
        [(_five_vertex_graph(((0, 1), (2, 3))), True), (cycle_instance(5), False)],
    )
    def test_both_deciders_finish_within_a_thousand_nodes(self, k2, phi, expected):
        assert pk.csp_value_oracle(phi, k2, (3, 2), 1, budget=1000) is expected
        inst = pk.reduce_mcsp_to_llc(phi, k2, (3, 2))
        result = pk.combinatorial_layered_value(inst, 1, budget=1000)
        assert bool(result) is expected

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(case=oracle_cases(arities=CHAIN_ARITIES))
    @example(case=C5_AT_K32)
    def test_every_witness_weakly_satisfies_every_chain(self, case):
        phi, side, k, d, budget = case
        inst = pk.reduce_mcsp_to_llc(phi, side, k)
        try:
            result = pk.combinatorial_layered_value(inst, d, budget=budget)
        except ResourceError:
            return
        expected = _decide(reference_oracle, *case)
        if expected != "over budget":
            assert bool(result) is expected
        if result:
            f = result.witness
            assert f.width <= result.value
            assert all(f.mapping[x] <= set(inst.domains[x]) for x in inst.domains)
            assert all(pk.weakly_satisfies(f, c, inst) for c in pk.enumerate_chains(inst))


    # The 20-vertex path at k=(3,2) has 1,330 subset variables; a search that
    # recursed once per variable passed Python's recursion limit on it.
    def test_a_20_vertex_path_decides_at_width_one(self, k2):
        phi = path_instance(20)
        assert pk.csp_value_oracle(phi, k2, (3, 2), 1) is True
        inst = pk.reduce_mcsp_to_llc(phi, k2, (3, 2))
        assert sum(map(len, inst.layers)) == 1330
        result = pk.combinatorial_layered_value(inst, 1)
        assert result.value == 1
        assert all(pk.weakly_satisfies(result.witness, c, inst) for c in pk.enumerate_chains(inst))

    # C5 at k=(3,2) searches to the end at d=1 and finds a witness at d=2.
    @pytest.mark.parametrize("d, nodes, expected", [(1, 38, False), (2, 49, True)])
    def test_c5_takes_a_pinned_number_of_nodes(self, d, nodes, expected):
        phi, side, k, _, _ = C5_AT_K32
        assert pk.csp_value_oracle(phi, side, k, d, budget=nodes) is expected
        with pytest.raises(ResourceError, match=f"^chain search visited over {nodes - 1} nodes$"):
            pk.csp_value_oracle(phi, side, k, d, budget=nodes - 1)

    # The layered value runs the oracle's search: the same nodes at each
    # width, the widths below d searched to the end within the budget first.
    @pytest.mark.parametrize("d, nodes, value", [(1, 38, None), (2, 49, 2)])
    def test_the_layered_value_takes_the_oracles_nodes(self, d, nodes, value):
        phi, side, k, _, _ = C5_AT_K32
        inst = pk.reduce_mcsp_to_llc(phi, side, k)
        assert pk.combinatorial_layered_value(inst, d, budget=nodes).value == value
        with pytest.raises(ResourceError, match=f"^chain search visited over {nodes - 1} nodes$"):
            pk.combinatorial_layered_value(inst, d, budget=nodes - 1)

    def test_the_oracle_builds_no_label_cover(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the value oracle built a label cover")

        monkeypatch.setattr(labelcover, "LlcInstance", refuse)
        monkeypatch.setattr(labelcover, "tuple_label", refuse)
        phi, side, k, _, _ = C5_AT_K32
        assert [pk.csp_value_oracle(phi, side, k, d) for d in (1, 2)] == [False, True]
        assert pk.csp_value_oracle(path_instance(6), side, (3, 2, 1), 1) is True

    @pytest.mark.parametrize("d", [0, -1])
    def test_a_width_below_one_is_refused(self, k2, d):
        # even where an empty domain would answer no without a search
        for phi in (cycle_instance(5), triangle_instance()):
            with pytest.raises(InputError, match=f"^d={d}: expected a width of at least 1$"):
                pk.csp_value_oracle(phi, k2, (3, 2), d)
            inst = pk.reduce_mcsp_to_llc(phi, k2, (3, 2))
            with pytest.raises(InputError, match=f"^max_d={d}: expected a width of at least 1$"):
                pk.combinatorial_layered_value(inst, d)

    # 22 atoms at d=11 have 2,449,867 candidate entries; they are counted,
    # not built, before the refusal.
    def test_a_slot_is_priced_before_its_entries_are_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("candidate entries were built")

        monkeypatch.setattr(itertools, "combinations", refuse)
        message = "^chain search at d=11 has a slot with over 1000 candidate entries$"
        with pytest.raises(ResourceError, match=message):
            _width_options(22, 11, 1000)

    # The counts kept up to date must pick the variables the rescoring picks:
    # `completion_order` over the chains, with fewer options first among ties,
    # is the order the chain search hands to `core.backtrack`.
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(case=oracle_cases(arities=CHAIN_ARITIES))
    @example(case=C5_AT_K32)
    def test_order_is_the_rescored_order(self, case):
        phi, side, k, d, _ = case
        inst = pk.reduce_mcsp_to_llc(phi, side, k)
        sizes = {x: len(_width_options(len(dom), d, DEFAULT_BUDGET))
                 for x, dom in inst.domains.items()}
        names = [x for layer in inst.layers for x in layer]
        chains = pk.enumerate_chains(inst)
        order, judged_at = completion_order(names, chains, lambda x: -sizes[x])
        judged = [[chains[c] for c in completed] for completed in judged_at]
        assert (order, judged) == oracle_module._chain_order(inst, sizes)


def _outcome(decide, *args, **kwargs):
    """What a decider returns, or the message of its budget refusal."""
    try:
        return decide(*args, **kwargs)
    except ResourceError as exc:
        return f"refused: {exc}"


def _label_oracle(phi, side, k, d, budget):
    """The value oracle as it was: the label search on the subset reduction."""
    inst = pk.reduce_mcsp_to_llc(phi, side, k, budget=budget)
    return not inst.has_empty_domain and oracle_module.chain_search(inst, d, budget) is not None


@st.composite
def pruned_llc_cases(draw):
    """The subset reduction of an oracle case with some of its constraints
    dropped, so that some nested pairs have none, a width and a budget."""
    phi, side, k, d, budget = draw(oracle_cases(arities=CHAIN_ARITIES))
    inst = pk.reduce_mcsp_to_llc(phi, side, k)
    pairs = list(inst.constraints)
    kept = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    constraints = {pair: inst.constraints[pair] for pair, keep in zip(pairs, kept) if keep}
    return pk.LlcInstance(inst.layers, inst.domains, constraints), d, budget


class TestChainSearchAgainstReference:
    # The integer search must find what the label search found: the same
    # chains, the same value and witness, and the same budget refusal, at
    # d = 1 and 2 and with one to three layers.
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(case=oracle_cases(arities=CHAIN_ARITIES))
    @example(case=C5_AT_K32)
    @example(case=(*C5_AT_K32[:3], 1, 37))
    def test_both_deciders_match_the_label_search(self, case):
        phi, side, k, d, budget = case
        inst = pk.reduce_mcsp_to_llc(phi, side, k)
        assert pk.enumerate_chains(inst) == oracle_module.enumerate_chains(inst)
        assert _outcome(pk.combinatorial_layered_value, inst, d, budget=budget) == _outcome(
            oracle_module.layered_value, inst, d, budget=budget
        )
        assert _outcome(pk.csp_value_oracle, *case) == _outcome(_label_oracle, *case)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(case=pruned_llc_cases())
    def test_instances_missing_nested_pairs(self, case):
        inst, d, budget = case
        assert pk.enumerate_chains(inst) == oracle_module.enumerate_chains(inst)
        assert _outcome(pk.combinatorial_layered_value, inst, d, budget=budget) == _outcome(
            oracle_module.layered_value, inst, d, budget=budget
        )

    def test_chains_skip_a_member_without_every_constraint(self):
        # b0 follows a0, and c0 follows b0 but not a0
        inst = pk.LlcInstance(
            layers=[("a0", "a1"), ("b0", "b1"), ("c0", "c1")],
            domains={x: ("0",) for x in ("a0", "a1", "b0", "b1", "c0", "c1")},
            constraints={
                pair: {"0": "0"}
                for pair in [("a0", "b0"), ("a0", "c1"), ("b0", "c0"), ("b0", "c1"),
                             ("a1", "b1"), ("b1", "c0"), ("a1", "c0")]
            },
        )
        expected = (("a0", "b0", "c1"), ("a1", "b1", "c0"))
        assert pk.enumerate_chains(inst) == oracle_module.enumerate_chains(inst) == expected


@st.composite
def d_assignment_cases(draw):
    """An oracle case and a choice of one or two atoms per subset variable,
    drawn from the variable's domain except on one subset, if any, or where
    the domain is empty.  When `lifted`, every choice holds the restriction of
    one total assignment, so the choices weakly satisfy every chain."""
    phi, side, k, _, _ = draw(oracle_cases())
    table = partial_solution_table(phi, side, k)
    lifted = draw(st.booleans())
    values = draw(st.lists(st.sampled_from(side.domain), min_size=len(phi.variables)))
    h = dict(zip(phi.variables, values))
    anywhere_at = draw(st.sampled_from([None, *table]))
    choice = {}
    for i, size in enumerate(k):
        for u in itertools.combinations(phi.variables, size):
            inside = [",".join(g) for g in table[u]]
            anywhere = [",".join(g) for g in itertools.product(side.domain, repeat=size)]
            pool = inside if inside and u != anywhere_at else anywhere
            atoms = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2))
            if lifted:
                atoms.append(",".join(h[x] for x in u))
            choice[f"L{i}|{','.join(u)}"] = atoms
    return phi, side, k, choice, lifted


# x3 has no value, so every subset holding it has an empty domain.
EMPTY_AT_X3 = PRICED_BEFORE_EMPTY[0]


def _all_zero_choice(phi, k):
    return {
        f"L{i}|{','.join(u)}": ["0" + ",0" * (size - 1)]
        for i, size in enumerate(k)
        for u in itertools.combinations(phi.variables, size)
    }


class TestLlcBytes:
    """The canonical bytes of the subset reduction over K2 at k=(3,2), pinned
    by sha256; CI pins the path's bytes as written by `reduce llc`."""

    @pytest.mark.parametrize(
        "phi, digest",
        [
            (
                cycle_instance(5),
                "43eb03a1ad7267838213d8c3013632c089d6d06141c36ecaec3b4e5318bb3ec5",
            ),
            (
                pk.Instance(["x", "y", "z"], [(("x", "y"), "neq"), (("y", "z"), "neq")]),
                "7f91885e5d33b35cc88dfdbe71b19f67a14d4abb2eaafd2f2c34c6c1765792b2",
            ),
        ],
        ids=["five-cycle", "three-vertex-path"],
    )
    def test_reduced_instance_bytes(self, phi, digest):
        reduced = pk.reduce_mcsp_to_llc(phi, pk.complete_graph(2), (3, 2))
        text = jsonio.canonical_dumps(reduced.to_payload())
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestDAssignmentDomains:
    # The partial-solution table is the test oracle for the domains: an atom
    # outside them is refused, and choices inside them are refused only for
    # failing weak satisfaction, which a lifted choice never does.
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(case=d_assignment_cases())
    @example(case=(EMPTY_AT_X3, UNARY_SIDE, (3, 2), _all_zero_choice(EMPTY_AT_X3, (3, 2)), True))
    def test_accepts_exactly_the_choices_inside_the_domains(self, case):
        phi, side, k, choice, lifted = case
        table = partial_solution_table(phi, side, k)
        inside = all(
            set(choice[f"L{i}|{','.join(u)}"]) <= {",".join(g) for g in table[u]}
            for i, size in enumerate(k)
            for u in itertools.combinations(phi.variables, size)
        )
        try:
            seq = pk.d_assignment_to_pas(pk.DAssignment(choice), phi, side, k)
        except InputError as exc:
            if inside:
                assert not lifted and "weak satisfaction" in str(exc)
            else:
                assert "leaves its domain" in str(exc)
        else:
            assert inside
            for i, system in enumerate(seq.systems):
                for u, entry in system.entries.items():
                    assert {",".join(g) for g in entry} == set(choice[f"L{i}|{','.join(u)}"])


class TestRoundTrip:
    def test_solution_lift_decodes_to_restriction_systems(self, unary_side):
        phi = unary_instance(
            ["x0", "x1", "x2", "x3"],
            [frozenset({"1"}), frozenset({"0", "1"}), frozenset({"0"}), frozenset({"0", "1"})],
        )
        h = pk.brute_force_solve(phi, unary_side)
        inst = pk.reduce_mcsp_to_llc(phi, unary_side, (3, 2))
        choice = {}
        for layer in inst.layers:
            for name in layer:
                subset = tuple(name.split("|")[1].split(","))
                choice[name] = {",".join(h.mapping[x] for x in subset)}
        seq = pk.d_assignment_to_pas(pk.DAssignment(choice), phi, unary_side, (3, 2))
        for system in seq.systems:
            assert system == pk.pas_from_assignment(
                h.mapping, phi.variables, unary_side.domain, system.arity
            )

    def test_witness_decodes_to_consistent_sequence(self, unary_side):
        phi = unary_instance(
            ["x0", "x1", "x2", "x3"],
            [frozenset({"1"}), frozenset({"0", "1"}), frozenset({"0"}), frozenset({"0", "1"})],
        )
        inst = pk.reduce_mcsp_to_llc(phi, unary_side, (3, 2))
        result = pk.combinatorial_layered_value(inst, 1)
        seq = pk.d_assignment_to_pas(result.witness, phi, unary_side, (3, 2))
        assert pk.check_consistent(seq)
        assert max(pk.pas_value(s) for s in seq.systems) == 1

    def test_extraction_recovers_a_solution(self, unary_side):
        phi = unary_instance(
            ["x0", "x1", "x2", "x3"],
            [frozenset({"1"}), frozenset({"0", "1"}), frozenset({"0"}), frozenset({"0", "1"})],
        )
        inst = pk.reduce_mcsp_to_llc(phi, unary_side, (3, 2))
        result = pk.combinatorial_layered_value(inst, 1)
        seq = pk.d_assignment_to_pas(result.witness, phi, unary_side, (3, 2))
        extraction = pk.extract_solution(seq, pk.gap_parameters(2, 1, (1, 1)), 1)
        assert pk.evaluate(phi, unary_side, extraction.assignment) == []

    def _restriction_choice(self, unary_side):
        phi = unary_instance(["x0", "x1", "x2", "x3"], [frozenset({"1"})] * 4)
        inst = pk.reduce_mcsp_to_llc(phi, unary_side, (3, 2))
        return phi, {name: set(inst.domains[name]) for layer in inst.layers for name in layer}

    def test_a_missing_variable_is_named(self, unary_side):
        phi, choice = self._restriction_choice(unary_side)
        del choice["L1|x0,x2"]
        with pytest.raises(InputError, match=r"^assignment is missing variable 'L1\|x0,x2'$"):
            pk.d_assignment_to_pas(pk.DAssignment(choice), phi, unary_side, (3, 2))

    def test_an_entry_short_of_its_subset_is_not_total(self, unary_side):
        phi, choice = self._restriction_choice(unary_side)
        choice["L0|x0,x1,x3"] = {"1,1"}
        with pytest.raises(InputError, match="^assignment is not total: missing 'x3'$"):
            pk.d_assignment_to_pas(pk.DAssignment(choice), phi, unary_side, (3, 2))

    def test_non_satisfying_assignment_rejected(self, unary_side):
        phi = unary_instance(["x0", "x1", "x2", "x3"], [frozenset({"1"})] * 4)
        inst = pk.reduce_mcsp_to_llc(phi, unary_side, (3, 2))
        wrong = {}
        for layer_idx, layer in enumerate(inst.layers):
            for name in layer:
                wrong[name] = {inst.domains[name][0]}
        # entry sets drawn per subset from conflicting assignments cannot
        # weakly satisfy everything when they disagree on overlaps
        subsets3 = list(itertools.combinations(phi.variables, 3))
        bad = dict(wrong)
        bad["L0|" + ",".join(subsets3[0])] = {"0,0,0"}
        with pytest.raises(InputError):
            pk.d_assignment_to_pas(pk.DAssignment(bad), phi, unary_side, (3, 2))
